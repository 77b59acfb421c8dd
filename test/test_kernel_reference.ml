(* The pre-windowing simulation kernel, kept verbatim as a reference:
   full-scan longest paths with a separate reachability DFS and fresh
   arrays per query.  The production kernel (fused reachability, topo
   windows, reused arenas) must agree with it bit for bit — on the
   simulation arrays and on whole analysis reports. *)

open Tsg

(* ------------------------------------------------------------------ *)
(* Reference kernel (the old Timing_sim hot path, public API only)     *)

let ref_longest_paths u ~roots ~restrict =
  let n = Unfolding.instance_count u in
  let time = Array.make n 0. in
  let pred_instance = Array.make n (-1) in
  let pred_arc = Array.make n (-1) in
  let is_root = Array.make n false in
  List.iter (fun v -> is_root.(v) <- true) roots;
  let topo = Unfolding.topological_order u in
  let starts, srcs, arc_ids = Unfolding.in_adjacency u in
  let delays = Unfolding.delays u in
  for k = 0 to Array.length topo - 1 do
    let v = topo.(k) in
    if restrict.(v) && not is_root.(v) then
      for j = starts.(v) to starts.(v + 1) - 1 do
        let src = srcs.(j) in
        if restrict.(src) then begin
          let d = time.(src) +. delays.(arc_ids.(j)) in
          if pred_instance.(v) < 0 || d > time.(v) then begin
            time.(v) <- d;
            pred_instance.(v) <- src;
            pred_arc.(v) <- arc_ids.(j)
          end
        end
      done
  done;
  (time, pred_instance, pred_arc, restrict)

let ref_reachable_from u at =
  let n = Unfolding.instance_count u in
  let starts, dsts, _ = Unfolding.out_adjacency u in
  let seen = Array.make n false in
  let stack = Array.make n 0 in
  let top = ref 0 in
  seen.(at) <- true;
  stack.(!top) <- at;
  incr top;
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    for j = starts.(v) to starts.(v + 1) - 1 do
      let w = dsts.(j) in
      if not seen.(w) then begin
        seen.(w) <- true;
        stack.(!top) <- w;
        incr top
      end
    done
  done;
  seen

let ref_simulate u =
  let restrict = Array.make (Unfolding.instance_count u) true in
  ref_longest_paths u ~roots:(Unfolding.initial_instances u) ~restrict

let ref_simulate_initiated u ~at =
  ref_longest_paths u ~roots:[ at ] ~restrict:(ref_reachable_from u at)

(* a reference analysis: the Cycle_time pipeline driven by the
   reference kernel.  Mirrors lib/core/cycle_time.ml — border, Delta
   samples, first-max selection, backtrack, cycle decomposition *)
let ref_analyze g =
  let border = Cut_set.border g in
  let periods = List.length border in
  let u = Unfolding.make g ~periods:(periods + 1) in
  let traces_and_sims =
    List.map
      (fun g0 ->
        let time, pi, pa, _ =
          ref_simulate_initiated u ~at:(Unfolding.instance u ~event:g0 ~period:0)
        in
        let samples =
          List.init periods (fun k ->
              let period = k + 1 in
              let t = time.(Unfolding.instance u ~event:g0 ~period) in
              {
                Cycle_time.period;
                time = t;
                average = t /. float_of_int period;
              })
        in
        ({ Cycle_time.border_event = g0; samples }, (time, pi, pa)))
      border
  in
  let traces = List.map fst traces_and_sims in
  let best =
    List.fold_left
      (fun acc (trace : Cycle_time.border_trace) ->
        List.fold_left
          (fun acc (s : Cycle_time.sample) ->
            match acc with
            | Some (_, _, best_avg) when best_avg >= s.Cycle_time.average -> acc
            | _ ->
              Some (trace.Cycle_time.border_event, s.Cycle_time.period, s.Cycle_time.average))
          acc trace.Cycle_time.samples)
      None traces
  in
  match best with
  | None -> Alcotest.fail "reference analysis collected no samples"
  | Some (critical_event, critical_period, cycle_time) ->
    let _, pi, pa =
      match
        List.find_opt
          (fun ((t : Cycle_time.border_trace), _) -> t.Cycle_time.border_event = critical_event)
          traces_and_sims
      with
      | Some (_, sim) -> sim
      | None -> assert false
    in
    let target = Unfolding.instance u ~event:critical_event ~period:critical_period in
    let rec back v acc =
      let acc = (if pi.(v) < 0 then None else Some pa.(v)) :: acc in
      if pi.(v) < 0 then acc else back pi.(v) acc
    in
    let critical_walk = List.filter_map Fun.id (back target []) in
    let decomposition = Cycles.decompose_closed_walk g critical_walk in
    let best_ratio =
      List.fold_left (fun acc c -> max acc (Cycles.effective_length c)) neg_infinity
        decomposition
    in
    let tolerance = 1e-9 in
    let critical_cycles =
      List.filter
        (fun c ->
          Cycles.effective_length c
          >= best_ratio -. (tolerance *. (1. +. abs_float best_ratio)))
        decomposition
    in
    {
      Cycle_time.cycle_time;
      critical_event;
      critical_period;
      critical_walk;
      critical_cycles;
      border;
      periods_simulated = periods;
      traces;
    }

(* ------------------------------------------------------------------ *)
(* Agreement properties                                                 *)

let check_same_result msg (time, pi, pa, reached) (r : Timing_sim.result) =
  Alcotest.(check (array (float 0.))) (msg ^ ": times") time r.Timing_sim.time;
  Alcotest.(check (array int)) (msg ^ ": pred instances") pi r.Timing_sim.pred_instance;
  Alcotest.(check (array int)) (msg ^ ": pred arcs") pa r.Timing_sim.pred_arc;
  Alcotest.(check (array bool)) (msg ^ ": reached") reached r.Timing_sim.reached

(* exact float equality: the kernels must agree bit for bit, not
   within a tolerance *)
let sims_agree g =
  let b = max 1 (List.length (Cut_set.border g)) in
  let u = Unfolding.make g ~periods:(b + 1) in
  check_same_result "full simulation" (ref_simulate u) (Timing_sim.simulate u);
  List.iter
    (fun g0 ->
      let at = Unfolding.instance u ~event:g0 ~period:0 in
      check_same_result
        (Printf.sprintf "initiated at instance %d" at)
        (ref_simulate_initiated u ~at)
        (Timing_sim.simulate_initiated u ~at))
    (Cut_set.border g);
  true

let reports_agree g =
  let reference = ref_analyze g in
  (* polymorphic equality covers every field exactly: lambda, critical
     event/period/walk, decomposed cycles, border, traces *)
  if Cycle_time.analyze g <> reference then
    Alcotest.fail "analysis report differs from the reference kernel's";
  true

let lambda_matches_baselines g =
  let lambda = Cycle_time.cycle_time g in
  Helpers.check_float "matches Karp" (Tsg_baselines.Karp.cycle_time g) lambda;
  Helpers.check_float "matches Howard" (Tsg_baselines.Howard.cycle_time g) lambda;
  true

(* simulate_many relaxes up to 8 roots per lane pass; every lane must
   read exactly what the stamped single-root kernel returns, and the
   counters must keep their per-root meaning *)
let simulate_many_matches_initiated g =
  let b = max 1 (List.length (Cut_set.border g)) in
  let u = Unfolding.make g ~periods:(b + 1) in
  let n = Unfolding.instance_count u in
  let pos = Unfolding.topo_position u in
  let border =
    Array.of_list
      (List.map (fun g0 -> Unfolding.instance u ~event:g0 ~period:0) (Cut_set.border g))
  in
  let by_pos = Array.copy border in
  Array.sort (fun x y -> compare pos.(y) pos.(x)) by_pos;
  (* more than two passes' worth: every period-0 instance plus every
     other later instance, repeated until over 16 roots *)
  let large =
    let n0 = Signal_graph.event_count g in
    let base =
      Array.append (Array.init n0 Fun.id)
        (Array.init ((n - n0) / 2) (fun k -> n0 + (2 * k)))
    in
    let rec grow a = if Array.length a > 16 then a else grow (Array.append a base) in
    grow base
  in
  let root_sets =
    [
      ("border", border);
      ("more than 2 passes", large);
      ("duplicates", Array.concat [ border; border; [| border.(0) |] ]);
      ("unsorted", by_pos);
      ("single", [| border.(Array.length border - 1) |]);
    ]
  in
  let bits a = Array.map Int64.bits_of_float a in
  List.iter
    (fun (set, roots) ->
      List.iter
        (fun jobs ->
          let sims0 = Tsg_engine.Metrics.count "simulations/initiated" in
          let scanned0 = Tsg_engine.Metrics.count "kernel/instances_scanned" in
          let batched =
            Timing_sim.simulate_many ~jobs u ~roots ~f:(fun at view ->
                ( at,
                  Array.init n (Timing_sim.view_time view),
                  Array.init n (Timing_sim.view_reached view),
                  let table = Array.make (n * Timing_sim.lanes) nan in
                  let lane = Timing_sim.lanes - 1 in
                  Timing_sim.view_blit view table ~lane;
                  Array.init n (fun v -> table.((v * Timing_sim.lanes) + lane)) ))
          in
          let label what = Printf.sprintf "%s: %s at jobs %d" set what jobs in
          Alcotest.(check int)
            (label "simulations/initiated counts one per root")
            (Array.length roots)
            (Tsg_engine.Metrics.count "simulations/initiated" - sims0);
          Alcotest.(check int)
            (label "kernel/instances_scanned is the per-root sum")
            (Array.fold_left (fun acc at -> acc + n - pos.(at)) 0 roots)
            (Tsg_engine.Metrics.count "kernel/instances_scanned" - scanned0);
          Alcotest.(check int)
            (label "one result per root")
            (Array.length roots) (Array.length batched);
          Array.iteri
            (fun i at ->
              let one = Timing_sim.simulate_initiated u ~at in
              let got, time, reached, lane = batched.(i) in
              Alcotest.(check int) (label "result lands at its root's index") at got;
              Alcotest.(check (array int64))
                (label (Printf.sprintf "times of root %d" at))
                (bits one.Timing_sim.time) (bits time);
              Alcotest.(check (array bool))
                (label (Printf.sprintf "reached of root %d" at))
                one.Timing_sim.reached reached;
              Alcotest.(check (array int64))
                (label (Printf.sprintf "lane of root %d" at))
                (bits
                   (Array.mapi
                      (fun v t -> if one.Timing_sim.reached.(v) then t else neg_infinity)
                      one.Timing_sim.time))
                (bits lane))
            roots)
        [ 1; 2; 4 ])
    root_sets;
  true

(* the named models exercised by the CLI and the benchmarks *)
let test_library_models () =
  List.iter
    (fun g ->
      ignore (sims_agree g);
      ignore (reports_agree g))
    [
      Tsg_circuit.Circuit_library.fig1_tsg ();
      Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ();
      Tsg_circuit.Circuit_library.async_stack_tsg ();
    ]

let suite =
  [
    Alcotest.test_case "library models match the reference kernel" `Quick
      test_library_models;
    Helpers.qcheck_case ~name:"simulations match the reference kernel" sims_agree;
    Helpers.qcheck_structured_case ~name:"structured models match the reference kernel"
      sims_agree;
    Helpers.qcheck_case ~count:60 ~name:"reports match the reference pipeline"
      reports_agree;
    Helpers.qcheck_case ~name:"cycle time matches Karp and Howard"
      lambda_matches_baselines;
    Helpers.qcheck_case ~count:60 ~name:"simulate_many matches simulate_initiated"
      simulate_many_matches_initiated;
  ]
