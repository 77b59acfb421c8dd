type edit = { arc : int; delta : float }

type change =
  | Delay of edit
  | Add_arc of { src : int; dst : int; delay : float; marked : bool }
  | Remove_arc of int
  | Set_marked of { arc : int; marked : bool }

type path = Short_circuit | Warm | Cold

type stats = { reused : int; resimulated : int; path : path }

type t = {
  g : Signal_graph.t;
  digest : string;
  u : Unfolding.t;
  border : int list;
  border_arr : int array;
  roots : int array;  (** instance of each border event at period 0 *)
  periods : int;
  base : Cycle_time.report;
  base_traces : Cycle_time.border_trace array;
  base_delays : float array;  (* per Signal-Graph arc id *)
  (* the border indices of each warm lane pass: sorted by their roots'
     topological positions, [Timing_sim.lanes] to a pass *)
  passes : int array array;
  (* per pass, its roots' base times in lane-major rows (lane [l] of
     instance [v] at [v * lanes + l]), [neg_infinity] where a root's
     simulation does not reach and in the spare lanes of a short last
     pass *)
  base_rows : float array array;
  (* unfolding instantiations of each Signal-Graph arc, grouped by arc
     id as parallel (src instance, dst instance) arrays — the seed set
     of the dirty propagation *)
  arc_inst_srcs : int array array;
  arc_inst_dsts : int array array;
}

let signal_graph t = t.g
let base_report t = t.base
let border t = t.border
let periods t = t.periods
let digest t = t.digest

(* ------------------------------------------------------------------ *)
(* Preparation: one cold analysis that retains, per border event, the
   full occurrence-time array of its event-initiated simulation, with
   [neg_infinity] marking the instances it does not reach.  One array
   carries both facts: an unreached source contributes [neg_infinity]
   to a longest-path maximum, i.e. nothing, so the repair loops below
   need no separate reachability test.  Reachability depends only on
   topology, so it stays exact under delay edits; the retained times
   are the warm-start baseline the dirty propagation below patches. *)

(* the time a cold simulation's view reports: unreached reads 0. *)
let reported t = if t = neg_infinity then 0. else t

let prepare ?deadline ?periods ?(jobs = 1) g =
  let deadline =
    match deadline with Some d -> d | None -> Tsg_engine.Deadline.current ()
  in
  let args =
    if Tsg_obs.Trace.enabled () then
      [
        ("events", string_of_int (Signal_graph.event_count g));
        ("arcs", string_of_int (Signal_graph.arc_count g));
        ("jobs", string_of_int jobs);
      ]
    else []
  in
  Tsg_obs.Trace.with_span "whatif_prepare" ~args @@ fun () ->
  Tsg_engine.Metrics.time_hist "whatif/prepare_ms" @@ fun () ->
  if Signal_graph.repetitive_count g = 0 then
    raise (Cycle_time.Not_analyzable "the graph has no repetitive events");
  let border = Cut_set.border g in
  let b = List.length border in
  if b = 0 then
    raise
      (Cycle_time.Not_analyzable "the graph has no border events (no initial activity)");
  let periods = match periods with Some p -> max 1 p | None -> b in
  let u = Unfolding.make ~deadline g ~periods:(periods + 1) in
  Tsg_engine.Deadline.check deadline;
  let n = Unfolding.instance_count u in
  let border_arr = Array.of_list border in
  let roots =
    Array.map (fun g0 -> Unfolding.instance u ~event:g0 ~period:0) border_arr
  in
  let lanes = Timing_sim.lanes in
  let pos = Unfolding.topo_position u in
  let order = Array.init b Fun.id in
  Array.stable_sort (fun i j -> compare pos.(roots.(i)) pos.(roots.(j))) order;
  let passes =
    Array.init ((b + lanes - 1) / lanes) (fun p ->
        Array.sub order (p * lanes) (min lanes (b - (p * lanes))))
  in
  let base_rows = Array.map (fun _ -> Array.make (n * lanes) neg_infinity) passes in
  (* border event -> (pass, lane) *)
  let slot = Array.make (Signal_graph.event_count g) (0, 0) in
  Array.iteri
    (fun p idxs -> Array.iteri (fun l i -> slot.(border_arr.(i)) <- (p, l)) idxs)
    passes;
  let base_traces =
    Timing_sim.simulate_many ~deadline ~jobs u ~roots ~f:(fun at view ->
        let g0, _ = Unfolding.event_of_instance u at in
        let p, lane = slot.(g0) in
        Timing_sim.view_blit view base_rows.(p) ~lane;
        Cycle_time.Internal.trace_of_times (Timing_sim.view_time view) u periods g0)
  in
  let base =
    Cycle_time.Internal.finish ~deadline g u ~border ~periods
      ~traces:(Array.to_list base_traces)
  in
  (* group the unfolding's arcs by the Signal-Graph arc they instantiate *)
  let starts, dsts, arc_ids = Unfolding.out_adjacency u in
  let m = Signal_graph.arc_count g in
  let counts = Array.make m 0 in
  Array.iter (fun a -> counts.(a) <- counts.(a) + 1) arc_ids;
  let arc_inst_srcs = Array.init m (fun a -> Array.make counts.(a) 0) in
  let arc_inst_dsts = Array.init m (fun a -> Array.make counts.(a) 0) in
  let fill = Array.make m 0 in
  for v = 0 to n - 1 do
    for j = starts.(v) to starts.(v + 1) - 1 do
      let a = arc_ids.(j) in
      let k = fill.(a) in
      arc_inst_srcs.(a).(k) <- v;
      arc_inst_dsts.(a).(k) <- dsts.(j);
      fill.(a) <- k + 1
    done
  done;
  {
    g;
    digest = Signal_graph.digest g;
    u;
    border;
    border_arr;
    roots;
    periods;
    base;
    base_traces;
    base_delays = Array.copy (Unfolding.delays u);
    passes;
    base_rows;
    arc_inst_srcs;
    arc_inst_dsts;
  }

(* ------------------------------------------------------------------ *)
(* Edits                                                               *)

(* A scenario of [change]s is classified once, up front, into either a
   pure delay re-spelling of the base graph (the existing warm kernel
   applies unchanged) or a structural edit carrying the edited graph
   plus the arc-id mapping [Unfolding.patch] needs.  Validation errors
   ([Invalid_argument]) and graphs that fail structural validation
   ([Cycle_time.Not_analyzable], e.g. an edit that disconnects the
   repetitive part) are raised here, from the {e same} code on the
   warm and cold sides — which is what makes failure outcomes
   byte-identical between the two. *)
type applied =
  | Ap_delay of float array * int list  (* base-id delays, changed base arcs *)
  | Ap_structural of Signal_graph.t * int array * int list
      (* edited graph, arc_map (base id -> new id or -1),
         surviving base arcs whose delay changed *)

let apply_changes t changes =
  let arcs0 = Signal_graph.arcs t.g in
  let m = Array.length arcs0 in
  let n_events = Signal_graph.event_count t.g in
  let delays = Array.copy t.base_delays in
  let touched = Hashtbl.create 8 in
  let removed = Array.make (max m 1) false in
  let marked = Array.map (fun (a : Signal_graph.arc) -> a.Signal_graph.marked) arcs0 in
  let mark_edits = ref [] in
  let adds = ref [] (* reversed *) in
  let check_arc a =
    if a < 0 || a >= m then
      invalid_arg
        (Printf.sprintf "Whatif: arc id %d out of range (the graph has %d arcs)" a m)
  in
  List.iter
    (function
      | Delay { arc; delta } ->
        check_arc arc;
        if not (Float.is_finite delta) then
          invalid_arg (Printf.sprintf "Whatif: arc %d: delta must be finite" arc);
        delays.(arc) <- delays.(arc) +. delta;
        Hashtbl.replace touched arc ()
      | Remove_arc arc ->
        check_arc arc;
        if removed.(arc) then
          invalid_arg (Printf.sprintf "Whatif: arc %d removed twice in one scenario" arc);
        removed.(arc) <- true
      | Set_marked { arc; marked = mk } ->
        check_arc arc;
        marked.(arc) <- mk;
        mark_edits := arc :: !mark_edits
      | Add_arc { src; dst; delay; marked } ->
        let check_ev e =
          if e < 0 || e >= n_events then
            invalid_arg
              (Printf.sprintf "Whatif: event id %d out of range (the graph has %d events)"
                 e n_events)
        in
        check_ev src;
        check_ev dst;
        if (not (Float.is_finite delay)) || delay < 0. then
          invalid_arg
            (Printf.sprintf
               "Whatif: added arc %d -> %d: delay %g is invalid (delays must be \
                finite and >= 0)"
               src dst delay);
        adds := (src, dst, delay, marked) :: !adds)
    changes;
  (* a delay or marking edit naming a removed arc references a dead id *)
  let check_alive a =
    if removed.(a) then
      invalid_arg (Printf.sprintf "Whatif: edit references removed arc %d" a)
  in
  Hashtbl.iter (fun a () -> check_alive a) touched;
  List.iter check_alive !mark_edits;
  let changed_delays =
    Hashtbl.fold
      (fun a () acc ->
        if delays.(a) <> t.base_delays.(a) then begin
          if (not (Float.is_finite delays.(a))) || delays.(a) < 0. then
            invalid_arg
              (Printf.sprintf
                 "Whatif: arc %d: edited delay %g is invalid (delays must be \
                  finite and >= 0)"
                 a delays.(a));
          a :: acc
        end
        else acc)
      touched []
    |> List.sort compare
  in
  let structural =
    !adds <> []
    || Array.exists Fun.id removed
    || List.exists (fun a -> marked.(a) <> arcs0.(a).Signal_graph.marked) !mark_edits
  in
  if not structural then Ap_delay (delays, changed_delays)
  else begin
    (* surviving base arcs keep their relative order (so [arc_map] is
       monotone), additions are appended with the builder's
       auto-disengageable rule applied *)
    let arc_map = Array.make (max m 1) (-1) in
    let next = ref 0 in
    let surviving = ref [] in
    for a = 0 to m - 1 do
      if not removed.(a) then begin
        arc_map.(a) <- !next;
        incr next;
        let a0 = arcs0.(a) in
        surviving := { a0 with Signal_graph.delay = delays.(a); marked = marked.(a) } :: !surviving
      end
    done;
    let added =
      List.rev_map
        (fun (src, dst, delay, marked) -> Signal_graph.make_arc t.g ~marked ~delay src dst)
        !adds
    in
    let table = Array.of_list (List.rev_append !surviving added) in
    match Signal_graph.with_arcs t.g table with
    | Ok g' -> Ap_structural (g', arc_map, changed_delays)
    | Error errs ->
      raise
        (Cycle_time.Not_analyzable
           (Fmt.str "%a" Fmt.(list ~sep:(any "; ") Signal_graph.pp_error) errs))
  end

let edited_graph_changes t changes =
  match apply_changes t changes with
  | Ap_delay (delays, _) -> Signal_graph.with_delays t.g delays
  | Ap_structural (g', _, _) -> g'

let edited_graph t edits = edited_graph_changes t (List.map (fun e -> Delay e) edits)

(* ------------------------------------------------------------------ *)
(* The warm kernel: incremental longest-path repair, a lane pass at a
   time.

   For a root r, the base run left t_r(v) for every instance v.  An
   edit can only move the times of instances downstream of a {e seed}:
   the destination of an edited arc instance (delay-edited, spliced or
   dropped) whose source r reaches.  The repair marks the seeds dirty
   and relaxes in topological-position order:

     t'_r(v) = max { t'_r(s) + d'(a) | s -a-> v }

   Relaxing a position only ever dirties {e larger} positions (the
   unfolding is a DAG ordered by [topological_order]), so a single
   monotone scan from the smallest dirty position visits every dirty
   node exactly once, after all its predecessors — no priority queue,
   and the clean gaps between dirty nodes cost one stamp comparison
   each.  A node whose recomputed time equals its base time dirties
   nothing, so the scan stops as soon as no marks remain ahead: an
   edit with slack touches a handful of instances, not the window.

   The roots of a pass share one scan: a node is dirty if it is dirty
   in any lane, and recomputing it relaxes all [Timing_sim.lanes]
   lanes from the same in-arc loads, as a lane pass of
   {!Timing_sim.simulate_many} does.  A lane whose root does not reach
   a seed recomputes its base value unchanged, so sharing costs a lane
   nothing but the arithmetic.  Reachability is part of the value (an
   unreached instance holds [neg_infinity], which drops out of every
   maximum), so one scan also repairs reachability when a structural
   edit flips it, and a root's own lane is pinned to [0.] at the root.
   Each recomputed maximum ranges over the same operand set as a cold
   simulation of the edited graph, so the repaired times are bit-for-bit
   equal to it. *)

(* the repair loop below is unrolled for Timing_sim's 8 lanes *)
let () = assert (Timing_sim.lanes = 8)

type scratch = {
  s_rows : float array;  (* a pass's repaired rows, valid where stamped *)
  s_stamp : int array;  (* per instance *)
  s_dirty : int array;  (* per topological position *)
  mutable s_epoch : int;
}

let scratch t =
  let n = Unfolding.instance_count t.u in
  {
    s_rows = Array.make (n * Timing_sim.lanes) 0.;
    s_stamp = Array.make n 0;
    s_dirty = Array.make n 0;
    s_epoch = 0;
  }

(* Repairs pass [p] over [u] — the base unfolding with edited
   [delays], or the patched one with its own — seeded at the arc
   instances [seed_srcs.(k) -> seed_dsts.(k)].  Returns two lane
   masks: the lanes whose root reaches a seed's source (the affected
   roots) and the lanes where some time changed.  The repaired rows
   stay readable through {!repaired_time} until the next repair. *)
let repair_pass ~deadline t sc ~p u ~delays ~seed_srcs ~seed_dsts =
  let lanes = Timing_sim.lanes in
  let topo = Unfolding.topological_order u in
  let pos = Unfolding.topo_position u in
  let in_starts, in_srcs, in_arcs = Unfolding.in_adjacency u in
  let out_starts, out_dsts, _ = Unfolding.out_adjacency u in
  let bt = t.base_rows.(p) in
  let ats = Array.map (fun i -> t.roots.(i)) t.passes.(p) in
  let last_root = Array.fold_left max (-1) ats in
  sc.s_epoch <- sc.s_epoch + 1;
  let epoch = sc.s_epoch in
  let nw = sc.s_rows in
  let stamp = sc.s_stamp in
  let dirty = sc.s_dirty in
  let affected = ref 0 in
  let pending = ref 0 in
  let lo = ref max_int in
  Array.iteri
    (fun k s ->
      let b = s * lanes in
      let reach = ref 0 in
      for l = 0 to lanes - 1 do
        if Array.unsafe_get bt (b + l) > neg_infinity then reach := !reach lor (1 lsl l)
      done;
      if !reach <> 0 then begin
        affected := !affected lor !reach;
        let q = pos.(seed_dsts.(k)) in
        if dirty.(q) <> epoch then begin
          dirty.(q) <- epoch;
          incr pending;
          if q < !lo then lo := q
        end
      end)
    seed_srcs;
  (* the indices below are structurally in-bounds (CSR arrays and
     permutations built by Unfolding over [0, n), rows of [lanes]
     floats per instance), so the hot loop reads unchecked *)
  let changed = ref 0 in
  let steps = ref 0 in
  let k = ref !lo in
  while !pending > 0 do
    if !k land 8191 = 0 then Tsg_engine.Deadline.check deadline;
    (if Array.unsafe_get dirty !k = epoch then begin
       decr pending;
       incr steps;
       let v = Array.unsafe_get topo !k in
       let t0 = ref neg_infinity and t1 = ref neg_infinity in
       let t2 = ref neg_infinity and t3 = ref neg_infinity in
       let t4 = ref neg_infinity and t5 = ref neg_infinity in
       let t6 = ref neg_infinity and t7 = ref neg_infinity in
       for j = Array.unsafe_get in_starts v to Array.unsafe_get in_starts (v + 1) - 1 do
         let s = Array.unsafe_get in_srcs j in
         let row = if Array.unsafe_get stamp s = epoch then nw else bt in
         let o = s * lanes in
         let dl = Array.unsafe_get delays (Array.unsafe_get in_arcs j) in
         (* unrolled by hand, as in Timing_sim's lane pass *)
         let d = Array.unsafe_get row o +. dl in
         if d > !t0 then t0 := d;
         let d = Array.unsafe_get row (o + 1) +. dl in
         if d > !t1 then t1 := d;
         let d = Array.unsafe_get row (o + 2) +. dl in
         if d > !t2 then t2 := d;
         let d = Array.unsafe_get row (o + 3) +. dl in
         if d > !t3 then t3 := d;
         let d = Array.unsafe_get row (o + 4) +. dl in
         if d > !t4 then t4 := d;
         let d = Array.unsafe_get row (o + 5) +. dl in
         if d > !t5 then t5 := d;
         let d = Array.unsafe_get row (o + 6) +. dl in
         if d > !t6 then t6 := d;
         let d = Array.unsafe_get row (o + 7) +. dl in
         if d > !t7 then t7 := d
       done;
       (* a root's own lane is pinned at the root (roots sit at the
          front of the instance space, so one comparison skips this) *)
       if v <= last_root then
         for l = 0 to Array.length ats - 1 do
           if Array.unsafe_get ats l = v then
             match l with
             | 0 -> t0 := 0.
             | 1 -> t1 := 0.
             | 2 -> t2 := 0.
             | 3 -> t3 := 0.
             | 4 -> t4 := 0.
             | 5 -> t5 := 0.
             | 6 -> t6 := 0.
             | _ -> t7 := 0.
         done;
       let b = v * lanes in
       let diff =
         Bool.to_int (!t0 <> Array.unsafe_get bt b)
         lor Bool.to_int (!t1 <> Array.unsafe_get bt (b + 1)) lsl 1
         lor Bool.to_int (!t2 <> Array.unsafe_get bt (b + 2)) lsl 2
         lor Bool.to_int (!t3 <> Array.unsafe_get bt (b + 3)) lsl 3
         lor Bool.to_int (!t4 <> Array.unsafe_get bt (b + 4)) lsl 4
         lor Bool.to_int (!t5 <> Array.unsafe_get bt (b + 5)) lsl 5
         lor Bool.to_int (!t6 <> Array.unsafe_get bt (b + 6)) lsl 6
         lor Bool.to_int (!t7 <> Array.unsafe_get bt (b + 7)) lsl 7
       in
       if diff <> 0 then begin
         changed := !changed lor diff;
         Array.unsafe_set nw b !t0;
         Array.unsafe_set nw (b + 1) !t1;
         Array.unsafe_set nw (b + 2) !t2;
         Array.unsafe_set nw (b + 3) !t3;
         Array.unsafe_set nw (b + 4) !t4;
         Array.unsafe_set nw (b + 5) !t5;
         Array.unsafe_set nw (b + 6) !t6;
         Array.unsafe_set nw (b + 7) !t7;
         Array.unsafe_set stamp v epoch;
         for j = Array.unsafe_get out_starts v to Array.unsafe_get out_starts (v + 1) - 1 do
           let q = Array.unsafe_get pos (Array.unsafe_get out_dsts j) in
           if Array.unsafe_get dirty q <> epoch then begin
             Array.unsafe_set dirty q epoch;
             incr pending
           end
         done
       end
     end);
    incr k
  done;
  Tsg_engine.Metrics.incr ~by:!steps "whatif/instances_repaired";
  (!affected, !changed)

(* lane [l]'s time of instance [v] after the last [repair_pass] of
   pass [p] *)
let repaired_time t sc ~p ~l v =
  let i = (v * Timing_sim.lanes) + l in
  if sc.s_stamp.(v) = sc.s_epoch then sc.s_rows.(i) else t.base_rows.(p).(i)

(* every pass repaired in turn; a root keeps its base Delta table
   unless its lane changed *)
let warm_traces ~deadline t sc u ~delays ~seed_srcs ~seed_dsts =
  let traces = Array.copy t.base_traces in
  let resimulated = ref 0 in
  Array.iteri
    (fun p idxs ->
      Tsg_engine.Deadline.check deadline;
      let affected, changed =
        repair_pass ~deadline t sc ~p u ~delays ~seed_srcs ~seed_dsts
      in
      Array.iteri
        (fun l i ->
          if affected land (1 lsl l) <> 0 then incr resimulated;
          if changed land (1 lsl l) <> 0 then
            traces.(i) <-
              Cycle_time.Internal.trace_of_times
                (fun v -> reported (repaired_time t sc ~p ~l v))
                u t.periods t.border_arr.(i))
        idxs)
    t.passes;
  let resimulated = !resimulated in
  let reused = Array.length t.roots - resimulated in
  Tsg_engine.Metrics.incr ~by:reused "whatif/reused";
  Tsg_engine.Metrics.incr ~by:resimulated "whatif/resimulated";
  (Array.to_list traces, { reused; resimulated; path = Warm })

(* ------------------------------------------------------------------ *)
(* Re-analysis                                                         *)

let short_circuit t =
  let b = Array.length t.border_arr in
  Tsg_engine.Metrics.incr "whatif/short_circuits";
  Tsg_engine.Metrics.incr ~by:b "whatif/reused";
  (t.base, { reused = b; resimulated = 0; path = Short_circuit })

(* a full cold analysis of the edited graph: the fallback whenever the
   warm kernel cannot (or is told not to) answer *)
let cold ~deadline t g' =
  let report = Cycle_time.analyze ~deadline ~periods:t.periods g' in
  (report, { reused = 0; resimulated = Array.length t.border_arr; path = Cold })

(* A delay edit keeps the base unfolding: the seeds are every instance
   of a changed arc. *)
let warm_delay ~deadline sc t ~delays ~changed g' =
  let seeds f = Array.concat (List.map f changed) in
  let traces, stats =
    warm_traces ~deadline t sc t.u ~delays
      ~seed_srcs:(seeds (fun a -> t.arc_inst_srcs.(a)))
      ~seed_dsts:(seeds (fun a -> t.arc_inst_dsts.(a)))
  in
  let report =
    Cycle_time.Internal.finish ~deadline ~delays g' t.u ~border:t.border
      ~periods:t.periods ~traces
  in
  (report, stats)

(* A structural edit changes the unfolding's arcs but not its instance
   ids ({!Unfolding.patch}), so the base rows remain a valid starting
   point over the patched unfolding: the seeds are its spliced and
   dropped arc instances plus every instance of a surviving arc whose
   delay changed (read from the base grouping). *)
let warm_structural ~deadline sc t ~arc_map ~changed_delays g' =
  let u', delta = Unfolding.patch ~deadline t.u g' ~arc_map in
  let sp = delta.Unfolding.pd_spliced and dr = delta.Unfolding.pd_dropped in
  Tsg_engine.Metrics.incr ~by:(Array.length sp) "whatif/instances_spliced";
  Tsg_engine.Metrics.incr ~by:(Array.length dr) "whatif/instances_dropped";
  let seeds pick grouped =
    Array.concat
      (Array.map pick sp :: Array.map pick dr :: List.map grouped changed_delays)
  in
  let delays = Unfolding.delays u' in
  let traces, stats =
    warm_traces ~deadline t sc u' ~delays
      ~seed_srcs:(seeds fst (fun a -> t.arc_inst_srcs.(a)))
      ~seed_dsts:(seeds snd (fun a -> t.arc_inst_dsts.(a)))
  in
  Tsg_engine.Metrics.incr "whatif/structural_warm";
  (* no [~delays] override: [u'] carries the edited graph natively *)
  let report =
    Cycle_time.Internal.finish ~deadline g' u' ~border:t.border ~periods:t.periods ~traces
  in
  (report, stats)

let reanalyze_changes ?deadline ?scratch:sc t changes =
  let deadline =
    match deadline with Some d -> d | None -> Tsg_engine.Deadline.current ()
  in
  Tsg_engine.Metrics.time_hist "whatif/reanalyze_ms" @@ fun () ->
  let args =
    if Tsg_obs.Trace.enabled () then
      [ ("edits", string_of_int (List.length changes)) ]
    else []
  in
  Tsg_obs.Trace.with_span "whatif_reanalyze" ~args @@ fun () ->
  match apply_changes t changes with
  | Ap_delay (delays, changed) ->
    if changed = [] then short_circuit t
    else begin
      let g' = Signal_graph.with_delays t.g delays in
      (* the digest guard catches exact repeats that the per-arc compare
         cannot see (distinct delay spellings with one canonical form) *)
      if Signal_graph.digest g' = t.digest then short_circuit t
      else begin
        match Tsg_obs.Failpoint.hit "whatif/warm" with
        | exception Tsg_obs.Failpoint.Injected _ ->
          (* warm path disabled by fault injection: fall back to a full
             cold analysis of the edited graph — same report, no reuse *)
          Tsg_engine.Metrics.incr "whatif/cold_fallbacks";
          cold ~deadline t g'
        | () ->
          let sc = match sc with Some s -> s | None -> scratch t in
          warm_delay ~deadline sc t ~delays ~changed g'
      end
    end
  | Ap_structural (g', arc_map, changed_delays) ->
    (* structural no-ops (remove+re-add of an identical arc table) are
       detected by literal arc-table equality, NOT by digest: the
       canonical form is declaration-order-insensitive, so a digest
       match could hide a permutation of arc ids — and arc ids appear
       in the report's critical walk *)
    if Signal_graph.arcs g' = Signal_graph.arcs t.g then short_circuit t
    else begin
      match Tsg_obs.Failpoint.hit "whatif/warm" with
      | exception Tsg_obs.Failpoint.Injected _ ->
        Tsg_engine.Metrics.incr "whatif/cold_fallbacks";
        Tsg_engine.Metrics.incr "whatif/structural_cold";
        cold ~deadline t g'
      | () ->
        if Cut_set.border g' <> t.border then begin
          (* the border set moved: the prepared roots, traces and
             per-root tables describe the wrong simulation set — the
             only sound warm answer is none at all *)
          Tsg_engine.Metrics.incr "whatif/structural_cold";
          cold ~deadline t g'
        end
        else begin
          let sc = match sc with Some s -> s | None -> scratch t in
          warm_structural ~deadline sc t ~arc_map ~changed_delays g'
        end
    end

let reanalyze ?deadline ?scratch t edits =
  reanalyze_changes ?deadline ?scratch t (List.map (fun e -> Delay e) edits)

(* ------------------------------------------------------------------ *)
(* Sweeps                                                              *)

let sweep_with ?deadline ?budget_ms ?(jobs = 1) t ~f scenarios =
  let outer =
    match deadline with Some d -> d | None -> Tsg_engine.Deadline.current ()
  in
  Parallel.map_claims ~jobs
    ~with_ctx:(fun k -> k (scratch t))
    ~f:(fun sc x ->
      f
        (fun changes ->
          (* each scenario gets its own budget (Batch semantics): one
             pathological edit times out alone instead of starving the
             sweep.  The caller's deadline still bounds the whole run. *)
          let d =
            match budget_ms with
            | None -> Tsg_engine.Deadline.none
            | Some ms -> Tsg_engine.Deadline.make ~budget_ms:ms ()
          in
          match
            Tsg_engine.Deadline.check outer;
            reanalyze_changes
              ~deadline:(if d == Tsg_engine.Deadline.none then outer else d)
              ~scratch:sc t changes
          with
          | result -> Ok result
          | exception Tsg_engine.Deadline.Deadline_exceeded ->
            Error
              (Tsg_engine.Deadline.error_message
                 (if Tsg_engine.Deadline.expired outer then outer else d))
          | exception Invalid_argument msg -> Error msg
          | exception Cycle_time.Not_analyzable msg ->
            Error (Printf.sprintf "not analyzable: %s" msg))
        x)
    scenarios

let sweep_changes ?deadline ?budget_ms ?jobs t scenarios =
  sweep_with ?deadline ?budget_ms ?jobs t ~f:(fun run changes -> run changes) scenarios

let sweep ?deadline ?budget_ms ?jobs t scenarios =
  sweep_changes ?deadline ?budget_ms ?jobs t
    (Array.map (List.map (fun e -> Delay e)) scenarios)
