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
  (* per border index: time per instance, [neg_infinity] where the
     root's simulation does not reach *)
  base_times : float array array;
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
  let captures =
    Timing_sim.simulate_many ~deadline ~jobs u ~roots ~f:(fun at view ->
        let g0, _ = Unfolding.event_of_instance u at in
        let times =
          Array.init n (fun i ->
              if Timing_sim.view_reached view i then Timing_sim.view_time view i
              else neg_infinity)
        in
        let trace =
          Cycle_time.Internal.trace_of_times
            (fun i -> Timing_sim.view_time view i)
            u periods g0
        in
        (times, trace))
  in
  let base_times = Array.map fst captures in
  let base_traces = Array.map snd captures in
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
    base_times;
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
(* The warm kernel: incremental longest-path repair.

   For an affected root r, the base run left t_r(v) for every instance
   v.  A delay edit can only move the times of instances downstream of
   an edited arc instance whose source is reachable from r, so the
   repair marks exactly those destinations dirty and relaxes in
   topological-position order:

     t'_r(v) = max { t'_r(s) + d'(a) | s -a-> v, s reached from r }

   Relaxing a position only ever dirties {e larger} positions (the
   unfolding is a DAG ordered by [topological_order]), so a single
   monotone scan from the smallest dirty position visits every dirty
   node exactly once, after all its predecessors — no priority queue,
   no log factor, and the clean gaps between dirty nodes cost one
   epoch-stamp comparison each.  The scan stops as soon as no marks
   remain ahead, so an edit with slack touches a handful of instances,
   not the window; and even a global change costs one kernel-like
   sweep over the window.  Reached sets never change (topology-only),
   and the recomputed max ranges over the same operand multiset as a
   cold kernel run with the edited delays, so the repaired times are
   bit-for-bit equal to a cold re-simulation. *)

type scratch = {
  s_new : float array;  (* repaired times, valid where stamped *)
  s_stamp : int array;
  mutable s_epoch : int;
  s_dirty : int array;  (* dirty-this-epoch marker, per topo position *)
}

let scratch t =
  let n = Unfolding.instance_count t.u in
  {
    s_new = Array.make n 0.;
    s_stamp = Array.make n 0;
    s_epoch = 0;
    s_dirty = Array.make n 0;
  }

(* is any instance of a changed arc live in root [idx]'s simulation?
   (its destinations are then exactly the dirty seeds) *)
let affected t ~idx changed =
  let bt = t.base_times.(idx) in
  List.exists
    (fun a -> Array.exists (fun s -> bt.(s) > neg_infinity) t.arc_inst_srcs.(a))
    changed

let resim ~deadline t sc ~idx ~delays changed =
  let u = t.u in
  let topo = Unfolding.topological_order u in
  let pos = Unfolding.topo_position u in
  let in_starts, in_srcs, in_arcs = Unfolding.in_adjacency u in
  let out_starts, out_dsts, _ = Unfolding.out_adjacency u in
  let bt = t.base_times.(idx) in
  sc.s_epoch <- sc.s_epoch + 1;
  let epoch = sc.s_epoch in
  let stamp = sc.s_stamp in
  let nw = sc.s_new in
  let dirty = sc.s_dirty in
  let pending = ref 0 in
  let lo = ref max_int in
  (* every dirty seed lies strictly after the root in the topological
     order (its source is reached, so its own position is larger
     still), hence the root's time-0 anchor is never recomputed *)
  List.iter
    (fun a ->
      let ss = t.arc_inst_srcs.(a) in
      let ds = t.arc_inst_dsts.(a) in
      for k = 0 to Array.length ss - 1 do
        if Array.unsafe_get bt (Array.unsafe_get ss k) > neg_infinity then begin
          let p = Array.unsafe_get pos (Array.unsafe_get ds k) in
          if Array.unsafe_get dirty p <> epoch then begin
            Array.unsafe_set dirty p epoch;
            incr pending;
            if p < !lo then lo := p
          end
        end
      done)
    changed;
  (* relaxing position k can only mark positions > k, and the scan has
     already consumed every mark <= k, so each dirty node is visited
     once, after all its predecessors settled.  The indices below are
     structurally in-bounds (CSR arrays and permutations built by
     Unfolding over [0, n)), so the hot loop reads unchecked. *)
  let steps = ref 0 in
  let k = ref !lo in
  while !pending > 0 do
    if !k land 8191 = 0 then Tsg_engine.Deadline.check deadline;
    (if Array.unsafe_get dirty !k = epoch then begin
       decr pending;
       incr steps;
       let v = Array.unsafe_get topo !k in
       let nt = ref neg_infinity in
       let j1 = Array.unsafe_get in_starts (v + 1) - 1 in
       for j = Array.unsafe_get in_starts v to j1 do
         let s = Array.unsafe_get in_srcs j in
         let ts =
           if Array.unsafe_get stamp s = epoch then Array.unsafe_get nw s
           else Array.unsafe_get bt s
         in
         let d = ts +. Array.unsafe_get delays (Array.unsafe_get in_arcs j) in
         if d > !nt then nt := d
       done;
       if !nt <> Array.unsafe_get bt v then begin
         Array.unsafe_set stamp v epoch;
         Array.unsafe_set nw v !nt;
         let j1 = Array.unsafe_get out_starts (v + 1) - 1 in
         for j = Array.unsafe_get out_starts v to j1 do
           let p = Array.unsafe_get pos (Array.unsafe_get out_dsts j) in
           if Array.unsafe_get dirty p <> epoch then begin
             Array.unsafe_set dirty p epoch;
             incr pending
           end
         done
       end
     end);
    incr k
  done;
  Tsg_engine.Metrics.incr ~by:!steps "whatif/instances_repaired"

(* ------------------------------------------------------------------ *)
(* The structural warm kernel.

   A structural edit changes the unfolding's arcs but not its instance
   ids ({!Unfolding.patch}), so the base run's per-root times and
   reachability remain a valid {e starting point}: only instances
   downstream of a spliced, dropped or delay-edited arc instance can
   move.  The repair is the same monotone position scan as the delay
   kernel, over the {e patched} dag's CSR views and topological order,
   with one extension: reachability can now flip in both directions,
   so the scan recomputes (reached, time) jointly — one value, since
   an unreached instance holds [neg_infinity].  [reported] maps that
   to the [0.] a cold simulation's view reports for unreached
   instances, so the repaired tables serialise identically to a cold
   run of the edited graph. *)

(* does root [idx]'s base simulation reach the source of any seed arc
   instance?  If not, nothing in its table can move and the base trace
   is reused verbatim.  (A dropped arc whose source was unreached
   contributed nothing before and nothing after; a spliced arc whose
   source is unreached stays dormant — its source's own reachability
   is root-independent of the arcs leaving it.) *)
let structural_affected t ~idx seeds =
  let bt = t.base_times.(idx) in
  Array.exists (fun (s, _) -> bt.(s) > neg_infinity) seeds

let resim_structural ~deadline t sc ~idx u' ~seeds =
  let topo = Unfolding.topological_order u' in
  let pos = Unfolding.topo_position u' in
  let in_starts, in_srcs, in_arcs = Unfolding.in_adjacency u' in
  let out_starts, out_dsts, _ = Unfolding.out_adjacency u' in
  let delays = Unfolding.delays u' in
  let bt = t.base_times.(idx) in
  let root = t.roots.(idx) in
  sc.s_epoch <- sc.s_epoch + 1;
  let epoch = sc.s_epoch in
  let stamp = sc.s_stamp in
  let nw = sc.s_new in
  let dirty = sc.s_dirty in
  let pending = ref 0 in
  let lo = ref max_int in
  (* seeds: destinations of every spliced, dropped or delay-edited arc
     instance whose source the base run reached.  The root's time-0
     anchor is never recomputed (a root is reached by fiat, and its
     in-arcs never matter), so a seed landing on it is skipped. *)
  Array.iter
    (fun (s, d) ->
      if d <> root && Array.unsafe_get bt s > neg_infinity then begin
        let p = Array.unsafe_get pos d in
        if Array.unsafe_get dirty p <> epoch then begin
          Array.unsafe_set dirty p epoch;
          incr pending;
          if p < !lo then lo := p
        end
      end)
    seeds;
  let steps = ref 0 in
  let k = ref !lo in
  while !pending > 0 do
    if !k land 8191 = 0 then Tsg_engine.Deadline.check deadline;
    (if Array.unsafe_get dirty !k = epoch then begin
       decr pending;
       incr steps;
       let v = Array.unsafe_get topo !k in
       if v <> root then begin
         (* unreached sources hold [neg_infinity] and drop out of the
            maximum, so [nt] stays [neg_infinity] exactly when [v]
            becomes unreached *)
         let nt = ref neg_infinity in
         let j1 = Array.unsafe_get in_starts (v + 1) - 1 in
         for j = Array.unsafe_get in_starts v to j1 do
           let s = Array.unsafe_get in_srcs j in
           let ts =
             if Array.unsafe_get stamp s = epoch then Array.unsafe_get nw s
             else Array.unsafe_get bt s
           in
           let d = ts +. Array.unsafe_get delays (Array.unsafe_get in_arcs j) in
           if d > !nt then nt := d
         done;
         if !nt <> Array.unsafe_get bt v then begin
           Array.unsafe_set stamp v epoch;
           Array.unsafe_set nw v !nt;
           let j1 = Array.unsafe_get out_starts (v + 1) - 1 in
           for j = Array.unsafe_get out_starts v to j1 do
             let p = Array.unsafe_get pos (Array.unsafe_get out_dsts j) in
             if Array.unsafe_get dirty p <> epoch then begin
               Array.unsafe_set dirty p epoch;
               incr pending
             end
           done
         end
       end
     end);
    incr k
  done;
  Tsg_engine.Metrics.incr ~by:!steps "whatif/instances_repaired"

(* ------------------------------------------------------------------ *)
(* Re-analysis                                                         *)

let short_circuit t =
  let b = Array.length t.border_arr in
  Tsg_engine.Metrics.incr "whatif/short_circuits";
  Tsg_engine.Metrics.incr ~by:b "whatif/reused";
  (t.base, { reused = b; resimulated = 0; path = Short_circuit })

(* a full cold analysis of the edited graph: the fallback whenever the
   warm kernels cannot (or are told not to) answer *)
let cold ~deadline t g' =
  let report = Cycle_time.analyze ~deadline ~periods:t.periods g' in
  (report, { reused = 0; resimulated = Array.length t.border_arr; path = Cold })

let warm_delay ~deadline sc t ~delays ~changed g' =
  let reused = ref 0 in
  let resimulated = ref 0 in
  let traces_arr =
    Array.mapi
      (fun i g0 ->
        Tsg_engine.Deadline.check deadline;
        if not (affected t ~idx:i changed) then begin
          incr reused;
          t.base_traces.(i)
        end
        else begin
          incr resimulated;
          resim ~deadline t sc ~idx:i ~delays changed;
          let epoch = sc.s_epoch in
          let bt = t.base_times.(i) in
          let time_of v =
            reported (if sc.s_stamp.(v) = epoch then sc.s_new.(v) else bt.(v))
          in
          Cycle_time.Internal.trace_of_times time_of t.u t.periods g0
        end)
      t.border_arr
  in
  Tsg_engine.Metrics.incr ~by:!reused "whatif/reused";
  Tsg_engine.Metrics.incr ~by:!resimulated "whatif/resimulated";
  let report =
    Cycle_time.Internal.finish ~deadline ~delays g' t.u ~border:t.border
      ~periods:t.periods
      ~traces:(Array.to_list traces_arr)
  in
  (report, { reused = !reused; resimulated = !resimulated; path = Warm })

let warm_structural ~deadline sc t ~arc_map ~changed_delays g' =
  let u', delta = Unfolding.patch ~deadline t.u g' ~arc_map in
  let sp = delta.Unfolding.pd_spliced and dr = delta.Unfolding.pd_dropped in
  Tsg_engine.Metrics.incr ~by:(Array.length sp) "whatif/instances_spliced";
  Tsg_engine.Metrics.incr ~by:(Array.length dr) "whatif/instances_dropped";
  (* delay edits on surviving arcs join the seed set: their instance
     pairs are read from the base grouping (instance ids are stable) *)
  let delay_seeds =
    List.concat_map
      (fun a ->
        let ss = t.arc_inst_srcs.(a) and ds = t.arc_inst_dsts.(a) in
        Array.to_list (Array.map2 (fun s d -> (s, d)) ss ds))
      changed_delays
  in
  let seeds = Array.concat [ sp; dr; Array.of_list delay_seeds ] in
  let reused = ref 0 in
  let resimulated = ref 0 in
  let traces_arr =
    Array.mapi
      (fun i g0 ->
        Tsg_engine.Deadline.check deadline;
        if not (structural_affected t ~idx:i seeds) then begin
          incr reused;
          t.base_traces.(i)
        end
        else begin
          incr resimulated;
          resim_structural ~deadline t sc ~idx:i u' ~seeds;
          let epoch = sc.s_epoch in
          let bt = t.base_times.(i) in
          let time_of v =
            reported (if sc.s_stamp.(v) = epoch then sc.s_new.(v) else bt.(v))
          in
          Cycle_time.Internal.trace_of_times time_of u' t.periods g0
        end)
      t.border_arr
  in
  Tsg_engine.Metrics.incr ~by:!reused "whatif/reused";
  Tsg_engine.Metrics.incr ~by:!resimulated "whatif/resimulated";
  Tsg_engine.Metrics.incr "whatif/structural_warm";
  (* no [~delays] override: [u'] carries the edited graph natively *)
  let report =
    Cycle_time.Internal.finish ~deadline g' u' ~border:t.border ~periods:t.periods
      ~traces:(Array.to_list traces_arr)
  in
  (report, { reused = !reused; resimulated = !resimulated; path = Warm })

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
