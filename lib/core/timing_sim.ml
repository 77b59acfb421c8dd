type result = {
  time : float array;
  pred_instance : int array;
  pred_arc : int array;
  reached : bool array;
}

(* ------------------------------------------------------------------ *)
(* Scratch arenas                                                      *)

(* One arena per domain, so a domain keeps its arena across every
   query (and every analysis) it ever runs, plus a small free list of
   spares for the contended case: daemon systhreads sharing the domain
   would otherwise allocate a brand-new full-size arena on every
   collision.  The spare list is shared by those systhreads, hence its
   own lock (held for a few instructions only).  The stamped
   [Workspace] and the lane rows of [simulate_many] both live under
   this policy, each with its own slot. *)
module Per_domain (A : sig
  type t

  val create : int -> t
  val capacity : t -> int
  val ensure : t -> int -> unit
  val trim : t -> unit
  val lock : t -> Mutex.t
end) =
struct
  type slot = {
    mutable arena : A.t option;
    mutable spares : A.t list;
    spare_lock : Mutex.t;
  }

  let max_spares = 2

  let key : slot Domain.DLS.key =
    Domain.DLS.new_key (fun () ->
        { arena = None; spares = []; spare_lock = Mutex.create () })

  let take_spare slot =
    Mutex.lock slot.spare_lock;
    let r =
      match slot.spares with
      | [] -> None
      | a :: rest ->
        slot.spares <- rest;
        Some a
    in
    Mutex.unlock slot.spare_lock;
    r

  let put_spare slot a =
    A.trim a;
    Mutex.lock slot.spare_lock;
    if List.length slot.spares < max_spares then slot.spares <- a :: slot.spares;
    Mutex.unlock slot.spare_lock

  let fit a n =
    if A.capacity a >= n then Tsg_engine.Metrics.incr "kernel/arenas_reused"
    else begin
      A.ensure a n;
      Tsg_engine.Metrics.incr "kernel/arenas_created"
    end

  let release a =
    A.trim a;
    Mutex.unlock (A.lock a)

  let with_arena n f =
    let slot = Domain.DLS.get key in
    match slot.arena with
    | Some a when Mutex.try_lock (A.lock a) ->
      Fun.protect ~finally:(fun () -> release a) @@ fun () ->
      fit a n;
      f a
    | Some _ ->
      (* busy (nested query, or another thread of this domain): take a
         spare rather than waiting; the [kernel/arenas_fallback]
         counter makes this contention visible in [stats] *)
      Tsg_engine.Metrics.incr "kernel/arenas_fallback";
      let a =
        match take_spare slot with
        | Some a ->
          fit a n;
          a
        | None ->
          Tsg_engine.Metrics.incr "kernel/arenas_created";
          A.create n
      in
      Fun.protect ~finally:(fun () -> put_spare slot a) (fun () -> f a)
    | None ->
      let a = A.create n in
      Mutex.lock (A.lock a);
      slot.arena <- Some a;
      Tsg_engine.Metrics.incr "kernel/arenas_created";
      Fun.protect ~finally:(fun () -> release a) (fun () -> f a)
end

(* The single-root kernel below (full simulations, the backtrack's
   re-run) must not allocate: all per-query state
   lives in an epoch-stamped arena that is reused across queries.  A
   node is part of the current query iff its stamp equals the arena's
   epoch, so starting a new query is one integer increment — no
   clearing pass over any of the four arrays. *)
module Workspace = struct
  type t = {
    mutable time : float array;
    mutable pred_instance : int array;
    mutable pred_arc : int array;
    mutable stamp : int array;
    mutable epoch : int;
    lock : Mutex.t;
        (* the per-domain arena can be contended by systhreads (the
           serve daemon handles each connection on a thread of the
           accepting domain); [with_arena] takes it with [try_lock]
           and falls back to a spare arena instead of blocking *)
  }

  let resize t n =
    t.time <- Array.make n neg_infinity;
    t.pred_instance <- Array.make n (-1);
    t.pred_arc <- Array.make n (-1);
    t.stamp <- Array.make n 0;
    t.epoch <- 0

  let create n =
    let n = max n 1 in
    let t =
      {
        time = [||];
        pred_instance = [||];
        pred_arc = [||];
        stamp = [||];
        epoch = 0;
        lock = Mutex.create ();
      }
    in
    resize t n;
    t

  let capacity t = Array.length t.stamp

  let ensure t n = if capacity t < n then resize t n

  (* a very large analysis would otherwise pin four max-size arrays in
     every arena it ever touched, for the life of the domain; releasing
     shrinks back to this bound (256k instances ≈ 8 MiB of arrays) so
     retained memory stays bounded while ordinary workloads never pay a
     reallocation *)
  let retained_capacity = 1 lsl 18

  let trim t = if capacity t > retained_capacity then resize t retained_capacity

  let lock t = t.lock

  include Per_domain (struct
    type nonrec t = t

    let create = create
    let capacity = capacity
    let ensure = ensure
    let trim = trim
    let lock = lock
  end)
end


(* ------------------------------------------------------------------ *)
(* The fused, windowed kernel                                          *)

(* One pass over the topological suffix [from_pos ..]: reachability is
   decided during the relaxation itself (a node is reached iff it is a
   root or one of its in-arcs leaves a reached node), so the separate
   forward DFS of the old kernel — and its O(n) seen/stack arrays —
   are gone.  Each node is finalised the moment its topo position is
   scanned, which also gives the root test for free: only roots are
   stamped before their own visit.  Tie-breaking matches the old
   kernel exactly (first in-arc establishes, later arcs must strictly
   improve), so results are byte-identical. *)
(* cancellation granularity: the scan pauses for a deadline check
   every [check_block] topo positions, so the inner relaxation loop
   stays branch-free and the check cost is amortised to nothing *)
let check_block = 4096

let kernel ?(deadline = Tsg_engine.Deadline.none) ?delays (ws : Workspace.t) u ~roots
    ~from_pos =
  let topo = Unfolding.topological_order u in
  let starts, srcs, arc_ids = Unfolding.in_adjacency u in
  (* [delays] overrides the per-arc delays (same indexing: Signal-Graph
     arc id) without touching the unfolding — what-if re-analysis runs
     the kernel over the {e base} unfolding with edited delays *)
  let delays = match delays with Some d -> d | None -> Unfolding.delays u in
  ws.Workspace.epoch <- ws.Workspace.epoch + 1;
  let epoch = ws.Workspace.epoch in
  let time = ws.Workspace.time in
  let pred = ws.Workspace.pred_instance in
  let parc = ws.Workspace.pred_arc in
  let stamp = ws.Workspace.stamp in
  List.iter
    (fun r ->
      stamp.(r) <- epoch;
      time.(r) <- 0.;
      pred.(r) <- -1;
      parc.(r) <- -1)
    roots;
  let len = Array.length topo in
  let k0 = ref from_pos in
  while !k0 < len do
    Tsg_engine.Deadline.check deadline;
    let hi = min len (!k0 + check_block) in
    for k = !k0 to hi - 1 do
      let v = topo.(k) in
      if stamp.(v) <> epoch then
        for j = starts.(v) to starts.(v + 1) - 1 do
          let src = srcs.(j) in
          if stamp.(src) = epoch then begin
            let d = time.(src) +. delays.(arc_ids.(j)) in
            if stamp.(v) <> epoch || d > time.(v) then begin
              time.(v) <- d;
              pred.(v) <- src;
              parc.(v) <- arc_ids.(j);
              stamp.(v) <- epoch
            end
          end
        done
    done;
    k0 := hi
  done

(* copy the arena out into a caller-owned [result]; unreached
   instances get the historical defaults (time 0, predecessors -1) *)
let materialise (ws : Workspace.t) u =
  let n = Unfolding.instance_count u in
  let epoch = ws.Workspace.epoch in
  let stamp = ws.Workspace.stamp in
  let time = Array.make n 0. in
  let pred_instance = Array.make n (-1) in
  let pred_arc = Array.make n (-1) in
  let reached = Array.make n false in
  for v = 0 to n - 1 do
    if stamp.(v) = epoch then begin
      time.(v) <- ws.Workspace.time.(v);
      pred_instance.(v) <- ws.Workspace.pred_instance.(v);
      pred_arc.(v) <- ws.Workspace.pred_arc.(v);
      reached.(v) <- true
    end
  done;
  { time; pred_instance; pred_arc; reached }

(* ------------------------------------------------------------------ *)
(* Lane rows                                                           *)

(* [simulate_many] relaxes up to [lanes] roots in one pass: the times
   of a pass live in lane-major rows, instance [v] owning the [lanes]
   contiguous floats (64 bytes) from [v * lanes], so each in-arc's
   source, arc id and delay are loaded once for every lane.  The
   stride is fixed so the lane loop can be unrolled into register
   accumulators; a pass with fewer roots leaves its spare lanes at
   [neg_infinity], computed alongside in the same row.  The rows are
   a [Bigarray]: a long-lived arena of this size on the major heap
   inflates the GC's heap target (and with it peak RSS), an off-heap
   one does not. *)
type rows = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let lanes = 8

module Lanes = struct
  type t = { mutable rows : rows; lock : Mutex.t }

  let alloc n : rows = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * lanes)
  let create n = { rows = alloc n; lock = Mutex.create () }
  let capacity t = Bigarray.Array1.dim t.rows / lanes
  let ensure t n = if capacity t < n then t.rows <- alloc n

  (* released rows are dropped above the instance bound of
     [Workspace.retained_capacity] (16 MiB of rows): under it, a
     domain keeps its rows from analysis to analysis.  Dropping them at
     half that size made every gen-10k analysis (250k instances) fault
     in fresh rows, and its parallel simulate no faster than serial *)
  let retained_capacity = Workspace.retained_capacity

  let trim t = if capacity t > retained_capacity then t.rows <- alloc 0
  let lock t = t.lock

  include Per_domain (struct
    type nonrec t = t

    let create = create
    let capacity = capacity
    let ensure = ensure
    let trim = trim
    let lock = lock
  end)
end

(* One topological pass for the (at most [lanes]) roots [ats], sorted
   by topo position, one lane each.  Unreached is [neg_infinity]: an
   unreached source adds [neg_infinity] to a maximum, i.e. nothing, so
   no stamps are needed.  A lane's first reached in-arc sets its value
   and later arcs must be strictly greater, in the order of the
   single-root kernel, so every lane is bit-identical to [kernel] on
   its root.  A root's lane is forced to [0.] at the root's own
   position; rows before the lowest root are never relaxed and read
   [neg_infinity] in every lane.  No predecessors are tracked: callers
   only read times, and backtracking re-runs the one root it needs
   through [kernel]. *)
let lane_pass ~deadline ~(delays : float array) (rows : rows) u ~(ats : int array) =
  let topo = Unfolding.topological_order u in
  let pos = Unfolding.topo_position u in
  let starts, srcs, arc_ids = Unfolding.in_adjacency u in
  let len = Array.length topo in
  let from_pos = pos.(ats.(0)) in
  for k = 0 to from_pos - 1 do
    let b = topo.(k) * lanes in
    for l = 0 to lanes - 1 do
      Bigarray.Array1.unsafe_set rows (b + l) neg_infinity
    done
  done;
  let next = ref 0 in
  let k0 = ref from_pos in
  while !k0 < len do
    Tsg_engine.Deadline.check deadline;
    let hi = min len (!k0 + check_block) in
    for k = !k0 to hi - 1 do
      let v = topo.(k) in
      let t0 = ref neg_infinity and t1 = ref neg_infinity in
      let t2 = ref neg_infinity and t3 = ref neg_infinity in
      let t4 = ref neg_infinity and t5 = ref neg_infinity in
      let t6 = ref neg_infinity and t7 = ref neg_infinity in
      for j = starts.(v) to starts.(v + 1) - 1 do
        let s = srcs.(j) * lanes in
        let dl = delays.(arc_ids.(j)) in
        (* unrolled by hand: a local helper would capture the
           accumulators and box them *)
        let d = Bigarray.Array1.unsafe_get rows s +. dl in
        if d > !t0 then t0 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 1) +. dl in
        if d > !t1 then t1 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 2) +. dl in
        if d > !t2 then t2 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 3) +. dl in
        if d > !t3 then t3 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 4) +. dl in
        if d > !t4 then t4 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 5) +. dl in
        if d > !t5 then t5 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 6) +. dl in
        if d > !t6 then t6 := d;
        let d = Bigarray.Array1.unsafe_get rows (s + 7) +. dl in
        if d > !t7 then t7 := d
      done;
      let b = v * lanes in
      Bigarray.Array1.unsafe_set rows b !t0;
      Bigarray.Array1.unsafe_set rows (b + 1) !t1;
      Bigarray.Array1.unsafe_set rows (b + 2) !t2;
      Bigarray.Array1.unsafe_set rows (b + 3) !t3;
      Bigarray.Array1.unsafe_set rows (b + 4) !t4;
      Bigarray.Array1.unsafe_set rows (b + 5) !t5;
      Bigarray.Array1.unsafe_set rows (b + 6) !t6;
      Bigarray.Array1.unsafe_set rows (b + 7) !t7;
      while !next < Array.length ats && ats.(!next) = v do
        Bigarray.Array1.unsafe_set rows (b + !next) 0.;
        incr next
      done
    done;
    k0 := hi
  done

(* ------------------------------------------------------------------ *)
(* Borrowed views                                                      *)

type view = { rows : rows; lane : int; n : int }

let lane_time v i = Bigarray.Array1.unsafe_get v.rows ((i * lanes) + v.lane)

let view_time v i =
  if i < 0 || i >= v.n then 0.
  else
    let t = lane_time v i in
    if t = neg_infinity then 0. else t

let view_reached v i = i >= 0 && i < v.n && lane_time v i > neg_infinity

let view_blit v dst ~lane =
  if lane < 0 || lane >= lanes || Array.length dst < v.n * lanes then
    invalid_arg "Timing_sim.view_blit: lane out of range or destination too short";
  for i = 0 to v.n - 1 do
    Array.unsafe_set dst ((i * lanes) + lane) (lane_time v i)
  done

(* ------------------------------------------------------------------ *)
(* Observability                                                       *)

let observe_window u ~from_pos =
  let n = Unfolding.instance_count u in
  Tsg_engine.Metrics.incr ~by:(n - from_pos) "kernel/instances_scanned";
  Tsg_engine.Metrics.incr ~by:n "kernel/instances_total"

(* span arguments are only worth naming events for when someone is
   actually recording *)
let span_args u ~at ~from_pos =
  if Tsg_obs.Trace.enabled () then begin
    let event, period = Unfolding.event_of_instance u at in
    let n = Unfolding.instance_count u in
    [
      ("event", Event.to_string (Signal_graph.event (Unfolding.signal_graph u) event));
      ("period", string_of_int period);
      ("scanned", string_of_int (n - from_pos));
      ("total", string_of_int n);
    ]
  end
  else []

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)

let simulate ?deadline u =
  Tsg_engine.Metrics.incr "simulations/full";
  observe_window u ~from_pos:0;
  Tsg_obs.Trace.with_span "longest_paths" ~args:[ ("kind", "full") ] @@ fun () ->
  Workspace.with_arena (Unfolding.instance_count u) @@ fun ws ->
  kernel ?deadline ws u ~roots:(Unfolding.initial_instances u) ~from_pos:0;
  materialise ws u

let simulate_initiated ?deadline ?delays u ~at =
  let from_pos = (Unfolding.topo_position u).(at) in
  Tsg_engine.Metrics.incr "simulations/initiated";
  observe_window u ~from_pos;
  Workspace.with_arena (Unfolding.instance_count u) @@ fun ws ->
  Tsg_obs.Trace.with_span "longest_paths" ~args:(span_args u ~at ~from_pos) (fun () ->
      kernel ?deadline ?delays ws u ~roots:[ at ] ~from_pos);
  materialise ws u

let simulate_many ?(deadline = Tsg_engine.Deadline.none) ?(jobs = 1) u ~roots ~f =
  let delays = Unfolding.delays u in
  let nroots = Array.length roots in
  if nroots = 0 then [||]
  else begin
    let n = Unfolding.instance_count u in
    let pos = Unfolding.topo_position u in
    (* roots sorted by topo position and cut into passes of [lanes]: a
       pass scans from its lowest root, so neighbours share a window,
       and passes come heaviest (lowest start) first — the claim order
       of [map_claims] *)
    let rank = Array.init nroots Fun.id in
    Array.stable_sort (fun a b -> compare pos.(roots.(a)) pos.(roots.(b))) rank;
    let batches =
      Array.init ((nroots + lanes - 1) / lanes) (fun p ->
          Array.sub rank (p * lanes) (min lanes (nroots - (p * lanes))))
    in
    let run rows batch =
      let ats = Array.map (fun i -> roots.(i)) batch in
      let from_pos = pos.(ats.(0)) in
      (* the counters keep their per-root meaning: a pass accounts
         each lane as the single-root scan from that lane's root *)
      Tsg_engine.Metrics.incr ~by:(Array.length ats) "simulations/initiated";
      Array.iter (fun at -> observe_window u ~from_pos:pos.(at)) ats;
      let args =
        if Tsg_obs.Trace.enabled () then
          [
            ("roots", string_of_int (Array.length ats));
            ("scanned", string_of_int (n - from_pos));
            ("total", string_of_int n);
          ]
        else []
      in
      Tsg_obs.Trace.with_span "longest_paths" ~args (fun () ->
          lane_pass ~deadline ~delays rows u ~ats);
      let out = Array.mapi (fun lane at -> f at { rows; lane; n }) ats in
      (* a deadline tripped inside [f] fails this pass, not just the
         passes still unclaimed *)
      Tsg_engine.Deadline.check deadline;
      out
    in
    (* the deadline is shared by every participant: each raises at its
       next check, and Parallel.map_claims propagates the smallest
       failing index after all claims settle — the pool itself stays
       healthy and reusable *)
    let results =
      Parallel.map_claims ~jobs
        ~with_ctx:(fun k -> Lanes.with_arena n (fun l -> k l.Lanes.rows))
        ~f:run batches
    in
    let out = Array.make nroots results.(0).(0) in
    Array.iteri (fun s i -> out.(i) <- results.(s / lanes).(s mod lanes)) rank;
    out
  end

(* ------------------------------------------------------------------ *)
(* Derived quantities                                                  *)

let occurrence_times u r ~event =
  let sg = Unfolding.signal_graph u in
  let k = if Signal_graph.is_repetitive sg event then Unfolding.periods u else 1 in
  Array.init k (fun period -> r.time.(Unfolding.instance u ~event ~period))

let average_occurrence_distance u r ~event ~period =
  r.time.(Unfolding.instance u ~event ~period) /. float_of_int (period + 1)

let initiated_average_distance u r ~event ~period =
  if period = 0 then
    invalid_arg "Timing_sim.initiated_average_distance: period must be > 0";
  r.time.(Unfolding.instance u ~event ~period) /. float_of_int period

let critical_path _u r ~instance =
  let rec back v acc =
    let entering =
      if r.pred_instance.(v) < 0 then None else Some r.pred_arc.(v)
    in
    let acc = (v, entering) :: acc in
    if r.pred_instance.(v) < 0 then acc else back r.pred_instance.(v) acc
  in
  back instance []
