type csr = { starts : int array; neighbors : int array; arc_ids : int array }

(* the instance space: it depends only on the event set, the event
   classes and the period count — never on the arc table *)
type layout = {
  k : int; (* number of periods *)
  n_events : int;
  n_instances : int;
  rep_index : int array; (* event id -> dense repetitive index, or -1 *)
  rep_ids : int array; (* dense repetitive index -> event id *)
}

(* every view is a plain array computed by [make] (or [patch]) and
   shared read-only from then on: compact adjacency and a topological
   order are what keep the O(b^2 m) algorithm's constant factor small *)
type t = {
  sg : Signal_graph.t;
  lay : layout;
  in_csr : csr;
  out_csr : csr;
  topo : int array;
  topo_pos : int array;
  delay_table : float array;
}

let instance_id lay ~event ~period =
  if period = 0 then event
  else lay.n_events + ((period - 1) * Array.length lay.rep_ids) + lay.rep_index.(event)

(* The instance pairs an arc induces form one strided run.  A
   Signal-Graph arc [u -> v] with marking [m] induces [u_(i-m) -> v_i]
   for the valid [i]; a disengageable arc (or one whose source is
   non-repetitive) induces only [u_0 -> v_m].  Beyond period 0 an
   instance id advances by the repetitive count [r] per period, so
   pair [j] of the run is [(s0, d0)] for [j = 0] and
   [(sb + j*r, db + j*r)] for [j >= 1]: [arc_run] returns
   [(n, s0, d0, sb, db)] in closed form, and every consumer walks the
   run with a plain loop.  Pairs come in period order, which is the
   generation order the CSR layout is defined by. *)
let arc_run lay (a : Signal_graph.arc) =
  let r = Array.length lay.rep_ids in
  let m = if a.marked then 1 else 0 in
  let src_rep = lay.rep_index.(a.arc_src) >= 0 in
  let dst_rep = lay.rep_index.(a.arc_dst) >= 0 in
  let n =
    if a.disengageable || not src_rep then Bool.to_int (m = 0 || (m < lay.k && dst_rep))
    else max 0 ((if dst_rep then lay.k else 1) - m)
  in
  if n = 0 then (0, 0, 0, 0, 0)
  else
    ( n,
      a.arc_src,
      instance_id lay ~event:a.arc_dst ~period:m,
      lay.n_events + lay.rep_index.(a.arc_src) - r,
      lay.n_events + lay.rep_index.(a.arc_dst) + ((m - 1) * r) )

(* the CSR views of the unfolding of [arcs] over [lay], built straight
   from the arc table.  The layout is fixed: the out-slice of a source
   lists its arc instances in generation order (arc id ascending, then
   period ascending), and the in-CSR is the stable counting sort of
   that out-sequence by destination.  Backtracking breaks longest-path
   ties by adjacency order, so this layout is part of what makes
   reports reproducible — [make] and [patch] share this function,
   which is what makes a patched unfolding's views byte-identical to a
   cold one's.  Construction is O(periods * arcs); the deadline is
   checked at amortised intervals so a pathological (huge-period)
   unfolding stays within its budget. *)
let build_csrs ~deadline lay arcs =
  let total = lay.n_instances in
  let r = Array.length lay.rep_ids in
  let runs = Array.map (arc_run lay) arcs in
  let out_starts = Array.make (total + 1) 0 in
  let in_starts = Array.make (total + 1) 0 in
  let m = ref 0 in
  Array.iter
    (fun (n, s0, d0, sb, db) ->
      if (!m + n) lsr 13 <> !m lsr 13 then Tsg_engine.Deadline.check deadline;
      m := !m + n;
      for j = 0 to n - 1 do
        let s = if j = 0 then s0 else sb + (j * r) in
        let d = if j = 0 then d0 else db + (j * r) in
        out_starts.(s + 1) <- out_starts.(s + 1) + 1;
        in_starts.(d + 1) <- in_starts.(d + 1) + 1
      done)
    runs;
  let m = !m in
  for v = 1 to total do
    out_starts.(v) <- out_starts.(v) + out_starts.(v - 1);
    in_starts.(v) <- in_starts.(v) + in_starts.(v - 1)
  done;
  let out_dsts = Array.make (max m 1) 0 in
  let out_aids = Array.make (max m 1) 0 in
  let fill = Array.sub out_starts 0 total in
  Array.iteri
    (fun aid (n, s0, d0, sb, db) ->
      for j = 0 to n - 1 do
        let s = if j = 0 then s0 else sb + (j * r) in
        let p = fill.(s) in
        fill.(s) <- p + 1;
        out_dsts.(p) <- (if j = 0 then d0 else db + (j * r));
        out_aids.(p) <- aid
      done)
    runs;
  let in_srcs = Array.make (max m 1) 0 in
  let in_aids = Array.make (max m 1) 0 in
  let fill = Array.sub in_starts 0 total in
  for s = 0 to total - 1 do
    for p = out_starts.(s) to out_starts.(s + 1) - 1 do
      let d = out_dsts.(p) in
      let q = fill.(d) in
      fill.(d) <- q + 1;
      in_srcs.(q) <- s;
      in_aids.(q) <- out_aids.(p)
    done
  done;
  Tsg_engine.Metrics.incr ~by:m "unfolding/arc_instances";
  ( { starts = in_starts; neighbors = in_srcs; arc_ids = in_aids },
    { starts = out_starts; neighbors = out_dsts; arc_ids = out_aids } )

(* A topological order built period by period.  Every arc instance
   stays inside its period or moves to a later one (the marking is 0
   or 1), and period ids are laid out period-major, so the order of
   period 0 followed by the order of each later period is valid.  The
   arcs inside period 0 are the unmarked ones; inside any later period
   they are the unmarked arcs between repetitive events that are not
   disengageable — the same set for every period, whose order is
   therefore computed once and repeated with a stride of [r].

   Within a period the Kahn pass emits the smallest ready id first.
   That makes the whole order the smallest-id-first order of the
   unfolding (period-major ids: a ready instance of the earliest
   unfinished period always exists and beats every later one), so the
   order — and with it each root's topo position, hence the windowed
   kernel's scan counts — is fixed by the graph alone.  The ready set
   spans one period's events, not the instance space. *)
module Ready = Set.Make (Int)

let period_order ~nodes ~node_of ~arcs ~inside =
  let succ = Array.make nodes [] in
  let indeg = Array.make nodes 0 in
  Array.iter
    (fun (a : Signal_graph.arc) ->
      if inside a then begin
        let u = node_of a.arc_src and v = node_of a.arc_dst in
        succ.(u) <- v :: succ.(u);
        indeg.(v) <- indeg.(v) + 1
      end)
    arcs;
  let ready = ref Ready.empty in
  for v = nodes - 1 downto 0 do
    if indeg.(v) = 0 then ready := Ready.add v !ready
  done;
  let order = Array.make nodes 0 in
  let next = ref 0 in
  while not (Ready.is_empty !ready) do
    let v = Ready.min_elt !ready in
    ready := Ready.remove v !ready;
    order.(!next) <- v;
    incr next;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then ready := Ready.add w !ready)
      succ.(v)
  done;
  if !next < nodes then
    invalid_arg "Unfolding: a token-free cycle has no topological order";
  order

let periodic_order lay sg =
  let arcs = Signal_graph.arcs sg in
  let r = Array.length lay.rep_ids in
  let first =
    period_order ~nodes:lay.n_events ~node_of:Fun.id ~arcs ~inside:(fun a ->
        not a.Signal_graph.marked)
  in
  let later =
    if lay.k = 1 then [||]
    else
      period_order ~nodes:r
        ~node_of:(fun e -> lay.rep_index.(e))
        ~arcs
        ~inside:(fun (a : Signal_graph.arc) ->
          (not a.marked) && (not a.disengageable)
          && lay.rep_index.(a.arc_src) >= 0
          && lay.rep_index.(a.arc_dst) >= 0)
  in
  let topo = Array.make lay.n_instances 0 in
  let pos = Array.make lay.n_instances 0 in
  Array.iteri
    (fun k v ->
      topo.(k) <- v;
      pos.(v) <- k)
    first;
  for p = 1 to lay.k - 1 do
    let base = lay.n_events + ((p - 1) * r) in
    for j = 0 to r - 1 do
      let v = base + later.(j) in
      topo.(base + j) <- v;
      pos.(v) <- base + j
    done
  done;
  (topo, pos)

let delay_table sg =
  Array.map (fun (a : Signal_graph.arc) -> a.Signal_graph.delay) (Signal_graph.arcs sg)

let build ~deadline sg lay =
  let in_csr, out_csr = build_csrs ~deadline lay (Signal_graph.arcs sg) in
  let topo, topo_pos = periodic_order lay sg in
  { sg; lay; in_csr; out_csr; topo; topo_pos; delay_table = delay_table sg }

let make ?(deadline = Tsg_engine.Deadline.none) sg ~periods =
  if periods < 1 then invalid_arg "Unfolding.make: periods must be >= 1";
  Tsg_obs.Trace.with_span "unfolding/make" ~args:[ ("periods", string_of_int periods) ]
  @@ fun () ->
  let n_events = Signal_graph.event_count sg in
  let rep_index = Array.make (max n_events 1) (-1) in
  let rep_ids = Array.of_list (Signal_graph.repetitive_events sg) in
  Array.iteri (fun i e -> rep_index.(e) <- i) rep_ids;
  let total = n_events + ((periods - 1) * Array.length rep_ids) in
  let lay = { k = periods; n_events; n_instances = total; rep_index; rep_ids } in
  let t = build ~deadline sg lay in
  Tsg_engine.Metrics.incr "unfolding/built";
  Tsg_engine.Metrics.incr ~by:total "unfolding/instances";
  t

let signal_graph t = t.sg
let periods t = t.lay.k
let instance_count t = t.lay.n_instances

let instance_opt t ~event ~period =
  let lay = t.lay in
  if event < 0 || event >= lay.n_events || period < 0 || period >= lay.k then None
  else if period > 0 && lay.rep_index.(event) < 0 then None
  else Some (instance_id lay ~event ~period)

let instance t ~event ~period =
  match instance_opt t ~event ~period with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Unfolding.instance: no instance of event %d in period %d" event
         period)

let event_of_instance t i =
  let lay = t.lay in
  if i < lay.n_events then (i, 0)
  else begin
    let r = Array.length lay.rep_ids in
    let off = i - lay.n_events in
    (lay.rep_ids.(off mod r), 1 + (off / r))
  end

(* ------------------------------------------------------------------ *)
(* Compact views                                                       *)

let in_adjacency t = (t.in_csr.starts, t.in_csr.neighbors, t.in_csr.arc_ids)
let out_adjacency t = (t.out_csr.starts, t.out_csr.neighbors, t.out_csr.arc_ids)

let initial_instances t =
  (* an instance is initial iff it has no in-arc, i.e. its slice of
     the in-CSR is empty *)
  let starts = t.in_csr.starts in
  let result = ref [] in
  for i = instance_count t - 1 downto 0 do
    if starts.(i + 1) = starts.(i) then result := i :: !result
  done;
  !result

let topological_order t = t.topo
let topo_position t = t.topo_pos
let delays t = t.delay_table
let warm_caches (_ : t) = ()

(* ------------------------------------------------------------------ *)
(* Structural patching                                                 *)

type patch_delta = {
  pd_spliced : (int * int) array;
  pd_dropped : (int * int) array;
}

(* The load-bearing simplification: [instance_id] depends only on the
   layout — never on the arc table.  An arc-level edit
   (add/remove/marking flip) therefore keeps every instance id stable;
   only the DAG's arcs change, and the patched unfolding is the cold
   construction of the edited graph over the base layout. *)
let patch ?(deadline = Tsg_engine.Deadline.none) t g' ~arc_map =
  let lay = t.lay in
  if Signal_graph.event_count g' <> lay.n_events then
    invalid_arg "Unfolding.patch: the edited graph has a different event set";
  for e = 0 to lay.n_events - 1 do
    if Signal_graph.class_of g' e <> Signal_graph.class_of t.sg e then
      invalid_arg "Unfolding.patch: the edited graph changes an event class"
  done;
  let arcs_old = Signal_graph.arcs t.sg in
  let arcs_new = Signal_graph.arcs g' in
  if Array.length arc_map <> Array.length arcs_old then
    invalid_arg "Unfolding.patch: arc_map length differs from the base arc count";
  Tsg_obs.Trace.with_span "unfolding/patch" @@ fun () ->
  (* diff the instance sets through [arc_map]: a surviving arc with
     unchanged marking/disengageability instantiates identically; a
     flipped one regenerates (old instances dropped, new spliced); an
     unmapped base arc drops its cone seeds; a new arc with no
     preimage splices fresh instances *)
  let dropped = ref [] and spliced = ref [] in
  let note acc a =
    let n, s0, d0, sb, db = arc_run lay a in
    let r = Array.length lay.rep_ids in
    for j = 0 to n - 1 do
      acc := (if j = 0 then (s0, d0) else (sb + (j * r), db + (j * r))) :: !acc
    done
  in
  let mapped = Array.make (max (Array.length arcs_new) 1) false in
  Array.iteri
    (fun a a' ->
      if a' < 0 then note dropped arcs_old.(a)
      else begin
        let old_a = arcs_old.(a) and new_a = arcs_new.(a') in
        if old_a.Signal_graph.arc_src <> new_a.Signal_graph.arc_src
           || old_a.Signal_graph.arc_dst <> new_a.Signal_graph.arc_dst then
          invalid_arg "Unfolding.patch: arc_map changes an arc's endpoints";
        mapped.(a') <- true;
        if old_a.Signal_graph.marked <> new_a.Signal_graph.marked
           || old_a.Signal_graph.disengageable <> new_a.Signal_graph.disengageable
        then begin
          note dropped old_a;
          note spliced new_a
        end
      end)
    arc_map;
  Array.iteri (fun a' arc -> if not mapped.(a') then note spliced arc) arcs_new;
  let t' = build ~deadline g' lay in
  Tsg_engine.Metrics.incr "unfolding/patched";
  (t', { pd_spliced = Array.of_list !spliced; pd_dropped = Array.of_list !dropped })

let pp_instance t ppf i =
  let e, p = event_of_instance t i in
  Fmt.pf ppf "%a@@%d" Event.pp (Signal_graph.event t.sg e) p
