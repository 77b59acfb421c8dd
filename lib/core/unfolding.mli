(** Unfolding of a Timed Signal Graph (Section III.B).

    The unfolding is an acyclic process in which every node is a single
    instantiation [e_i] of an event [e] of the Signal Graph.  Period 0
    contains the first instantiation of every event; period [i > 0]
    contains the [i+1]-th instantiations of the repetitive events only.

    Arcs: a Signal-Graph arc [u -> v] with marking [m] induces the
    unfolding arcs [u_(i-m) -> v_i] for all valid [i]; if the arc is
    disengageable (or its source is non-repetitive) it induces only the
    single arc [u_0 -> v_m].  Arcs with [i - m < 0] impose no
    constraint: their token is part of the initial activity.

    Instances are addressed by dense integer ids.  The set [I_u] of
    initial events of the unfolding (the events from [I] plus the
    events whose in-arcs are all initially active) coincides with the
    set of instances that have no in-arc. *)

type t

val make : ?deadline:Tsg_engine.Deadline.t -> Signal_graph.t -> periods:int -> t
(** [make g ~periods:k] materialises periods [0 .. k-1]: the CSR views
    and the topological order below, all at once.  The adjacency is
    built straight from the arc table — each arc's instances are one
    run with a fixed per-period stride — and the order period by
    period, from one small Kahn pass over a single period's arcs.
    [deadline] is checked at amortised intervals during arc
    construction (which is [O(k * arcs)]).
    @raise Invalid_argument if [k < 1].
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val signal_graph : t -> Signal_graph.t
val periods : t -> int

val instance_count : t -> int
(** Total number of instances. *)

val instance : t -> event:int -> period:int -> int
(** The instance id of [event] in [period].
    @raise Invalid_argument if the instance does not exist (period out
    of range, or a non-repetitive event in a period [> 0]). *)

val instance_opt : t -> event:int -> period:int -> int option

val event_of_instance : t -> int -> int * int
(** [(event id, period)] of an instance. *)

val initial_instances : t -> int list
(** The instances of [I_u]: those with no in-arcs, ascending.
    Derived from the in-adjacency ({!in_adjacency}). *)

(** {1 Compact views}

    The arrays below are computed once per unfolding, by {!make} or
    {!patch}, and shared (do not mutate them).  They are what keeps the
    O(b^2 m) algorithm's constant factor small.  An unfolding is
    therefore a read-only value, safe to read from several domains at
    once. *)

val in_adjacency : t -> int array * int array * int array
(** [(starts, srcs, arc_ids)] in CSR form: the in-arcs of instance [v]
    are the entries [starts.(v) .. starts.(v+1) - 1], each labelled
    with the id of the Signal-Graph arc it instantiates.  The slice
    order is fixed — by source instance, then arc id — and
    longest-path tie-breaking depends on it. *)

val out_adjacency : t -> int array * int array * int array
(** Same, for out-arcs: [(starts, dsts, arc_ids)]; a slice lists its
    arc instances by arc id. *)

val topological_order : t -> int array
(** A topological order of the instances: every arc instance goes
    forward in it, which is all the simulations need — any valid order
    gives the same occurrence times.  {!make} and {!patch} build the
    smallest-id-first order, which fixes each root's scan window and
    with it the exact kernel work counters. *)

val topo_position : t -> int array
(** The inverse permutation of {!topological_order}:
    [topo_position u.(v)] is the index of instance [v] in the order.
    An instance can only reach instances at strictly larger positions,
    which is what lets a [g]-initiated simulation skip the whole
    prefix before [g]'s position (the windowed kernel of
    {!Timing_sim}). *)

val delays : t -> float array
(** Delay per Signal-Graph arc id (computed once and shared; do not
    mutate). *)

val warm_caches : t -> unit
(** A no-op: {!make} and {!patch} build every view above, so an
    unfolding is ready to share across domains as soon as it exists. *)

(** {1 Structural patching}

    Instance ids depend only on the event set, the event classes and
    the period count — never on the arc table.  An arc-level edit
    (add, remove, marking or disengageability flip) therefore keeps
    every instance id stable, and the unfolding can be {e patched} in
    place of a full re-unfold: the edited graph is unfolded over the
    base instance space by the construction {!make} uses, and the
    instance-level difference is reported so a caller can repair only
    what the edit reaches. *)

type patch_delta = {
  pd_spliced : (int * int) array;
      (** (src, dst) instance pairs present in the patched dag but not
          the base one — instantiations of added or flipped arcs *)
  pd_dropped : (int * int) array;
      (** instance pairs of removed or flipped base arcs — present in
          the base dag but not the patched one *)
}

val patch :
  ?deadline:Tsg_engine.Deadline.t ->
  t ->
  Signal_graph.t ->
  arc_map:int array ->
  t * patch_delta
(** [patch u g' ~arc_map] is a fresh unfolding of [g'] over the same
    periods and instance space as [u], plus the instance-level diff.
    [arc_map.(a)] is the arc id of base arc [a] in [g'], or [-1] if it
    was removed; mapped arcs must keep their endpoints (delay, marking
    and disengageability may change), surviving ids must be assigned
    in increasing order, and [g']'s remaining arcs are treated as
    additions.  The patched views are bit-identical to those of a cold
    [make g'] (both come from one construction, which also pins
    longest-path tie-breaking).  The base unfolding is not mutated.
    @raise Invalid_argument if [g'] changes the event set or classes,
    or [arc_map] is inconsistent with the two arc tables. *)

val pp_instance : t -> int Fmt.t
(** Prints an instance as [a+@2] (event [a+], period 2). *)
