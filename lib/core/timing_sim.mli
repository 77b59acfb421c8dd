(** Timing simulation of an unfolded Timed Signal Graph (Section IV).

    The timing simulation assigns to every instance [f] of the
    unfolding its occurrence time

    {v t(f) = 0                          if f is in I_u
t(f) = max { t(e) + d | e -d-> f }  otherwise v}

    i.e. the longest-path distance from the initial instances
    (Proposition 1).  The {e event-initiated} simulation [t_g] starts
    the clock at a chosen instance [g]: everything concurrent with or
    preceding [g] is assumed past (occurrence time 0, out-arcs
    neglected), so [t_g(f)] is the longest-path distance from [g] for
    instances reachable from [g] and [0] elsewhere. *)

type result = {
  time : float array;  (** occurrence time per instance id *)
  pred_instance : int array;
      (** argmax predecessor instance on a longest path, or [-1] *)
  pred_arc : int array;
      (** the Signal-Graph arc id realising the argmax, or [-1] *)
  reached : bool array;
      (** instances whose time is constrained (for an event-initiated
          simulation: reachable from the initiating instance; for the
          plain simulation: everything) *)
}

(** {1 Scratch arenas}

    The single-root kernel of {!simulate} and {!simulate_initiated} is
    zero-allocation: all per-query state lives in an epoch-stamped
    workspace that is reused from query to query (no clearing pass —
    bumping the epoch invalidates every stamp at once).  One arena is
    kept per domain via [Domain.DLS].  {!simulate_many} does not use
    it: its lane rows live in a separate per-domain arena off the OCaml
    heap (see there). *)

module Workspace : sig
  type t

  val create : int -> t
  (** A fresh arena with capacity for [n] instances. *)

  val capacity : t -> int

  val ensure : t -> int -> unit
  (** Grow (never shrink) the arena to hold [n] instances. *)

  val retained_capacity : int
  (** Arenas released by {!with_arena} are shrunk back to this many
      instances, so a one-off huge analysis does not pin max-size
      arrays in every arena it touched for the life of the domain. *)

  val with_arena : int -> (t -> 'a) -> 'a
  (** [with_arena n f] runs [f] with this domain's arena, grown to
      capacity [n].  The arena is guarded by a [Mutex.try_lock]: if it
      is busy (a sibling systhread, or a nested query), [f] gets an
      arena from a small per-domain spare free list instead of
      blocking — each such collision bumps [kernel/arenas_fallback],
      so systhread contention is visible in [stats].  On release the
      arena's capacity is bounded by {!retained_capacity}. *)
end

type view
(** A borrowed, read-only view of one root's times in a
    {!simulate_many} pass: a lane of the pass's lane-major rows.  Only
    valid during the callback that received it — the rows are reused
    by the next pass. *)

val view_time : view -> int -> float
(** Occurrence time of an instance; [0.] if unreached (matching
    {!result}[.time]). *)

val view_reached : view -> int -> bool

val view_blit : view -> float array -> lane:int -> unit
(** [view_blit v dst ~lane] copies the whole lane into another
    lane-major table: [dst.(i * lanes + lane)] becomes the occurrence
    time of instance [i], [neg_infinity] where the root does not
    reach.  {!Whatif} keeps its base times in this layout.
    @raise Invalid_argument if [lane] is not below {!lanes} or [dst]
    holds fewer than [lanes] floats per instance. *)

val simulate : ?deadline:Tsg_engine.Deadline.t -> Unfolding.t -> result
(** The timing simulation [t] of the whole unfolding.  The topological
    order and compact adjacency are cached inside the unfolding, so
    repeated simulations of the same unfolding (as the cycle-time
    algorithm performs, once per border event) pay the set-up cost
    once.

    All entry points accept a [deadline], checked once per 4096 topo
    positions scanned (the inner relaxation loop is untouched, so the
    amortised cost is unmeasurable); on expiry they raise
    {!Tsg_engine.Deadline.Deadline_exceeded} and the domain's arena is
    simply reused by the next query. *)

val simulate_initiated :
  ?deadline:Tsg_engine.Deadline.t ->
  ?delays:float array ->
  Unfolding.t ->
  at:int ->
  result
(** [simulate_initiated u ~at:g] is the [g]-initiated timing
    simulation.  [time.(f) = 0.] and [reached.(f) = false] for every
    [f] not reachable from [g].

    [delays] substitutes a different delay per Signal-Graph arc id
    (same indexing as {!Unfolding.delays}) while keeping the base
    unfolding's structure, instance ids and topological order — the
    warm-start path of {!Whatif} re-runs the critical simulation of an
    edited graph over the unfolding it already has.  The result is
    byte-identical to simulating a fresh unfolding of the edited
    graph, because the unfolding's structure depends only on topology
    and marking.

    The scan is {e windowed}: it starts at [g]'s position in the
    topological order ({!Unfolding.topo_position}), since earlier
    instances provably cannot be reached from [g].  Reachability is
    decided during the relaxation itself (no separate DFS): an
    instance is reached iff it is the root or an in-arc from a reached
    instance feeds it. *)

val lanes : int
(** Roots relaxed together in one {!simulate_many} pass (8). *)

val simulate_many :
  ?deadline:Tsg_engine.Deadline.t ->
  ?jobs:int ->
  Unfolding.t ->
  roots:int array ->
  f:(int -> view -> 'a) ->
  'a array
(** [simulate_many u ~roots ~f] runs one [root]-initiated simulation
    per element of [roots] and returns [f root view] for each, in
    [roots] order; every view reads exactly what {!simulate_initiated}
    on that root returns, bit for bit.

    The simulations are {e lane-batched}: the roots, sorted by
    {!Unfolding.topo_position}, are cut into passes of 8, and one pass
    in topological order relaxes all of its roots at once, starting at
    its lowest root.  A pass's times live in lane-major rows (instance
    [v] owns 8 contiguous floats, one per lane), so each in-arc is read
    once for all lanes, and the lane loop runs in registers.
    With [jobs > 1] the [ceil(b / 8)] passes are self-scheduled over
    {!Parallel.map_claims}, heaviest (lowest start) first.

    The rows are a [Bigarray] of [8 n] floats (off the OCaml heap, so
    they do not raise the GC's heap target), held for a participant's
    whole claim loop under the same per-domain policy as
    {!Workspace.with_arena}: one arena per domain, kept from analysis
    to analysis up to {!Workspace.retained_capacity} instances (16 MiB
    of rows) and dropped on release above it; a contended arena (a
    sibling systhread, a nested batch) is not waited for — the caller
    takes one of a few per-domain spares, so daemon threads do not
    allocate fresh rows per collision.  The [kernel/arenas_*] counters
    cover both arenas.

    Per root, [simulations/initiated] counts one and
    [kernel/instances_scanned] the single-root window, as for
    {!simulate_initiated}; a trace shows one [longest_paths] span per
    pass, with [roots], [scanned] and [total] arguments.  The shared
    [deadline] is checked once per 4096 topo positions of a pass and
    once more after the pass's callbacks.  [f] is called once per
    root, in no particular order, after its pass; it must not retain
    its [view] and must be safe to run concurrently when [jobs > 1]. *)

val occurrence_times : Unfolding.t -> result -> event:int -> float array
(** [occurrence_times u r ~event] is the array of [t(e_i)] for
    [i = 0 .. periods-1] (length 1 for a non-repetitive event). *)

val average_occurrence_distance : Unfolding.t -> result -> event:int -> period:int -> float
(** [Delta(e_i) = t(e_i) / (i + 1)] — the average occurrence distance
    after [i] periods of a plain simulation (Section IV.C). *)

val initiated_average_distance :
  Unfolding.t -> result -> event:int -> period:int -> float
(** [Delta_{e_0}(e_i) = t_{e_0}(e_i) / i] for an [e_0]-initiated
    simulation.  @raise Invalid_argument if [period = 0]. *)

val critical_path : Unfolding.t -> result -> instance:int -> (int * int option) list
(** The longest path leading to [instance], root-first, as
    [(instance, arc entering it)] pairs; the root carries [None].
    This is the "backtracking" step of Section VI.B. *)
