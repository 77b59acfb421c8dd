(** Incremental what-if analysis: warm-start re-analysis of delay
    edits (ROADMAP item 3).

    Interactive users run the paper's loop at scale: analyze, inspect
    the critical cycle, nudge a delay, re-analyze.  A cold
    {!Cycle_time.analyze} pays the full unfold + [b] simulations for
    every nudge; this module pays them {e once} ({!prepare}) and then
    answers each edit by repairing only what actually moved:

    - the unfolding, its topological order and per-root reachability
      depend only on topology and marking, so a pure delay edit reuses
      all of them unchanged;
    - a root whose simulation never reaches an instance of an edited
      arc keeps its base Delta table verbatim ([whatif/reused]);
    - an affected root is {e repaired}, not re-simulated: a dirty
      propagation seeded at the edited arc's instances relaxes, in
      topological order, only the instances whose occurrence time
      actually changes ([whatif/resimulated] roots);
    - the roots are repaired 8 at a time, as the lanes of one scan
      (the lane layout of {!Timing_sim.simulate_many}): an instance
      dirty in any lane is recomputed for all of them from the same
      in-arc loads ([whatif/instances_repaired] counts those
      recomputations, once per pass), and a root whose lane did not
      move keeps its base Delta table;
    - an edit that folds back onto the base graph (zero net delta, or
      a {!Signal_graph.digest} match) short-circuits to the base
      report ([whatif/short_circuits]).

    {b Structural edits} (arc add/remove, marking flips) are warm too
    ({!change}): instance ids depend only on the event set, classes and
    period count, so the unfolding is {e patched} in place
    ({!Unfolding.patch}) — the edited graph is unfolded over the base
    instance space by the cold construction itself (bit-identical
    views), and the same monotone position scan repairs each affected
    root's times {e and reachability} jointly, seeded at the spliced,
    dropped and delay-edited arc instances (the structural change
    cone).  The one fallback: an edit that moves the {e border set} itself
    (changing which events carry initial activity) invalidates the
    prepared roots and is answered by a cold analysis
    ([whatif/structural_cold]); everything else is warm
    ([whatif/structural_warm]).  Edits that change the event set are
    out of scope — build the new graph and {!prepare} again.

    Every repaired quantity ranges over the same float operand sets as
    a cold run, so warm reports are {e byte-identical} (serialised via
    [Json_report.analysis_obj]) to [Cycle_time.analyze] of the edited
    graph — including structural edits — the property the test suite
    enforces. *)

type edit = { arc : int; delta : float }
(** Add [delta] to the delay of the Signal-Graph arc [arc].  Repeated
    edits of one arc within a scenario fold into a single delta. *)

type change =
  | Delay of edit  (** nudge a delay, as {!reanalyze} has always done *)
  | Add_arc of { src : int; dst : int; delay : float; marked : bool }
      (** a new arc between existing events, appended after the
          surviving arcs (its id in the edited graph is reported by
          the analysis); disengageability follows the builder's
          auto-rule ({!Signal_graph.make_arc}) *)
  | Remove_arc of int  (** delete a base arc; surviving arcs keep
          their relative order (ids compact downward) *)
  | Set_marked of { arc : int; marked : bool }
      (** flip a base arc's initial marking in place *)
(** One element of a structural scenario.  Changes referencing a base
    arc use {e base} arc ids throughout the scenario, regardless of
    ordering; removing the same arc twice, or editing a removed arc,
    is invalid. *)

type path =
  | Short_circuit  (** the edit was a no-op: base report returned *)
  | Warm  (** unfolding + unaffected simulations reused *)
  | Cold  (** full re-analysis (fault injection only) *)

type stats = {
  reused : int;  (** border simulations answered from the base run *)
  resimulated : int;  (** border simulations repaired *)
  path : path;
}

type t
(** A prepared base: graph, unfolding, base report, and the per-root
    occurrence-time tables retained from the base simulations, which
    also record reachability.  They are kept lane-major, 8 roots to a
    table, as the repair reads them: [ceil(b / 8) * 8] floats per
    instance — for very large unfoldings, budget roughly
    [64 * ceil(b / 8) * instance_count] bytes. *)

val prepare :
  ?deadline:Tsg_engine.Deadline.t -> ?periods:int -> ?jobs:int -> Signal_graph.t -> t
(** One cold analysis (same parameters and report as
    {!Cycle_time.analyze}) that additionally retains the warm-start
    tables.  [jobs] parallelises the base simulations; re-analyses are
    parallelised per scenario by {!sweep} instead.
    @raise Cycle_time.Not_analyzable as {!Cycle_time.analyze}.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val base_report : t -> Cycle_time.report
val signal_graph : t -> Signal_graph.t
val border : t -> int list
val periods : t -> int

val digest : t -> string
(** {!Signal_graph.digest} of the base graph — the short-circuit key. *)

val edited_graph : t -> edit list -> Signal_graph.t
(** The base graph with the edits applied (validated).
    @raise Invalid_argument on an out-of-range arc id, a non-finite
    delta, or an edited delay that is negative or non-finite. *)

val edited_graph_changes : t -> change list -> Signal_graph.t
(** The base graph with a structural scenario applied: surviving arcs
    keep their relative order (ids compact downward past removals),
    additions are appended in scenario order.  This is the cold-side
    reference for the byte-identity law.
    @raise Invalid_argument as {!edited_graph}, plus on a dead or
    duplicate arc reference and on invalid added-arc parameters.
    @raise Cycle_time.Not_analyzable when the edited graph fails
    structural validation (disconnected repetitive part, token-free
    cycle, …) — with the same message {!reanalyze_changes} raises. *)

type scratch
(** Reusable per-participant working memory for the dirty propagation
    (8 floats and 2 ints per instance; never shared between concurrent
    re-analyses). *)

val scratch : t -> scratch

val reanalyze :
  ?deadline:Tsg_engine.Deadline.t ->
  ?scratch:scratch ->
  t ->
  edit list ->
  Cycle_time.report * stats
(** The report of the edited graph, byte-identical (serialised) to
    [Cycle_time.analyze ~periods:(periods t) (edited_graph t edits)].
    Without [scratch] a fresh one is allocated.  [deadline] defaults
    to the ambient {!Tsg_engine.Deadline.current}.

    The warm path carries the ["whatif/warm"] failpoint: when armed
    ({!Tsg_obs.Failpoint}), re-analysis falls back to a cold
    {!Cycle_time.analyze} of the edited graph ([whatif/cold_fallbacks]
    counts these) — same answer, no reuse.

    @raise Invalid_argument as {!edited_graph}.
    @raise Cycle_time.Not_analyzable as {!Cycle_time.analyze}.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val reanalyze_changes :
  ?deadline:Tsg_engine.Deadline.t ->
  ?scratch:scratch ->
  t ->
  change list ->
  Cycle_time.report * stats
(** {!reanalyze} generalised to structural scenarios: byte-identical
    (serialised) to
    [Cycle_time.analyze ~periods:(periods t) (edited_graph_changes t cs)].
    Delay-only scenarios take the delay kernel unchanged; structural
    ones patch the unfolding and repair times and reachability in the
    change cone ([whatif/structural_warm],
    [whatif/instances_spliced|dropped]), falling back to a cold
    analysis only when the border set itself moves
    ([whatif/structural_cold]) or the ["whatif/warm"] failpoint is
    armed.  A scenario whose edited arc table is literally the base
    one short-circuits.
    @raise Invalid_argument and @raise Cycle_time.Not_analyzable as
    {!edited_graph_changes}.
    @raise Tsg_engine.Deadline.Deadline_exceeded past the budget. *)

val sweep :
  ?deadline:Tsg_engine.Deadline.t ->
  ?budget_ms:float ->
  ?jobs:int ->
  t ->
  edit list array ->
  (Cycle_time.report * stats, string) result array
(** [sweep t scenarios] re-analyses every scenario, sharing the one
    prepared base across [jobs] participants via
    {!Parallel.map_claims} (one {!scratch} per participant, scenarios
    claimed one at a time).  Results land at their scenario's index.

    Failures are per-scenario: an invalid edit, a
    {!Cycle_time.Not_analyzable} graph or a tripped deadline turns
    into [Error message] for that scenario only.  [budget_ms] arms a
    fresh per-scenario deadline (Batch semantics — one pathological
    scenario times out alone); [deadline] (or the ambient one) is
    checked between scenarios, bounding the whole sweep. *)

val sweep_changes :
  ?deadline:Tsg_engine.Deadline.t ->
  ?budget_ms:float ->
  ?jobs:int ->
  t ->
  change list array ->
  (Cycle_time.report * stats, string) result array
(** {!sweep} over structural scenarios — same sharing, claiming,
    budgets and per-scenario failure isolation, with each scenario
    answered by {!reanalyze_changes}. *)

val sweep_with :
  ?deadline:Tsg_engine.Deadline.t ->
  ?budget_ms:float ->
  ?jobs:int ->
  t ->
  f:((change list -> (Cycle_time.report * stats, string) result) -> 'a -> 'b) ->
  'a array ->
  'b array
(** The runner under {!sweep_changes}, for callers whose scenarios
    need work of their own around the re-analysis (the daemon resolves
    event names and times each scenario).  [f run x] answers scenario
    [x]; [run changes] re-analyses [changes] on the participant's
    {!scratch} under the per-scenario budget and the outer deadline,
    with {!sweep_changes}'s failure mapping.  Results land at their
    scenario's index. *)
