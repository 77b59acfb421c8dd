(** JSON rendering of analysis results, for downstream tooling
    (dashboards, regression trackers, CI gates).  All encoders build
    {!Json} values — full float precision, proper string escaping, no
    newlines — so every rendered report is also a valid line of the
    [tsa serve] wire protocol. *)

val analysis : Tsg.Signal_graph.t -> Tsg.Cycle_time.report -> string
(** The full cycle-time report:
    {v { "cycle_time": ..., "border": [...], "periods": ...,
  "critical": { "event": ..., "period": ...,
                "cycles": [ { "events": [...], "length": ...,
                              "occurrence_period": ... } ] },
  "traces": [ { "event": ..., "samples": [ { "period": ...,
                "time": ..., "average": ... } ] },
  "metrics": [ { "name": ..., "count": ..., "total_ms": ... } ] } v}
    The [metrics] array is the current {!Tsg_engine.Metrics} snapshot
    (graphs analyzed, simulations run, unfolding instances built, wall
    time per phase). *)

val analysis_obj : Tsg.Signal_graph.t -> Tsg.Cycle_time.report -> Json.t
(** The same report as a {!Json} value, {e without} the [metrics]
    field — a pure function of the graph and report, so equal reports
    render to byte-identical strings.  {!Rpc} builds the [tsa serve]
    responses out of it.  The [traces] field, the b × b sample table
    that is most of a report's bytes, is already rendered: a [Raw]
    value written straight into one buffer, with the bytes the
    equivalent [List]/[Obj] tree would render to. *)

val batch :
  (string * Tsg.Signal_graph.t * Tsg.Cycle_time.report) Tsg_engine.Batch.entry list ->
  string
(** A batch-analysis report: one item per input (either
    [{"status":"ok", "cycle_time": ...}] or
    [{"status":"error", "error": ...}]), a success/failure summary and
    the metrics snapshot. *)

val batch_items :
  (string * Tsg.Signal_graph.t * Tsg.Cycle_time.report) Tsg_engine.Batch.entry list ->
  Json.t * Json.t
(** The [(items, summary)] pair of {!batch} as {!Json} values, for
    embedding in other envelopes (the [tsa serve] batch response). *)

val metrics : unit -> string
(** Just the {!Tsg_engine.Metrics} snapshot:
    [{"metrics": [ { "name": ..., "count": ..., "total_ms": ... } ]}]. *)

val metrics_obj : unit -> Json.t
(** The snapshot array itself, for embedding. *)

val histogram_obj : string -> Tsg_obs.Histogram.snapshot -> Json.t
(** One latency histogram:
    {v { "name": ..., "count": ..., "mean_ms": ..., "min_ms": ...,
  "max_ms": ..., "p50_ms": ..., "p95_ms": ..., "p99_ms": ...,
  "buckets": [ { "le_ms": <bound or null for overflow>,
                 "count": ... } ] } v}
    Statistics of an empty histogram render as [null] (JSON has no
    NaN); empty buckets are omitted. *)

val histograms_obj : unit -> Json.t
(** Every {!Tsg_engine.Metrics.histograms} series as a list of
    {!histogram_obj} — the [latency] block of the daemon's [stats]
    response. *)

val slack : Tsg.Signal_graph.t -> Tsg.Slack.report -> string
(** Per-arc slacks:
    {v { "cycle_time": ..., "arcs": [ { "id": ..., "src": ...,
  "dst": ..., "delay": ..., "marked": ..., "slack": ...|null,
  "critical": ... } ] } v}
    (infinite slack is encoded as [null]). *)
