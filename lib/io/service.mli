(** The request handlers behind [tsa serve] and [tsa proxy].

    {!Tsg_engine.Server} is transport only: it frames request lines
    and hands each one to a handler.  This module is that handler —
    the one composition of loader, content digest, cache tiers,
    analysis, what-if engine and {!Rpc} encoders that every served
    request runs through, for a replica ({!Replica}) and for the
    fleet's front door ({!Proxy}).  The CLI only parses arguments into
    a config record and passes {!Replica.handler} or {!Proxy.handler}
    to {!Tsg_engine.Server.serve}; the tests serve the same handlers. *)

val builtin : string -> Tsg.Signal_graph.t option
(** The built-in models by name: [fig1], [ring5], [stack] and the
    generated bench workloads [gen-dense], [gen-10k], [gen-100k]. *)

val load_model : string -> (string * Tsg.Signal_graph.t, string) result
(** A built-in model by name, else a model file via {!Loader.load_file}:
    the model's name and graph. *)

val resolve_jobs : int -> int
(** [--jobs 0] (and the RPC [jobs] field 0) means "the whole
    machine": {!Tsg_engine.Pool.recommended}.  Positive values pass
    through. *)

val cache_key : digest:string -> ?periods:int -> string -> string
(** [cache_key ~digest ?periods name] is the [digest|name|periods]
    key of an analysis in the replica caches (memory and disk) and in
    the proxy's degraded-mode lookup; [periods] omitted renders as
    [b].  The one definition both tiers share. *)

val digest_of : string -> string
(** The model's {!Tsg.Signal_graph.digest}, or the path itself when it
    does not load (the replica then reports the load error). *)

val routing_key : Tsg_engine.Protocol.request -> string option
(** The shard-routing key of a request: the model's content digest
    for [analyze], [sweep] and a one-model [batch] (the key the
    replica caches hash on, so each replica's cache concentrates on
    its slice of the keyspace), the joined paths for a larger batch,
    [None] for the fleet-wide [stats] and [shutdown]. *)

val run_sweep :
  ?budget_ms:float ->
  jobs:int ->
  Tsg.Whatif.t ->
  Tsg_engine.Protocol.sweep_edit list array ->
  Rpc.sweep_item array
(** {!Tsg.Whatif.sweep_with} over wire scenarios: event names are
    resolved against the model per scenario (a name that does not
    resolve fails that scenario only), and each scenario is timed
    ([elapsed_ms]) for the reports.  [budget_ms] is the per-scenario
    budget; the ambient deadline bounds the whole sweep. *)

(** One replica: the [analyze]/[batch]/[sweep]/[stats]/[shutdown]
    handler of [tsa serve]. *)
module Replica : sig
  type config = {
    endpoint : Tsg_engine.Server.endpoint;  (** as requested; names the transport *)
    shard : string option;  (** the [stats] shard label; default the bound endpoint *)
    cache_size : int;  (** memory-tier capacity (analyses) *)
    cache_dir : string option;  (** the on-disk tier's directory, if any *)
    disk_cache_size : int;  (** on-disk tier capacity (entries) *)
    jobs : int;  (** batch and sweep parallelism; 0 = auto *)
    max_sweep : int;  (** larger sweeps are refused [too_large] *)
  }

  type t

  val create : config -> t
  (** Fresh caches: the analysis LRU ([cache/*] metrics), the
      prepared what-if base LRU (capacity 8, [whatif-cache/*]) and,
      with [cache_dir], the disk tier. *)

  val handler : t -> string -> Tsg_engine.Server.reply
  (** Answer one request line.  [analyze] reads memory, then disk,
      then computes, once per key however many requests race (the
      memory tier's single flight), writing behind to both tiers;
      [timeout_ms] bounds load and analysis and a timed-out result is
      never cached.  [batch] runs fault-isolated on the pool.  [sweep]
      warm-starts from the cached base (its preparation bounded by
      [timeout_ms], which is also the per-scenario budget).  [stats]
      reports both tiers, the transport and the shard. *)

  val on_ready : t -> Tsg_engine.Server.endpoint -> unit
  (** Record the endpoint as bound (pass to [Server.serve ~on_ready]):
      the default shard label, with the kernel-chosen port. *)

  val close : t -> unit
  (** Drain the disk tier's write-behind queue and stop its writer. *)
end

(** The fleet's front door: the handler of [tsa proxy]. *)
module Proxy : sig
  type config = {
    listen : Tsg_engine.Server.endpoint;
    endpoints : Tsg_engine.Server.endpoint list;  (** the shards *)
    cache_dir : string option;  (** shared disk cache, read for degraded serving *)
    retry_budget : float;  (** {!Tsg_engine.Proxy.create}'s [retry_ratio] *)
    hedge_ms : float option;  (** [None] adaptive, [<= 0] off, else fixed *)
    queue_depth : int;
    max_concurrent : int;
    breaker_window : int;
    breaker_failures : int;
    breaker_cooldown_ms : float;
    upstream_timeout : float;  (** seconds *)
  }

  type t

  val create : config -> t
  (** A router over [endpoints] (no call-level retries: the proxy's
      budget owns retrying) under a {!Tsg_engine.Proxy} policy layer.
      @raise Invalid_argument as {!Tsg_engine.Proxy.create}. *)

  val handler : t -> string -> Tsg_engine.Server.reply
  (** Forward [analyze]/[sweep]/[batch] to the home shard of their
      {!routing_key}, hedging all but batches; an [analyze] whose
      shards are all down is answered from the disk cache's
      {!cache_key} entry with the degraded marker.  [stats] answers
      locally with the proxy block; [shutdown] is broadcast to the
      shards, then stops the proxy. *)

  val on_ready : t -> Tsg_engine.Server.endpoint -> unit
  (** Record the endpoint as bound (the [stats] shard field). *)

  val close : t -> unit
  (** Close the stale-read cache and the router. *)
end
