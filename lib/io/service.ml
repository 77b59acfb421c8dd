open Tsg
open Tsg_engine

let builtin = function
  | "fig1" -> Some (Tsg_circuit.Circuit_library.fig1_tsg ())
  | "ring5" -> Some (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ())
  | "stack" -> Some (Tsg_circuit.Circuit_library.async_stack_tsg ())
  | "gen-dense" ->
    (* synthetic bench workload: big enough that the simulate phase
       dominates and kernel-level wins show above timer noise *)
    Some (Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 ())
  | "gen-10k" ->
    (* scaling workloads: tens/hundreds of thousands of unfolding
       instances but a fixed, small border (the segment-token count),
       so the per-border-event simulations are few, heavy and uneven —
       the shape that exposes parallel-scheduling wins and losses *)
    Some
      (Tsg_circuit.Generators.segmented_live_tsg ~seed:11 ~events:10_000 ~tokens:24
         ~extra_arcs:20_000 ())
  | "gen-100k" ->
    Some
      (Tsg_circuit.Generators.segmented_live_tsg ~seed:13 ~events:100_000 ~tokens:12
         ~extra_arcs:100_000 ())
  | _ -> None

(* dialect sniffing (".marking" outside comments -> astg) lives in
   Loader, shared with batch mode and the tests *)
let load_model path =
  match builtin path with
  | Some g -> Ok (path, g)
  | None -> (
    match Loader.load_file path with
    | Ok m -> Ok (m.Loader.name, m.Loader.graph)
    | Error msg -> Error msg)

let resolve_jobs j = if j <= 0 then Pool.recommended () else j

let cache_key ~digest ?periods name =
  Printf.sprintf "%s|%s|%s" digest name
    (match periods with None -> "b" | Some n -> string_of_int n)

let digest_of path =
  match load_model path with Ok (_, g) -> Signal_graph.digest g | Error _ -> path

let routing_key : Protocol.request -> string option = function
  | Analyze { path; _ } | Sweep { path; _ } | Batch { paths = [ path ]; _ } ->
    Some (digest_of path)
  | Batch { paths; _ } -> Some (String.concat "," paths)
  | Stats | Shutdown -> None

let changes_of_edits g edits =
  let open Protocol in
  let resolve = function
    | Ev_id i -> Ok i
    | Ev_name s -> (
      match Event.of_string s with
      | Error msg -> Error (Printf.sprintf "bad event %S: %s" s msg)
      | Ok ev -> (
        match Signal_graph.id_opt g ev with
        | Some id -> Ok id
        | None -> Error (Fmt.str "event %a is not in the graph" Event.pp ev)))
  in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* c =
        match e with
        | Sw_delay { sw_arc; sw_delta } ->
          Ok (Whatif.Delay { arc = sw_arc; delta = sw_delta })
        | Sw_add { sw_src; sw_dst; sw_delay; sw_marked } ->
          let* src = resolve sw_src in
          let* dst = resolve sw_dst in
          Ok (Whatif.Add_arc { src; dst; delay = sw_delay; marked = sw_marked })
        | Sw_remove arc -> Ok (Whatif.Remove_arc arc)
        | Sw_mark { sw_arc; sw_marked } ->
          Ok (Whatif.Set_marked { arc = sw_arc; marked = sw_marked })
      in
      go (c :: acc) rest
  in
  go [] edits

let run_sweep ?budget_ms ~jobs base scenarios =
  let g = Whatif.signal_graph base in
  Whatif.sweep_with ?budget_ms ~jobs base scenarios ~f:(fun run edits ->
      let t0 = Unix.gettimeofday () in
      let outcome =
        match changes_of_edits g edits with Error _ as e -> e | Ok changes -> run changes
      in
      { Rpc.edits; elapsed_ms = (Unix.gettimeofday () -. t0) *. 1000.; outcome })

let transport = function Server.Unix_socket _ -> "unix" | Server.Tcp _ -> "tcp"

(* the request's budget as a deadline; [none] when unbounded *)
let deadline_of = function
  | None -> Deadline.none
  | Some ms -> Deadline.make ~budget_ms:ms ()

let deadline_error d = Rpc.error_response ~code:"deadline_exceeded" (Deadline.error_message d)

module Replica = struct
  type config = {
    endpoint : Server.endpoint;
    shard : string option;
    cache_size : int;
    cache_dir : string option;
    disk_cache_size : int;
    jobs : int;
    max_sweep : int;
  }

  type t = {
    config : config;
    jobs : int;
    cache : (string * Signal_graph.t * Cycle_time.report, string) result Cache.t;
    disk_cache : Disk_cache.t option;
    whatif_cache : (string * Whatif.t, string) result Cache.t;
    mutable bound : Server.endpoint;
  }

  let create config =
    {
      config;
      jobs = resolve_jobs config.jobs;
      cache = Cache.create ~capacity:config.cache_size ();
      (* the second tier: rendered analyze responses, digest-keyed, on
         disk.  Survives restarts and is safely shared between
         replicas because responses are byte-identical by construction
         — any replica's answer is every replica's answer. *)
      disk_cache =
        Option.map
          (fun dir -> Disk_cache.create ~capacity:config.disk_cache_size ~dir ())
          config.cache_dir;
      (* prepared what-if bases are ~b retained float arrays each, far
         heavier than a report — a small separate LRU so repeated
         sweeps of the same model warm-start instantly without letting
         bases crowd out the analysis cache *)
      whatif_cache = Cache.create ~metrics_prefix:"whatif-cache" ~capacity:8 ();
      bound = config.endpoint;
    }

  (* the endpoint as actually bound — for Tcp {port = 0} the kernel
     picks the port; on_ready stores it before any client is accepted,
     so the stats reply can report this replica's shard identity *)
  let on_ready t ep = t.bound <- ep
  let close t = Option.iter Disk_cache.close t.disk_cache

  (* the key is the graph's content (declaration-order independent),
     the model name and the requested horizon — two files with
     identical content hit the same entry, an edited file misses and
     is re-analyzed *)
  let key ?periods name g = cache_key ~digest:(Signal_graph.digest g) ?periods name

  let analyze_cached t ?periods path =
    match load_model path with
    | Error msg -> Error msg
    | Ok (name, g) ->
      Cache.find_or_add t.cache (key ?periods name g) (fun () ->
          match Cycle_time.analyze ?periods g with
          | report -> Ok (name, g, report)
          | exception Cycle_time.Not_analyzable msg -> Error msg)

  (* the analyze op's read path through both tiers: memory (triples,
     shared with batch) then disk (rendered response lines).  Both run
     inside the memory tier's single flight, so concurrent misses of
     one key analyze once.  A disk hit is served as stored bytes — the
     byte-identity guarantee makes that sound — and leaves the flight
     by [Disk_hit], so memory stays unchanged and a waiter re-reads
     the disk; a fresh result is written behind to both.  A timed-out
     analysis raises out of the flight and is never cached;
     load/analysis errors stay in memory only (they are cheap to
     re-derive and not content-addressed facts). *)
  exception Disk_hit of string

  let analyze_response_cached t ?periods path =
    match load_model path with
    | Error msg -> Rpc.error_response msg
    | Ok (name, g) -> (
      let key = key ?periods name g in
      let written = ref None in
      match
        Cache.find_or_add t.cache key (fun () ->
            Option.iter
              (fun dc ->
                Option.iter
                  (fun response -> raise (Disk_hit response))
                  (Disk_cache.find dc key))
              t.disk_cache;
            match Cycle_time.analyze ?periods g with
            | report ->
              let response = Rpc.analyze_response ~model:name g report in
              Option.iter (fun dc -> Disk_cache.add dc key response) t.disk_cache;
              written := Some response;
              Ok (name, g, report)
            | exception Cycle_time.Not_analyzable msg -> Error msg)
      with
      | exception Disk_hit response -> response
      | Ok (name, g, report) -> (
        match !written with
        | Some response -> response
        | None -> Rpc.analyze_response ~model:name g report)
      | Error msg -> Rpc.error_response msg)

  let prepared_base t ?periods path =
    match load_model path with
    | Error msg -> Error msg
    | Ok (name, g) ->
      Cache.find_or_add t.whatif_cache (key ?periods name g) (fun () ->
          match Whatif.prepare ?periods ~jobs:t.jobs g with
          | base -> Ok (name, base)
          | exception Cycle_time.Not_analyzable msg -> Error msg)

  let request_jobs t = function Some j -> resolve_jobs j | None -> t.jobs

  let sweep t ~path ~scenarios ~periods ~jobs ~timeout_ms =
    let n = List.length scenarios in
    if n > t.config.max_sweep then
      Rpc.error_response ~code:"too_large"
        (Printf.sprintf "sweep of %d scenarios exceeds --max-sweep %d" n
           t.config.max_sweep)
    else
      (* the budget bounds the base preparation too: a sweep whose
         prepare times out is reported structurally and never cached,
         exactly like a timed-out analysis *)
      let d = deadline_of timeout_ms in
      match Deadline.with_deadline d (fun () -> prepared_base t ?periods path) with
      | Error msg -> Rpc.error_response msg
      | exception Deadline.Deadline_exceeded -> deadline_error d
      | Ok (name, base) ->
        (* structural scenarios never invalidate the prepared base:
           re-analysis leaves it untouched, so the LRU entry stays live
           across the whole sweep and across later sweeps of the same
           model *)
        let items =
          run_sweep ?budget_ms:timeout_ms ~jobs:(request_jobs t jobs) base
            (Array.of_list scenarios)
        in
        Rpc.sweep_response ~model:name (Whatif.signal_graph base) (Array.to_list items)

  let handler t line =
    match Protocol.parse_request line with
    | Error msg -> Server.Reply (Rpc.error_response ~code:"bad_request" msg)
    | Ok (Analyze { path; periods; timeout_ms }) ->
      (* the request's budget wraps load + analyze; a timed-out
         analysis is reported structurally and never cached, so a
         retry with a larger budget can still succeed *)
      let d = deadline_of timeout_ms in
      Server.Reply
        (match
           Deadline.with_deadline d (fun () -> analyze_response_cached t ?periods path)
         with
        | response -> response
        | exception Deadline.Deadline_exceeded -> deadline_error d)
    | Ok (Batch { paths; periods; jobs; timeout_ms }) ->
      let entries =
        Batch.run ~jobs:(request_jobs t jobs) ?deadline_ms:timeout_ms ~label:Fun.id
          ~f:(analyze_cached t ?periods) paths
      in
      Server.Reply (Rpc.batch_response entries)
    | Ok (Sweep { path; scenarios; periods; jobs; timeout_ms }) ->
      Server.Reply (sweep t ~path ~scenarios ~periods ~jobs ~timeout_ms)
    | Ok Stats ->
      Server.Reply
        (Rpc.stats_response ~cache:(Cache.stats t.cache)
           ?disk_cache:(Option.map Disk_cache.stats t.disk_cache)
           ~transport:(transport t.config.endpoint)
           ~shard:
             (match t.config.shard with
             | Some label -> label
             | None -> Server.endpoint_to_string t.bound)
           ())
    | Ok Shutdown -> Server.Final (Rpc.shutdown_response ())
end

module Proxy = struct
  type config = {
    listen : Server.endpoint;
    endpoints : Server.endpoint list;
    cache_dir : string option;
    retry_budget : float;
    hedge_ms : float option;
    queue_depth : int;
    max_concurrent : int;
    breaker_window : int;
    breaker_failures : int;
    breaker_cooldown_ms : float;
    upstream_timeout : float;
  }

  type t = {
    listen : Server.endpoint;
    stale : Disk_cache.t option;
    router : Router.t;
    proxy : Tsg_engine.Proxy.t;
    mutable bound : Server.endpoint;
  }

  let create (c : config) =
    (* the shared cache is opened for stale reads only — the proxy
       never writes it (replicas own the write-behind) *)
    let stale = Option.map (fun dir -> Disk_cache.create ~dir ()) c.cache_dir in
    (* retries:0 — the proxy owns the retry policy (budgeted, breaker-
       gated); Server.call-level retries underneath it would multiply
       load invisibly, the exact storm the budget exists to kill *)
    let router = Router.create ~retries:0 c.endpoints in
    let hedging =
      match c.hedge_ms with
      | None -> Tsg_engine.Proxy.Auto
      | Some ms when ms <= 0. -> Tsg_engine.Proxy.Off
      | Some ms -> Tsg_engine.Proxy.Fixed_ms ms
    in
    let proxy =
      Tsg_engine.Proxy.create ~breaker_window:c.breaker_window
        ~breaker_failures:c.breaker_failures ~breaker_cooldown_ms:c.breaker_cooldown_ms
        ~retry_ratio:c.retry_budget ~hedging ~queue_depth:c.queue_depth
        ~max_concurrent:c.max_concurrent ~upstream_timeout_s:c.upstream_timeout ?stale
        router
    in
    { listen = c.listen; stale; router; proxy; bound = c.listen }

  let on_ready t ep = t.bound <- ep

  let close t =
    Option.iter Disk_cache.close t.stale;
    Router.close t.router

  let forward t ~key ?cache_key ~idempotent ~timeout_ms line =
    let deadline_at =
      Option.map (fun ms -> Unix.gettimeofday () +. (ms /. 1000.)) timeout_ms
    in
    match
      Tsg_engine.Proxy.forward t.proxy ~key ?cache_key ?deadline_at ~idempotent line
    with
    | Fresh response -> response
    | Degraded (payload, _age) -> Tsg_engine.Proxy.mark_degraded payload
    | Shed (code, msg) -> Rpc.error_response ~code msg
    | Failed msg -> Rpc.error_response ~code:"unavailable" msg

  (* requests route on the model's content digest ({!routing_key}) —
     the key the client-side router and the replica caches use, so the
     proxy's shard choice agrees with every other participant's.  An
     analyze also names the replica's exact disk-cache entry for the
     degraded path; sweeps and batches are never disk-cached *)
  let handler t line =
    match Protocol.parse_request line with
    | Error msg -> Server.Reply (Rpc.error_response ~code:"bad_request" msg)
    | Ok Stats ->
      Server.Reply
        (Rpc.stats_response
           ?disk_cache:(Option.map Disk_cache.stats t.stale)
           ~transport:(transport t.listen)
           ~shard:(Server.endpoint_to_string t.bound)
           ~proxy:(Tsg_engine.Proxy.stats t.proxy, Router.stats t.router)
           ())
    | Ok Shutdown ->
      (* the proxy is the fleet's one address: shutting it down drains
         the shards behind it too (failures ignored — a dead shard is
         already down) *)
      ignore (Router.broadcast t.router line);
      Server.Final (Rpc.shutdown_response ())
    | Ok (Analyze { path; periods; timeout_ms }) ->
      let key, cache_key =
        match load_model path with
        | Ok (name, g) ->
          let digest = Signal_graph.digest g in
          (digest, Some (cache_key ~digest ?periods name))
        | Error _ -> (path, None)
      in
      Server.Reply (forward t ~key ?cache_key ~idempotent:true ~timeout_ms line)
    | Ok (Sweep { path; timeout_ms; _ }) ->
      Server.Reply (forward t ~key:(digest_of path) ~idempotent:true ~timeout_ms line)
    | Ok (Batch { timeout_ms; _ } as req) ->
      (* batches fan out heavy work on the shard pool: correct to
         replay but wasteful to duplicate, so they are not hedged *)
      Server.Reply
        (forward t ~key:(Option.get (routing_key req)) ~idempotent:false ~timeout_ms line)
end
