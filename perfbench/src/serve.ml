(* serve_mixed: a closed loop of 2 persistent client connections into
   a [tsa proxy] fronting 2 [tsa serve --tcp] replicas that share one
   fresh --cache-dir.  Callers of the serving
   tier wait for each reply, hence a closed loop.

   The seeded request mix: ~75% analyze of a hot set (memory-cache
   hits that still load and digest the file), ~20% sweeps of 1-4
   delay scenarios on the hot set (prepared-base hits, then warm
   repair), ~5% analyze of fresh models, each requested twice back to
   back so both connections miss on the same key at once. *)

open Tsg
open Workloads
module P = Tsg_engine.Protocol

type kind = Hot of int | Sweep of int | Fresh of int

let connections = 2
let replicas = 2

(* ------------------------------------------------------------------ *)
(* the daemons' own counters, from [stats] before and after the window *)

let parse_json line =
  match P.json_of_string line with
  | Ok j -> j
  | Error msg -> failwith ("unparsable stats response: " ^ msg)

let list_field k j = match P.member k j with Some (P.List l) -> l | _ -> []
let num_field k j = match P.member k j with Some (P.Number f) -> f | _ -> 0.
let str_field k j = match P.member k j with Some (P.String s) -> s | _ -> ""

let counter stats name =
  List.fold_left
    (fun acc e -> if str_field "name" e = name then num_field "count" e else acc)
    0.
    (list_field "metrics" stats)

(* a latency series' buckets as (upper bound in ms, count); the
   overflow bucket's bound is infinity *)
let buckets stats name =
  List.concat_map
    (fun e ->
      if str_field "name" e <> name then []
      else
        List.map
          (fun b ->
            let le = match P.member "le_ms" b with Some (P.Number f) -> f | _ -> infinity in
            (le, num_field "count" b))
          (list_field "buckets" e))
    (list_field "latency" stats)

(* the window's share of a series: after minus before, bucket by
   bucket, summed over processes *)
let window_buckets pairs name =
  let tbl = Hashtbl.create 16 in
  let add sign stats =
    List.iter
      (fun (le, c) ->
        Hashtbl.replace tbl le (Option.value ~default:0. (Hashtbl.find_opt tbl le) +. (sign *. c)))
      (buckets stats name)
  in
  List.iter (fun (before, after) -> add (-1.) before; add 1. after) pairs;
  List.sort compare (Hashtbl.fold (fun le c acc -> (le, c) :: acc) tbl [])

(* the p-quantile of a window's buckets, interpolated linearly inside
   the bucket that holds it (the program's buckets are 1-2-5 wide, too
   coarse to subtract one bound from another); 0 for an empty window *)
let bucket_percentile bs p =
  let total = List.fold_left (fun acc (_, c) -> acc +. c) 0. bs in
  if total <= 0. then 0.
  else
    let rank = p *. total in
    let rec go lo cum = function
      | [] -> lo
      | (le, c) :: rest ->
        if c > 0. && cum +. c >= rank then
          if le = infinity then lo else lo +. ((le -. lo) *. (rank -. cum) /. c)
        else go le (cum +. c) rest
    in
    go 0. 0. bs

let delta pairs name =
  List.fold_left (fun acc (b, a) -> acc +. (counter a name -. counter b name)) 0. pairs

(* ------------------------------------------------------------------ *)
(* answers: analyze responses must be byte-identical to the in-process
   encoder's; sweep responses equal with elapsed_ms ignored *)

let elapsed_re = Str.regexp {|"elapsed_ms":[-+0-9.eE]+,?|}

let fingerprint kind response =
  let body =
    match Tsg_engine.Proxy.strip_degraded response with Some s -> s | None -> response
  in
  let body = match kind with Sweep _ -> Str.global_replace elapsed_re "" body | _ -> body in
  Digest.string body

let is_ok response =
  let prefix = {|{"status":"ok"|} in
  let degraded = {|{"degraded":true,"status":"ok"|} in
  let starts p = String.length response >= String.length p && String.sub response 0 (String.length p) = p in
  starts prefix || starts degraded

(* ------------------------------------------------------------------ *)
(* set-up                                                              *)

type setup = {
  hot : string array;
  fresh : string array;
  sweeps : (int * P.sweep_edit list list) array;
  procs : Proc.t list;  (** replicas first, the proxy last *)
  replica_eps : string list;
  proxy_ep : string;
}

let analyze_line path = P.request_to_string (P.Analyze { path; periods = None; timeout_ms = None })

let sweep_line path scenarios =
  P.request_to_string (P.Sweep { path; scenarios; periods = None; jobs = None; timeout_ms = None })

let sweep_pool (cfg : config) ~seed hot =
  let st = Models.rng seed "sweeps" in
  let arcs =
    Array.map (fun p -> Signal_graph.arc_count (Pipeline.load p)) hot
  in
  Array.init cfg.sweep_pool (fun _ ->
      let h = Random.State.int st (Array.length hot) in
      let scenario () =
        List.init
          (1 + Random.State.int st 2)
          (fun _ ->
            P.Sw_delay
              {
                sw_arc = Random.State.int st arcs.(h);
                sw_delta = 0.25 *. float_of_int (1 + Random.State.int st 12);
              })
      in
      (h, List.init (1 + Random.State.int st 4) (fun _ -> scenario ())))

let start_fleet run ~rep =
  let cache_dir = Filename.concat run.dir (Printf.sprintf "cache-%d" rep) in
  Unix.mkdir cache_dir 0o755;
  let replicas =
    List.init replicas (fun i ->
        Proc.spawn ~tsa:run.tsa
          ~log:(Filename.concat run.dir (Printf.sprintf "replica-%d-%d.log" rep i))
          ~marker:"serving on "
          [ "serve"; "--tcp"; "127.0.0.1:0"; "--cache-dir"; cache_dir ])
  in
  let replica_eps = List.map (fun p -> p.Proc.endpoint) replicas in
  let proxy =
    Proc.spawn ~tsa:run.tsa
      ~log:(Filename.concat run.dir (Printf.sprintf "proxy-%d.log" rep))
      ~marker:"proxy on "
      [
        "proxy"; "--listen"; "127.0.0.1:0"; "--endpoints"; String.concat "," replica_eps;
        "--cache-dir"; cache_dir;
      ]
  in
  List.iter (fun ep -> ignore (Client.call ep {|{"op":"stats"}|})) (replica_eps @ [ proxy.Proc.endpoint ]);
  (replicas @ [ proxy ], replica_eps, proxy.Proc.endpoint)

let setup (cfg : config) run ~rep =
  let hot = Models.write_set ~dir:run.dir ~prefix:"hot" ~shape:cfg.hot ~seed:run.seed ~count:cfg.hot_count in
  let fresh =
    Models.write_set ~dir:run.dir ~prefix:"fresh" ~shape:cfg.fresh ~seed:run.seed ~count:cfg.fresh_pool
  in
  let sweeps = sweep_pool cfg ~seed:run.seed hot in
  let procs, replica_eps, proxy_ep = start_fleet run ~rep in
  (* warm-up: every hot model analyzed and every hot base prepared on
     its home replica, so the window measures hits *)
  let c = Client.connect proxy_ep in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
      Array.iteri
        (fun h path ->
          ignore (Client.request c (analyze_line path));
          ignore (Client.request c (sweep_line path [ [ P.Sw_delay { sw_arc = h; sw_delta = 0.5 } ] ])))
        hot);
  { hot; fresh; sweeps; procs; replica_eps; proxy_ep }

(* ------------------------------------------------------------------ *)
(* the seeded request stream, shared by the client connections        *)

type stream = {
  lock : Mutex.t;
  st : Random.State.t;
  mutable next : int;
  mutable pending : kind option;
  mutable next_fresh : int;
}

let take s (cfg : config) (su : setup) =
  Mutex.protect s.lock (fun () ->
      let i = s.next in
      s.next <- i + 1;
      let kind =
        match s.pending with
        | Some k ->
          s.pending <- None;
          k
        | None ->
          let u = Random.State.float s.st 1. in
          if u < 0.025 then begin
            let k = Fresh (s.next_fresh mod cfg.fresh_pool) in
            s.next_fresh <- s.next_fresh + 1;
            s.pending <- Some k;
            k
          end
          else if u < 0.225 then Sweep (Random.State.int s.st (Array.length su.sweeps))
          else Hot (Random.State.int s.st (Array.length su.hot))
      in
      (i, kind))

let line_of (su : setup) = function
  | Hot h -> analyze_line su.hot.(h)
  | Fresh f -> analyze_line su.fresh.(f)
  | Sweep s ->
    let h, scenarios = su.sweeps.(s) in
    sweep_line su.hot.(h) scenarios

type record = { seq : int; kind : kind; ms : float; answer : Digest.t option }

let drive (cfg : config) run (su : setup) spans =
  let s =
    { lock = Mutex.create (); st = Models.rng run.seed "requests"; next = 0; pending = None; next_fresh = 0 }
  in
  let span_lock = Mutex.create () in
  let completed = Atomic.make 0 and refused = Atomic.make 0 in
  let t0 = now () in
  let deadline = t0 +. run.seconds in
  let records = Array.make connections [] in
  let client c =
    let conn = ref None in
    let request line =
      let c =
        match !conn with
        | Some c -> c
        | None ->
          let c = Client.connect su.proxy_ep in
          conn := Some c;
          c
      in
      Client.request c line
    in
    let rec loop () =
      if now () < deadline || Atomic.get completed < cfg.min_requests then begin
        let seq, kind = take s cfg su in
        let line = line_of su kind in
        let a = now () in
        let response =
          try Some (request line)
          with _ ->
            (* a broken connection fails this request; the next one
               reconnects *)
            Option.iter Client.close !conn;
            conn := None;
            None
        in
        let b = now () in
        Atomic.incr completed;
        let answer =
          match response with
          | Some r when is_ok r -> Some (fingerprint kind r)
          | Some r ->
            if Atomic.fetch_and_add refused 1 = 0 then prerr_endline ("perfbench: refused: " ^ r);
            None
          | None -> None
        in
        if traced run seq then
          Mutex.protect span_lock (fun () ->
              ignore
                (Spans.push spans
                   {
                     Spans.name = (match kind with Hot _ -> "hot" | Sweep _ -> "sweep" | Fresh _ -> "fresh");
                     op = seq;
                     parent = -1;
                     t0 = a;
                     t1 = b;
                   }));
        records.(c) <- { seq; kind; ms = (b -. a) *. 1000.; answer } :: records.(c);
        loop ()
      end
    in
    Fun.protect ~finally:(fun () -> Option.iter Client.close !conn) loop
  in
  let threads = List.init connections (fun c -> Thread.create client c) in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  let all = List.concat (Array.to_list records) in
  (List.sort (fun a b -> compare a.seq b.seq) all, elapsed)

(* ------------------------------------------------------------------ *)
(* checks and per-layer replays, after the fleet is stopped            *)

let expected_analyze path =
  match Tsg_io.Loader.load_file path with
  | Error msg -> failwith msg
  | Ok m ->
    let g = m.Tsg_io.Loader.graph in
    let r = Cycle_time.analyze g in
    (Tsg_io.Rpc.analyze_response ~model:m.Tsg_io.Loader.name g r, (m.Tsg_io.Loader.name, g, r))

let expected_sweep (su : setup) bases s =
  let h, scenarios = su.sweeps.(s) in
  let name, base = bases h in
  let g = Whatif.signal_graph base in
  let items =
    List.map
      (fun edits ->
        let changes =
          List.map
            (function
              | P.Sw_delay { sw_arc; sw_delta } -> Whatif.Delay { arc = sw_arc; delta = sw_delta }
              | _ -> invalid_arg "serve_mixed sweeps carry delay edits only")
            edits
        in
        { Tsg_io.Rpc.edits; elapsed_ms = 0.; outcome = Ok (Whatif.reanalyze_changes base changes) })
      scenarios
  in
  Tsg_io.Rpc.sweep_response ~model:name g items

let memo f =
  let tbl = Hashtbl.create 64 in
  fun k ->
    match Hashtbl.find_opt tbl k with
    | Some v -> v
    | None ->
      let v = f k in
      Hashtbl.replace tbl k v;
      v

(* mean wall time of [f] in ms over [n] calls (short calls are timed
   in a batch, the clock being microsecond-grained) *)
let time_ms ?(n = 1) f =
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) *. 1000. /. float_of_int n

let run (cfg : config) run =
  let reps = ref 0 in
  let setup_s, su =
    repeat_setup cfg (fun () ->
        incr reps;
        let su = setup cfg run ~rep:!reps in
        (su, fun () -> Proc.stop_all su.procs))
  in
  Fun.protect ~finally:(fun () -> Proc.stop_all su.procs) @@ fun () ->
  let stats ep = parse_json (Client.call ep {|{"op":"stats"}|}) in
  let replicas_before = List.map stats su.replica_eps in
  let proxy_before = stats su.proxy_ep in
  let spans = Spans.create () in
  let records, elapsed_s = drive cfg run su spans in
  let replicas_after = List.map stats su.replica_eps in
  let proxy_after = stats su.proxy_ep in
  let peak_rss_mb =
    List.fold_left (fun acc p -> acc +. Proc.peak_rss_mb p.Proc.pid) 0. su.procs
  in
  Proc.stop_all su.procs;
  (* expected answers, computed in-process *)
  let hot_expected = memo (fun h -> expected_analyze su.hot.(h)) in
  let fresh_expected = memo (fun f -> expected_analyze su.fresh.(f)) in
  let bases =
    memo (fun h ->
        let name, g, _ = snd (hot_expected h) in
        (name, Whatif.prepare g))
  in
  let sweep_expected = memo (fun s -> expected_sweep su bases s) in
  let expected = function
    | Hot h -> fingerprint (Hot h) (fst (hot_expected h))
    | Fresh f -> fingerprint (Fresh f) (fst (fresh_expected f))
    | Sweep s -> fingerprint (Sweep s) (sweep_expected s)
  in
  let failed =
    List.fold_left
      (fun n r -> if r.answer = Some (expected r.kind) then n else n + 1)
      0 records
  in
  let latencies_ms =
    Array.of_list (List.filter_map (fun r -> Option.map (fun _ -> r.ms) r.answer) records)
  in
  let pairs = List.combine replicas_before replicas_after in
  let requests = delta pairs "server/requests" in
  let connections_per_request = Stats.ratio (delta pairs "server/connections") requests in
  let layers =
    if not run.trace then []
    else begin
      let fresh_keys =
        List.sort_uniq compare (List.filter_map (fun r -> match r.kind with Fresh f -> Some f | _ -> None) records)
      in
      let hits name = delta pairs (name ^ "/hits") and misses name = delta pairs (name ^ "/misses") in
      let hit_ratio name = Stats.ratio (hits name) (hits name +. misses name) in
      let proxy_pair = [ (proxy_before, proxy_after) ] in
      let upstream_p50 = bucket_percentile (window_buckets proxy_pair "proxy/upstream_ms") 0.5 in
      let server_ms = window_buckets pairs "server/request_ms" in
      let hedges = delta proxy_pair "proxy/hedges" in
      (* the replica's per-request prefix (parse, load, digest, encode)
         replayed in-process over the first requests of the window *)
      let sample = List.filteri (fun i _ -> i < 200) records in
      let n = float_of_int (max 1 (List.length sample)) in
      let sum f = List.fold_left (fun acc r -> acc +. f r) 0. sample /. n in
      let path_of = function
        | Hot h -> su.hot.(h)
        | Fresh f -> su.fresh.(f)
        | Sweep s -> su.hot.(fst su.sweeps.(s))
      in
      let parse_us = sum (fun r -> 1000. *. time_ms ~n:100 (fun () -> P.parse_request (line_of su r.kind))) in
      let loader_ms = sum (fun r -> time_ms (fun () -> Pipeline.load (path_of r.kind))) in
      let digest_ms =
        sum (fun r ->
            let g = Pipeline.load (path_of r.kind) in
            time_ms (fun () -> Signal_graph.digest g))
      in
      let encode_ms =
        sum (fun r ->
            match r.kind with
            | Hot h ->
              let _, (name, g, rep) = hot_expected h in
              time_ms ~n:10 (fun () -> Tsg_io.Rpc.analyze_response ~model:name g rep)
            | Fresh f ->
              let _, (name, g, rep) = fresh_expected f in
              time_ms ~n:10 (fun () -> Tsg_io.Rpc.analyze_response ~model:name g rep)
            | Sweep _ -> 0.)
      in
      let client_p50 = Stats.median latencies_ms in
      [
        ("loader.ms_per_op", loader_ms);
        ("digest.ms_per_op", digest_ms);
        ("encode.ms_per_op", encode_ms);
        ("protocol.parse_us", parse_us);
        ("cache.hit_ratio", hit_ratio "cache");
        ("whatif_cache.hit_ratio", hit_ratio "whatif-cache");
        ( "cache.duplicate_computes",
          delta pairs "analyze/graphs" +. delta pairs "whatif/prepare_ms"
          -. float_of_int (List.length fresh_keys) );
        ("disk_cache.writes", delta pairs "disk-cache/writes");
        ("disk_cache.write_p50_ms", bucket_percentile (window_buckets pairs "disk-cache/write_ms") 0.5);
        ("disk_cache.read_p50_ms", bucket_percentile (window_buckets pairs "disk-cache/read_ms") 0.5);
        ("server.request_p50_ms", bucket_percentile server_ms 0.5);
        ("server.request_p99_ms", bucket_percentile server_ms 0.99);
        ("server.connections_per_request", connections_per_request);
        ("proxy.upstream_p50_ms", upstream_p50);
        ("proxy.self_p50_ms", client_p50 -. upstream_p50);
        ("proxy.hedges", hedges);
        ("proxy.hedge_win_ratio", Stats.ratio (delta proxy_pair "proxy/hedge_wins") hedges);
        ("proxy.retries", delta proxy_pair "proxy/retries");
        ("proxy.overloaded", delta proxy_pair "proxy/overloaded");
        ("trace.overhead_per_s",
          trace_overhead ~concurrency:connections
            (Array.of_list (List.map (fun r -> r.ms) records)));
      ]
    end
  in
  {
    setup_s;
    latencies_ms;
    elapsed_s;
    attempted = List.length records;
    failed;
    peak_rss_mb;
    exact = [ ("server.connections_per_request", connections_per_request) ];
    layers;
    spans;
  }
