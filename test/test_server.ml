(* Integration tests of the tsa serve daemon: a real Unix-domain
   socket in front of the shipped handler (Tsg_io.Service.Replica),
   concurrent clients, malformed input, and cache behaviour observed
   through Metrics and the stats reply. *)

open Tsg_engine

let benchmarks_dir = try Sys.getenv "BENCHMARKS" with Not_found -> "../benchmarks"
let bench file = Filename.concat benchmarks_dir file

(* these tests drive the Unix transport; TCP has its own cases below
   and in test_router.ml *)
let call ?retries ?backoff_ms ~socket requests =
  Server.call ?retries ?backoff_ms ~endpoint:(Server.Unix_socket socket) requests

(* a replica configured as `tsa serve` would be from these flags *)
let replica ?(jobs = 2) ?(max_sweep = 4096) ?cache_dir endpoint =
  Tsg_io.Service.Replica.create
    {
      endpoint;
      shard = None;
      cache_size = 32;
      cache_dir;
      disk_cache_size = 64;
      jobs;
      max_sweep;
    }

(* serve [svc] on [endpoint] from a thread; [wrap] decorates the
   shipped handler (e.g. to slow it down).  Returns the thread and the
   endpoint as bound, once it is accepting. *)
let start_replica ?(wrap = Fun.id) ~endpoint svc =
  let bound = ref None in
  let thread =
    Thread.create
      (fun () ->
        Server.serve
          ~on_ready:(fun ep ->
            Tsg_io.Service.Replica.on_ready svc ep;
            bound := Some ep)
          ~endpoint ~handler:(wrap (Tsg_io.Service.Replica.handler svc)) ();
        Tsg_io.Service.Replica.close svc)
      ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !bound = None && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  match !bound with
  | None -> Alcotest.fail "replica never became ready"
  | Some ep -> (thread, ep)

(* an in-process TCP replica, as one shard of a fleet; [port] pins it
   (restart drills) *)
let start_tcp_replica ?wrap ?(port = 0) ?jobs ?cache_dir () =
  let endpoint = Server.Tcp { host = "127.0.0.1"; port } in
  start_replica ?wrap ~endpoint (replica ?jobs ?cache_dir endpoint)

let stop_replica (thread, ep) =
  (try ignore (Server.call ~endpoint:ep [ {|{"op":"shutdown"}|} ])
   with Unix.Unix_error _ | Failure _ -> ());
  Thread.join thread

let socket_counter = ref 0

let fresh_socket prefix =
  incr socket_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "%s-%d-%d.sock" prefix (Unix.getpid ()) !socket_counter)

let with_server f =
  let socket = fresh_socket "tsa-test" in
  let endpoint = Server.Unix_socket socket in
  let server = start_replica ~endpoint (replica endpoint) in
  Alcotest.(check bool) "server socket appeared" true (Sys.file_exists socket);
  (* stop the daemon if the test body has not already done so *)
  Fun.protect ~finally:(fun () -> stop_replica server) (fun () -> f ~socket)

(* response inspection through the protocol's own JSON parser *)
let parse_response line =
  match Protocol.json_of_string line with
  | Ok j -> j
  | Error msg -> Alcotest.failf "unparseable response %S: %s" line msg

let status j =
  match Protocol.member "status" j with
  | Some (Protocol.String s) -> s
  | _ -> Alcotest.fail "response without a status field"

let number_at path j =
  let rec go j = function
    | [] -> ( match j with Protocol.Number f -> f | _ -> Alcotest.fail "not a number")
    | k :: rest -> (
      match Protocol.member k j with
      | Some v -> go v rest
      | None -> Alcotest.failf "missing field %S" k)
  in
  go j path

let string_at path j =
  let rec go j = function
    | [] -> ( match j with Protocol.String s -> s | _ -> Alcotest.fail "not a string")
    | k :: rest -> (
      match Protocol.member k j with
      | Some v -> go v rest
      | None -> Alcotest.failf "missing field %S" k)
  in
  go j path

let analyze_req path =
  Protocol.request_to_string
    (Protocol.Analyze { path; periods = None; timeout_ms = None })

let sweep_req ?(jobs = Some 2) ?timeout_ms path scenarios =
  Protocol.request_to_string
    (Protocol.Sweep
       {
         path;
         scenarios =
           List.map
             (List.map (fun (arc, delta) ->
                  Protocol.Sw_delay { sw_arc = arc; sw_delta = delta }))
             scenarios;
         periods = None;
         jobs;
         timeout_ms;
       })

(* ------------------------------------------------------------------ *)

let test_round_trip () =
  with_server @@ fun ~socket ->
  match call ~socket [ analyze_req (bench "fig1.g"); analyze_req (bench "ring5.g") ] with
  | [ fig1; ring5 ] ->
    let fig1 = parse_response fig1 and ring5 = parse_response ring5 in
    Alcotest.(check string) "fig1 ok" "ok" (status fig1);
    Helpers.check_float "fig1 cycle time" 10. (number_at [ "report"; "cycle_time" ] fig1);
    Helpers.check_float "ring5 cycle time" (20. /. 3.)
      (number_at [ "report"; "cycle_time" ] ring5)
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_malformed_request_is_isolated () =
  with_server @@ fun ~socket ->
  let requests =
    [
      "this is not json";
      {|{"op":"frobnicate"}|};
      {|{"op":"analyze"}|};
      {|{"op":"analyze","path":"no_such_file.g"}|};
      analyze_req (bench "fig1.g");
    ]
  in
  let responses = List.map parse_response (call ~socket requests) in
  (match responses with
  | [ bad_json; bad_op; no_path; no_file; good ] ->
    List.iter
      (fun r -> Alcotest.(check string) "error status" "error" (status r))
      [ bad_json; bad_op; no_path; no_file ];
    (* the connection survived four errors and still answers *)
    Alcotest.(check string) "subsequent request served" "ok" (status good)
  | _ -> Alcotest.fail "expected five responses");
  ()

let test_second_request_is_a_cache_hit () =
  with_server @@ fun ~socket ->
  let req = analyze_req (bench "stack66.g") in
  let first =
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  let sims_after_first = Metrics.count "simulations/initiated" in
  let analyzed_after_first = Metrics.count "analyze/graphs" in
  let second =
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  Alcotest.(check string) "byte-identical response on the cache hit" first second;
  Alcotest.(check int)
    "no second simulation" sims_after_first
    (Metrics.count "simulations/initiated");
  Alcotest.(check int)
    "no second analysis" analyzed_after_first
    (Metrics.count "analyze/graphs");
  let s =
    match call ~socket [ {|{"op":"stats"}|} ] with
    | [ r ] -> parse_response r
    | _ -> Alcotest.fail "one response"
  in
  Alcotest.(check bool) "a hit was recorded" true (number_at [ "cache"; "hits" ] s >= 1.);
  Alcotest.(check string) "first response was ok" "ok" (status (parse_response first))

let test_concurrent_clients () =
  with_server @@ fun ~socket ->
  let files = [ "fig1.g"; "ring5.g"; "fifo2.g"; "fork_join.g" ] in
  let expected = [ 10.; 20. /. 3.; 5.; 7. ] in
  let results = Array.make (List.length files) None in
  let clients =
    List.mapi
      (fun i file ->
        Thread.create
          (fun () ->
            (* every client hammers its file a few times on one connection *)
            let reqs = List.init 3 (fun _ -> analyze_req (bench file)) in
            match call ~socket reqs with
            | responses -> results.(i) <- Some responses
            | exception exn -> results.(i) <- Some [ Printexc.to_string exn ])
          ())
      files
  in
  List.iter Thread.join clients;
  List.iteri
    (fun i lambda ->
      match results.(i) with
      | Some (first :: rest) ->
        let j = parse_response first in
        Alcotest.(check string) "ok" "ok" (status j);
        Helpers.check_float "cycle time" lambda (number_at [ "report"; "cycle_time" ] j);
        List.iter
          (fun r -> Alcotest.(check string) "identical across the connection" first r)
          rest
      | _ -> Alcotest.failf "client %d got no responses" i)
    expected

let test_batch_and_stats () =
  with_server @@ fun ~socket ->
  let batch =
    Protocol.request_to_string
      (Protocol.Batch
         {
           paths = [ bench "fig1.g"; "no_such_file.g"; bench "fig1.g" ];
           periods = None;
           jobs = Some 2;
           timeout_ms = None;
         })
  in
  match call ~socket [ batch; {|{"op":"stats"}|} ] with
  | [ batch_resp; stats_resp ] ->
    let b = parse_response batch_resp in
    Alcotest.(check string) "batch ok" "ok" (status b);
    Helpers.check_float "three items" 3. (number_at [ "summary"; "total" ] b);
    Helpers.check_float "one failure" 1. (number_at [ "summary"; "failed" ] b);
    let s = parse_response stats_resp in
    Alcotest.(check string) "stats ok" "ok" (status s);
    (* the duplicated fig1.g was served from the cache *)
    Alcotest.(check bool) "cache hits reported" true
      (number_at [ "cache"; "hits" ] s >= 1.);
    (match Protocol.member "metrics" s with
    | Some (Protocol.List (_ :: _)) -> ()
    | _ -> Alcotest.fail "stats response carries a metrics snapshot")
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_stats_reports_latency_percentiles () =
  with_server @@ fun ~socket ->
  (* several requests first, so the daemon has a latency distribution
     to report *)
  let n = 5 in
  let reqs = List.init n (fun _ -> analyze_req (bench "fig1.g")) in
  ignore (call ~socket reqs);
  match call ~socket [ {|{"op":"stats"}|} ] with
  | [ stats_resp ] -> (
    let s = parse_response stats_resp in
    Alcotest.(check string) "stats ok" "ok" (status s);
    let entries =
      match Protocol.member "latency" s with
      | Some (Protocol.List l) -> l
      | _ -> Alcotest.fail "stats response carries a latency block"
    in
    match
      List.find_opt
        (fun e ->
          Protocol.member "name" e = Some (Protocol.String "server/request_ms"))
        entries
    with
    | None -> Alcotest.fail "no server/request_ms histogram in stats"
    | Some e ->
      Alcotest.(check bool) "every request was measured" true
        (number_at [ "count" ] e >= float_of_int n);
      let p50 = number_at [ "p50_ms" ] e
      and p95 = number_at [ "p95_ms" ] e
      and p99 = number_at [ "p99_ms" ] e
      and max_ms = number_at [ "max_ms" ] e in
      Alcotest.(check bool) "percentiles are monotone" true
        (p50 <= p95 && p95 <= p99 && p99 <= max_ms);
      Alcotest.(check bool) "latencies are positive" true (p50 > 0.))
  | other -> Alcotest.failf "expected one response, got %d" (List.length other)

let test_sweep_round_trip () =
  with_server @@ fun ~socket ->
  (* four scenarios: a real edit, a joint edit, a zero-delta no-op and
     a bad arc id — plus a plain analyze of the same model to compare
     the short-circuited item against *)
  let sweep =
    sweep_req (bench "stack66.g")
      [ [ (0, 1.5) ]; [ (1, 0.5); (2, 0.25) ]; [ (0, 0.) ]; [ (-7, 1.) ] ]
  in
  match call ~socket [ sweep; analyze_req (bench "stack66.g") ] with
  | [ sweep_resp; analyze_resp ] ->
    let s = parse_response sweep_resp and a = parse_response analyze_resp in
    Alcotest.(check string) "sweep ok" "ok" (status s);
    Helpers.check_float "four scenarios" 4. (number_at [ "summary"; "total" ] s);
    Helpers.check_float "bad arc isolated" 1. (number_at [ "summary"; "failed" ] s);
    let items =
      match Protocol.member "items" s with
      | Some (Protocol.List l) -> Array.of_list l
      | _ -> Alcotest.fail "sweep response carries items"
    in
    Alcotest.(check int) "one item per scenario" 4 (Array.length items);
    Alcotest.(check string) "edit ran warm" "warm" (string_at [ "path" ] items.(0));
    Alcotest.(check string) "joint edit ran warm" "warm" (string_at [ "path" ] items.(1));
    Alcotest.(check string)
      "zero-delta short-circuits" "short_circuit"
      (string_at [ "path" ] items.(2));
    Helpers.check_float "short circuit returns the base analysis"
      (number_at [ "report"; "cycle_time" ] a)
      (number_at [ "report"; "cycle_time" ] items.(2));
    Alcotest.(check string) "bad arc is an error item" "error" (status items.(3))
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_structural_sweep_round_trip () =
  with_server @@ fun ~socket ->
  (* remove arc 0 and add an identical arc back: a genuinely structural
     scenario whose answer must equal the base analysis — but arrive
     via the warm structural path, not a short-circuit (the arc ids
     permute).  The marking no-op scenario IS a literal no-op and must
     short-circuit.  Old-style delay edits ride in the same request:
     tsa-rpc/3 clients keep working against the tsa-rpc/4 daemon. *)
  let path = bench "stack66.g" in
  let a0 =
    match Tsg_io.Loader.load_file path with
    | Ok m -> (Tsg.Signal_graph.arcs m.Tsg_io.Loader.graph).(0)
    | Error msg -> Alcotest.failf "cannot load %s: %s" path msg
  in
  let sweep =
    Protocol.request_to_string
      (Protocol.Sweep
         {
           path;
           scenarios =
             [
               [
                 Protocol.Sw_remove 0;
                 Protocol.Sw_add
                   {
                     sw_src = Protocol.Ev_id a0.Tsg.Signal_graph.arc_src;
                     sw_dst = Protocol.Ev_id a0.Tsg.Signal_graph.arc_dst;
                     sw_delay = a0.Tsg.Signal_graph.delay;
                     sw_marked = a0.Tsg.Signal_graph.marked;
                   };
               ];
               [ Protocol.Sw_mark { sw_arc = 0; sw_marked = a0.Tsg.Signal_graph.marked } ];
               [ Protocol.Sw_delay { sw_arc = 0; sw_delta = 1.5 } ];
             ];
           periods = None;
           jobs = Some 2;
           timeout_ms = None;
         })
  in
  match call ~socket [ sweep; analyze_req path ] with
  | [ sweep_resp; analyze_resp ] ->
    let s = parse_response sweep_resp and a = parse_response analyze_resp in
    Alcotest.(check string) "sweep ok" "ok" (status s);
    Helpers.check_float "three scenarios" 3. (number_at [ "summary"; "total" ] s);
    Helpers.check_float "none failed" 0. (number_at [ "summary"; "failed" ] s);
    let items =
      match Protocol.member "items" s with
      | Some (Protocol.List l) -> Array.of_list l
      | _ -> Alcotest.fail "sweep response carries items"
    in
    Alcotest.(check string) "remove+re-add ran warm" "warm"
      (string_at [ "path" ] items.(0));
    Helpers.check_float "remove+re-add keeps the cycle time"
      (number_at [ "report"; "cycle_time" ] a)
      (number_at [ "report"; "cycle_time" ] items.(0));
    Alcotest.(check string) "marking no-op short-circuits" "short_circuit"
      (string_at [ "path" ] items.(1));
    Alcotest.(check string) "delay edit still served" "warm"
      (string_at [ "path" ] items.(2))
  | other -> Alcotest.failf "expected two responses, got %d" (List.length other)

let test_shutdown_removes_socket () =
  with_server @@ fun ~socket ->
  (match call ~socket [ {|{"op":"shutdown"}|} ] with
  | [ resp ] -> Alcotest.(check string) "shutdown acknowledged" "ok" (status (parse_response resp))
  | _ -> Alcotest.fail "expected one response");
  (* the daemon unlinks its socket on the way out *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Sys.file_exists socket && Unix.gettimeofday () < deadline do
    Thread.yield ()
  done;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists socket)

let test_tcp_round_trip_matches_unix () =
  (* the same request over both transports must serve byte-identical
     responses: the transport frames bytes, it never renders them *)
  let req = analyze_req (bench "fig1.g") in
  let unix_resp =
    with_server @@ fun ~socket ->
    match call ~socket [ req ] with [ r ] -> r | _ -> Alcotest.fail "one response"
  in
  let ((_, ep) as server) = start_tcp_replica () in
  Fun.protect
    ~finally:(fun () -> stop_replica server)
    (fun () ->
      (match ep with
      | Server.Tcp { port; _ } ->
        Alcotest.(check bool) "kernel assigned a real port" true (port > 0)
      | Server.Unix_socket _ -> Alcotest.fail "expected a TCP endpoint");
      match Server.call ~endpoint:ep [ req; req ] with
      | [ first; second ] ->
        Alcotest.(check string) "ok over TCP" "ok" (status (parse_response first));
        Alcotest.(check string) "TCP matches Unix byte-for-byte" unix_resp first;
        Alcotest.(check string) "TCP cache hit is byte-identical" first second
      | other -> Alcotest.failf "expected two responses, got %d" (List.length other))

(* ------------------------------------------------------------------ *)
(* The shipped handler's laws and limits                               *)

(* sweep replies carry wall-clock [elapsed_ms] per item: pin every
   value to 0 so two replies can be compared byte-for-byte *)
let fix_elapsed reply =
  let tag = {|"elapsed_ms":|} in
  let n = String.length reply and k = String.length tag in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + k <= n && String.sub reply i k = tag then begin
      Buffer.add_string b tag;
      Buffer.add_char b '0';
      let j = ref (i + k) in
      while !j < n && String.contains "0123456789.eE+-" reply.[!j] do
        incr j
      done;
      go !j
    end
    else begin
      Buffer.add_char b reply.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let reply_of = function
  | Server.Reply r | Server.Final r -> r

(* [n] threads released together, each sending [line] straight to the
   handler; the replies in thread order *)
let race ?(n = 8) handler line =
  let go = Atomic.make false in
  let replies = Array.make n "" in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            while not (Atomic.get go) do
              Thread.yield ()
            done;
            replies.(i) <- reply_of (handler line))
          ())
  in
  Atomic.set go true;
  List.iter Thread.join threads;
  Array.to_list replies

let unbound = Server.Tcp { host = "127.0.0.1"; port = 0 }

let test_identical_requests_compute_once () =
  List.iter
    (fun jobs ->
      let handler = Tsg_io.Service.Replica.handler (replica ~jobs unbound) in
      let analyzed = Metrics.count "analyze/graphs" in
      (* gen-dense takes long enough to analyze and prepare that the
         racing threads arrive while the first is still in flight *)
      (match race handler (analyze_req "gen-dense") with
      | first :: rest ->
        Alcotest.(check string) "analyze ok" "ok" (status (parse_response first));
        List.iter (Alcotest.(check string) "analyze replies byte-identical" first) rest
      | [] -> assert false);
      Alcotest.(check int)
        (Printf.sprintf "one analysis for 8 racing misses (jobs %d)" jobs)
        (analyzed + 1)
        (Metrics.count "analyze/graphs");
      let prepared = Metrics.count "whatif-cache/misses" in
      let sweep = sweep_req ~jobs:None "gen-dense" [ [ (0, 1.5) ]; [ (1, 0.5) ] ] in
      (match List.map fix_elapsed (race handler sweep) with
      | first :: rest ->
        Alcotest.(check string) "sweep ok" "ok" (status (parse_response first));
        List.iter (Alcotest.(check string) "sweep replies identical" first) rest
      | [] -> assert false);
      Alcotest.(check int)
        (Printf.sprintf "one base prepared for 8 racing sweeps (jobs %d)" jobs)
        (prepared + 1)
        (Metrics.count "whatif-cache/misses"))
    [ 1; 2; 4 ]

let code_of reply =
  match Protocol.member "code" (parse_response reply) with
  | Some (Protocol.String c) -> c
  | _ -> Alcotest.failf "reply without an error code: %s" reply

let test_sweep_limits () =
  let handler = Tsg_io.Service.Replica.handler (replica ~max_sweep:2 unbound) in
  let ask line = reply_of (handler line) in
  Alcotest.(check string) "a sweep above max_sweep is refused" "too_large"
    (code_of (ask (sweep_req (bench "fig1.g") [ [ (0, 1.) ]; [ (1, 1.) ]; [ (2, 1.) ] ])));
  let sweep ?timeout_ms () = sweep_req ?timeout_ms (bench "stack66.g") [ [ (0, 1.5) ] ] in
  Alcotest.(check string) "a base preparation past its budget times out"
    "deadline_exceeded"
    (code_of (ask (sweep ~timeout_ms:0.001 ())));
  (* the timed-out preparation was not cached: without a budget the
     same sweep prepares and answers *)
  Alcotest.(check string) "the unbudgeted retry succeeds" "ok"
    (status (parse_response (ask (sweep ()))))

let fresh_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsa-test-%s-%d" name (Unix.getpid ()))
  in
  (try
     Array.iter
       (fun f -> try Unix.unlink (Filename.concat dir f) with Unix.Unix_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  dir

let test_restart_reads_the_disk_tier () =
  let cache_dir = fresh_dir "service-dc" in
  let req = analyze_req (bench "ring5.g") in
  let first = replica ~cache_dir unbound in
  let written = reply_of (Tsg_io.Service.Replica.handler first req) in
  Alcotest.(check string) "first answer ok" "ok" (status (parse_response written));
  (* close drains the write-behind queue, as a stopping daemon does *)
  Tsg_io.Service.Replica.close first;
  let restarted = replica ~cache_dir unbound in
  Fun.protect ~finally:(fun () -> Tsg_io.Service.Replica.close restarted) @@ fun () ->
  let handler = Tsg_io.Service.Replica.handler restarted in
  let analyzed = Metrics.count "analyze/graphs" in
  Alcotest.(check string) "the restarted replica serves the stored bytes" written
    (reply_of (handler req));
  Alcotest.(check int) "no analysis ran" analyzed (Metrics.count "analyze/graphs");
  let stats = parse_response (reply_of (handler {|{"op":"stats"}|})) in
  Alcotest.(check bool) "disk_cache hits went up" true
    (number_at [ "disk_cache"; "hits" ] stats >= 1.)

let suite =
  [
    Alcotest.test_case "analyze round-trip over the socket" `Quick test_round_trip;
    Alcotest.test_case "malformed requests get JSON errors" `Quick
      test_malformed_request_is_isolated;
    Alcotest.test_case "second request is a cache hit" `Quick
      test_second_request_is_a_cache_hit;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "batch request and stats" `Quick test_batch_and_stats;
    Alcotest.test_case "stats reports latency percentiles" `Quick
      test_stats_reports_latency_percentiles;
    Alcotest.test_case "sweep round-trip over the socket" `Quick test_sweep_round_trip;
    Alcotest.test_case "structural sweep round-trip over the socket" `Quick
      test_structural_sweep_round_trip;
    Alcotest.test_case "TCP round-trip matches Unix byte-for-byte" `Quick
      test_tcp_round_trip_matches_unix;
    Alcotest.test_case "shutdown removes the socket" `Quick test_shutdown_removes_socket;
    Alcotest.test_case "identical racing requests compute once" `Quick
      test_identical_requests_compute_once;
    Alcotest.test_case "sweep limits: max_sweep and prepare deadline" `Quick
      test_sweep_limits;
    Alcotest.test_case "a restarted replica reads the disk tier" `Quick
      test_restart_reads_the_disk_tier;
  ]
