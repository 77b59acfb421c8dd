(* The client-side shard router: rendezvous determinism, routing over
   a live TCP fleet of shipped replicas, failover when a replica dies
   mid-run, admission shedding and deadline refusal. *)

open Tsg_engine

let analyze_req = Test_server.analyze_req
let parse_response = Test_server.parse_response
let status = Test_server.status
let bench = Test_server.bench

let shard_name r i = Server.endpoint_to_string (List.nth (Router.endpoints r) i)

(* ------------------------------------------------------------------ *)
(* Pure hashing: no servers involved                                   *)

let fake_endpoints = List.map (fun p -> Server.Unix_socket p) [ "/a"; "/b"; "/c"; "/d" ]

let test_rendezvous_is_deterministic () =
  let r1 = Router.create fake_endpoints in
  let r2 = Router.create (List.rev fake_endpoints) in
  let keys = List.init 64 (fun i -> Printf.sprintf "digest-%d" (i * 37)) in
  List.iter
    (fun key ->
      (* the home shard is a property of (key, shard names), not of
         the order the endpoints were listed in *)
      Alcotest.(check string)
        (Printf.sprintf "home of %s is order-independent" key)
        (shard_name r1 (Router.home r1 key))
        (shard_name r2 (Router.home r2 key));
      Alcotest.(check (list int))
        "rank is a permutation of the shard indices"
        (List.init 4 Fun.id)
        (List.sort compare (Router.rank r1 key)))
    keys;
  (* rendezvous spreads keys: every shard is home to some key *)
  let homes = List.map (Router.home r1) keys in
  List.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "shard %d owns at least one key" i)
        true
        (List.mem i homes))
    fake_endpoints

let test_removing_a_shard_only_moves_its_keys () =
  (* the consistent-hashing property: dropping /d only reassigns keys
     whose home was /d — everyone else keeps their shard *)
  let r_all = Router.create fake_endpoints in
  let survivors = List.filter (fun ep -> ep <> Server.Unix_socket "/d") fake_endpoints in
  let r_less = Router.create survivors in
  let keys = List.init 128 (fun i -> Printf.sprintf "key-%d" i) in
  List.iter
    (fun key ->
      let before = shard_name r_all (Router.home r_all key) in
      let after = shard_name r_less (Router.home r_less key) in
      if before <> "/d" then
        Alcotest.(check string) "unaffected key stayed home" before after)
    keys

(* ------------------------------------------------------------------ *)
(* A live TCP fleet (in-process replicas)                              *)

let stop_server = Test_server.stop_replica

let with_fleet n f =
  let servers = List.init n (fun _ -> Test_server.start_tcp_replica ()) in
  Fun.protect
    ~finally:(fun () -> List.iter stop_server servers)
    (fun () -> f servers)

let route_ok r ~key request =
  match Router.route r ~key request with
  | Ok response -> response
  | Error e -> Alcotest.failf "route failed: %s" e

let test_route_over_live_fleet () =
  with_fleet 3 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~retries:1 ~backoff_ms:10. eps in
  let req = analyze_req (bench "fig1.g") in
  let key = "fig1-digest" in
  let via_router = route_ok r ~key req in
  Alcotest.(check string) "routed response ok" "ok" (status (parse_response via_router));
  (* byte-identity with a direct call to the home replica *)
  let home_ep = List.nth eps (Router.home r key) in
  (match Server.call ~endpoint:home_ep [ req ] with
  | [ direct ] ->
    Alcotest.(check string) "router adds nothing to the bytes" direct via_router
  | _ -> Alcotest.fail "expected one direct response");
  (* same key, same bytes, no rerouting while the fleet is healthy *)
  Alcotest.(check string) "second routed call identical" via_router
    (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check int) "two routed requests" 2 s.Router.requests;
  Alcotest.(check int) "no rerouting in a healthy fleet" 0 s.Router.rerouted;
  Alcotest.(check int) "no failovers in a healthy fleet" 0 s.Router.failovers

let test_failover_when_replica_dies () =
  with_fleet 3 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~retries:1 ~backoff_ms:10. eps in
  let req = analyze_req (bench "ring5.g") in
  let key = "ring5-digest" in
  let before = route_ok r ~key req in
  (* kill the key's home replica — the worst-case victim *)
  let home = Router.home r key in
  stop_server (List.nth servers home);
  let after = route_ok r ~key req in
  Alcotest.(check string) "failover response still ok" "ok"
    (status (parse_response after));
  Alcotest.(check string) "failover response byte-identical" before after;
  let s = Router.stats r in
  Alcotest.(check bool) "the dead replica cost a failover" true (s.Router.failovers >= 1);
  Alcotest.(check bool) "the request was rerouted off its home" true
    (s.Router.rerouted >= 1);
  let dead = List.nth s.Router.shards home in
  Alcotest.(check bool) "dead shard marked unhealthy" false dead.Router.healthy;
  (* with the home marked down, the next request skips it outright:
     no new failover, one more reroute *)
  let failovers_before = s.Router.failovers in
  Alcotest.(check string) "routing keeps working" before (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check int) "cooldown skips the dead shard without a failover"
    failovers_before s.Router.failovers

let test_broadcast () =
  with_fleet 2 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~retries:1 ~backoff_ms:10. eps in
  let replies = Router.broadcast r {|{"op":"stats"}|} in
  Alcotest.(check int) "one reply per replica" 2 (List.length replies);
  List.iter
    (fun (_, result) ->
      match result with
      | Ok resp -> Alcotest.(check string) "stats ok" "ok" (status (parse_response resp))
      | Error e -> Alcotest.failf "broadcast leg failed: %s" e)
    replies;
  stop_server (List.nth servers 0);
  let replies = Router.broadcast r {|{"op":"stats"}|} in
  let ok_count =
    List.length (List.filter (fun (_, res) -> Result.is_ok res) replies)
  in
  Alcotest.(check int) "dead replica reported per-shard, not fatally" 1 ok_count

let test_saturated_fleet_sheds () =
  with_fleet 1 @@ fun servers ->
  let eps = List.map snd servers in
  let r = Router.create ~max_inflight:0 eps in
  match Router.route r ~key:"k" (analyze_req (bench "fig1.g")) with
  | Ok _ -> Alcotest.fail "a saturated fleet must shed, not serve"
  | Error e ->
    let has_sub needle =
      let n = String.length needle and len = String.length e in
      let rec go i = i + n <= len && (String.sub e i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) "the error names the condition" true
      (has_sub "no shard available")

let test_probe_restores_restarted_replica () =
  with_fleet 2 @@ fun servers ->
  let eps = List.map snd servers in
  (* cooldown of a minute: within this test, only the active probe can
     restore a shard — routing's half-open retry never gets a chance *)
  let r =
    Router.create ~retries:0 ~backoff_ms:5. ~cooldown_s:60. ~probe_ms:40. eps
  in
  Fun.protect ~finally:(fun () -> Router.close r) @@ fun () ->
  let req = analyze_req (bench "fig1.g") in
  let key = "probe-digest" in
  ignore (route_ok r ~key req);
  let home = Router.home r key in
  stop_server (List.nth servers home);
  (* the next request fails over and marks the home shard down *)
  ignore (route_ok r ~key req);
  let s = Router.stats r in
  Alcotest.(check bool) "home marked unhealthy" false
    (List.nth s.Router.shards home).Router.healthy;
  let requests_before = s.Router.requests in
  (* resurrect a replica on the same port *)
  let port =
    match List.nth eps home with
    | Server.Tcp { port; _ } -> port
    | _ -> Alcotest.fail "expected a TCP endpoint"
  in
  let revived = Test_server.start_tcp_replica ~port () in
  Fun.protect ~finally:(fun () -> stop_server revived)
  @@ fun () ->
  (* no routing traffic from here on: recovery must come from the
     probe alone *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  let rec wait () =
    let s = Router.stats r in
    if (List.nth s.Router.shards home).Router.healthy then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.fail "probe never restored the restarted shard"
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  let s = wait () in
  Alcotest.(check int) "no routed request was needed" requests_before
    s.Router.requests;
  (* and routing to the home works again without a failover *)
  let failovers_before = s.Router.failovers in
  Alcotest.(check string) "restored shard serves" "ok"
    (status (parse_response (route_ok r ~key req)));
  let s = Router.stats r in
  Alcotest.(check int) "no failover after recovery" failovers_before
    s.Router.failovers

let test_expired_deadline_refused_before_dialing () =
  let r = Router.create fake_endpoints in
  let d = Deadline.make ~budget_ms:0.001 () in
  Unix.sleepf 0.01;
  Deadline.with_deadline d (fun () ->
      match Router.route r ~key:"k" {|{"op":"stats"}|} with
      | Ok _ -> Alcotest.fail "an expired deadline must not be served"
      | Error e ->
        Alcotest.(check bool) "deadline error surfaced" true
          (String.length e > 0))

let suite =
  [
    Alcotest.test_case "rendezvous hashing is deterministic" `Quick
      test_rendezvous_is_deterministic;
    Alcotest.test_case "removing a shard only moves its keys" `Quick
      test_removing_a_shard_only_moves_its_keys;
    Alcotest.test_case "routing over a live TCP fleet" `Quick test_route_over_live_fleet;
    Alcotest.test_case "failover when a replica dies" `Quick
      test_failover_when_replica_dies;
    Alcotest.test_case "broadcast reaches every replica" `Quick test_broadcast;
    Alcotest.test_case "saturated fleet sheds instead of queueing" `Quick
      test_saturated_fleet_sheds;
    Alcotest.test_case "active probe restores a restarted replica" `Quick
      test_probe_restores_restarted_replica;
    Alcotest.test_case "expired deadline refused before dialing" `Quick
      test_expired_deadline_refused_before_dialing;
  ]
