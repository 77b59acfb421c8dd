(* The observability layer's tracing buffer: disabled-mode no-ops,
   span nesting and ordering, the Chrome trace-event exporter (golden
   output on hand-built events, structural checks on a real analysis
   validated through the protocol's own JSON parser). *)

open Tsg_obs

(* tracing is process-global; every test leaves it off and empty *)
let quiesce () =
  Trace.disable ();
  Trace.clear ()

let with_tracing f = Fun.protect ~finally:quiesce f

let find_spans name evs =
  List.filter_map
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Span { dur_us; depth } when ev.Trace.name = name ->
        Some (ev, dur_us, depth)
      | _ -> None)
    evs

let test_disabled_is_a_no_op () =
  quiesce ();
  Alcotest.(check bool) "disabled by default" false (Trace.enabled ());
  let r = Trace.with_span "phantom" (fun () -> 6 * 7) in
  Alcotest.(check int) "with_span returns the body's value" 42 r;
  Trace.instant "ghost";
  Trace.counter "nothing" 1.;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Trace.events ()))

let test_span_nesting_and_ordering () =
  with_tracing @@ fun () ->
  Trace.enable ();
  let r =
    Trace.with_span "outer" (fun () ->
        let a = Trace.with_span "inner1" (fun () -> 1) in
        let b = Trace.with_span "inner2" (fun () -> 2) in
        a + b)
  in
  Trace.disable ();
  Alcotest.(check int) "nested value" 3 r;
  let evs = Trace.events () in
  Alcotest.(check int) "three spans" 3 (List.length evs);
  (match List.map (fun (ev : Trace.event) -> ev.Trace.name) evs with
  | [ "outer"; "inner1"; "inner2" ] -> ()
  | names -> Alcotest.failf "wrong order: %s" (String.concat ", " names));
  let outer, outer_dur, outer_depth =
    match find_spans "outer" evs with [ x ] -> x | _ -> Alcotest.fail "one outer"
  in
  let inner, inner_dur, inner_depth =
    match find_spans "inner1" evs with [ x ] -> x | _ -> Alcotest.fail "one inner1"
  in
  Alcotest.(check int) "outer at depth 0" 0 outer_depth;
  Alcotest.(check int) "inner at depth 1" 1 inner_depth;
  Alcotest.(check bool) "inner starts after outer" true
    (inner.Trace.ts_us >= outer.Trace.ts_us);
  Alcotest.(check bool) "inner ends before outer" true
    (inner.Trace.ts_us +. inner_dur <= outer.Trace.ts_us +. outer_dur +. 1e-3)

let test_span_survives_an_exception () =
  with_tracing @@ fun () ->
  Trace.enable ();
  (try Trace.with_span "doomed" (fun () -> failwith "boom") with Failure _ -> ());
  Trace.disable ();
  Alcotest.(check int) "span recorded on raise" 1
    (List.length (find_spans "doomed" (Trace.events ())))

let test_durations_aggregate () =
  with_tracing @@ fun () ->
  Trace.enable ();
  Trace.with_span "phase" (fun () -> ());
  Trace.with_span "phase" (fun () -> ());
  Trace.with_span "other" (fun () -> ());
  Trace.instant "noise";
  Trace.disable ();
  match Trace.durations (Trace.events ()) with
  | [ ("other", 1, t1); ("phase", 2, t2) ] ->
    Alcotest.(check bool) "non-negative totals" true (t1 >= 0. && t2 >= 0.)
  | other -> Alcotest.failf "unexpected aggregation (%d rows)" (List.length other)

(* ------------------------------------------------------------------ *)
(* Chrome export                                                       *)

let test_chrome_json_golden () =
  let ev name ts_us args kind =
    { Trace.name; cat = "timesim"; ts_us; tid = 0; args; kind }
  in
  let evs =
    [
      ev "load" 0. [ ("model", "fig1") ] (Trace.Span { dur_us = 125.; depth = 0 });
      ev "cache/hit" 200.5 [] Trace.Instant;
      ev "rss" 300. [] (Trace.Counter 42.);
    ]
  in
  let expected =
    {|{"traceEvents":[|}
    ^ {|{"name":"load","cat":"timesim","ts":0.000,"pid":1,"tid":0,"ph":"X","dur":125.000,"args":{"model":"fig1"}},|}
    ^ {|{"name":"cache/hit","cat":"timesim","ts":200.500,"pid":1,"tid":0,"ph":"i","s":"t","args":{}},|}
    ^ {|{"name":"rss","cat":"timesim","ts":300.000,"pid":1,"tid":0,"ph":"C","args":{"value":42}}|}
    ^ {|],"displayTimeUnit":"ms"}|}
  in
  Alcotest.(check string) "golden Chrome trace" expected (Trace.to_chrome_json ~pid:1 evs)

let test_chrome_json_escapes () =
  let evs =
    [
      {
        Trace.name = {|a"b\c|};
        cat = "t\nab";
        ts_us = 1.;
        tid = 0;
        args = [ ("k\"", "v\\") ];
        kind = Trace.Instant;
      };
    ]
  in
  let s = Trace.to_chrome_json ~pid:1 evs in
  (match Tsg_engine.Protocol.json_of_string s with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "escaped trace does not parse: %s" msg);
  Alcotest.(check bool) "no raw quote leaks" true
    (not (String.length s = 0))

(* trace a real analysis and validate the export through the shared
   JSON reader: one span per pipeline phase, one longest-paths span
   per lane pass *)
let test_real_analysis_trace () =
  with_tracing @@ fun () ->
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  Trace.enable ();
  let report = Tsg.Cycle_time.analyze g in
  Trace.disable ();
  let evs = Trace.events () in
  List.iter
    (fun phase ->
      Alcotest.(check int)
        (Printf.sprintf "one %s span" phase)
        1
        (List.length (find_spans phase evs)))
    [ "analyze"; "border"; "unfold"; "simulate"; "backtrack" ];
  (* simulate_many relaxes the b border events in ceil(b / 8) lane
     passes *)
  let b = List.length report.Tsg.Cycle_time.border in
  Alcotest.(check int)
    "one longest-paths span per lane pass, plus the backtrack re-run"
    (((b + 7) / 8) + 1)
    (List.length (find_spans "longest_paths" evs));
  (* the export is well-formed JSON with one record per event *)
  match Tsg_engine.Protocol.json_of_string (Trace.to_chrome_json ~pid:1 evs) with
  | Error msg -> Alcotest.failf "trace JSON does not parse: %s" msg
  | Ok doc -> (
    match Tsg_engine.Protocol.member "traceEvents" doc with
    | Some (Tsg_engine.Protocol.List records) ->
      Alcotest.(check int) "one record per event" (List.length evs)
        (List.length records);
      List.iter
        (fun r ->
          match Tsg_engine.Protocol.member "ph" r with
          | Some (Tsg_engine.Protocol.String ("X" | "i" | "C")) -> ()
          | _ -> Alcotest.fail "record without a known phase letter")
        records
    | _ -> Alcotest.fail "no traceEvents array")

let test_enable_clears_previous_recording () =
  with_tracing @@ fun () ->
  Trace.enable ();
  Trace.instant "old";
  Trace.enable ();
  Trace.instant "new";
  Trace.disable ();
  match Trace.events () with
  | [ ev ] -> Alcotest.(check string) "only the new event" "new" ev.Trace.name
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

let suite =
  [
    Alcotest.test_case "disabled mode records nothing" `Quick test_disabled_is_a_no_op;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting_and_ordering;
    Alcotest.test_case "span recorded when the body raises" `Quick
      test_span_survives_an_exception;
    Alcotest.test_case "durations aggregate by name" `Quick test_durations_aggregate;
    Alcotest.test_case "Chrome export golden" `Quick test_chrome_json_golden;
    Alcotest.test_case "Chrome export escapes strings" `Quick test_chrome_json_escapes;
    Alcotest.test_case "a real analysis traces every phase" `Quick
      test_real_analysis_trace;
    Alcotest.test_case "enable clears the previous recording" `Quick
      test_enable_clears_previous_recording;
  ]
