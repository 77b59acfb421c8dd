open Tsg

(* Warm-start what-if analysis must be an exact drop-in for a cold
   re-analysis of the edited graph: the serialised reports are compared
   as bytes, which is the same yardstick the daemon's cached responses
   are held to. *)

let render g report = Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g report)

let cold_render base edits =
  let g' = Whatif.edited_graph base edits in
  (g', render g' (Cycle_time.analyze ~periods:(Whatif.periods base) g'))

let check_warm_equals_cold msg base edits =
  let report, (stats : Whatif.stats) = Whatif.reanalyze base edits in
  let g', cold = cold_render base edits in
  Alcotest.(check string) (msg ^ ": bytes") cold (render g' report);
  Alcotest.(check int)
    (msg ^ ": reused + resimulated = b")
    (List.length (Whatif.border base))
    (stats.Whatif.reused + stats.Whatif.resimulated);
  stats

let fig1_base () = Whatif.prepare (Tsg_circuit.Circuit_library.fig1_tsg ())

(* ------------------------------------------------------------------ *)
(* Short circuits                                                      *)

let test_no_edits_short_circuit () =
  let base = fig1_base () in
  let report, stats = Whatif.reanalyze base [] in
  Alcotest.(check bool) "base report returned" true (report == Whatif.base_report base);
  Alcotest.(check bool)
    "short-circuit path" true
    (stats.Whatif.path = Whatif.Short_circuit)

let test_cancelling_edits_short_circuit () =
  let base = fig1_base () in
  let edits = [ { Whatif.arc = 0; delta = 2.5 }; { Whatif.arc = 0; delta = -2.5 } ] in
  let report, stats = Whatif.reanalyze base edits in
  Alcotest.(check bool) "base report returned" true (report == Whatif.base_report base);
  Alcotest.(check bool)
    "zero net delta short-circuits" true
    (stats.Whatif.path = Whatif.Short_circuit)

(* ------------------------------------------------------------------ *)
(* Warm = cold, byte for byte                                          *)

let test_single_edit_matches_cold () =
  let base = fig1_base () in
  let stats = check_warm_equals_cold "fig1 +1.5" base [ { Whatif.arc = 0; delta = 1.5 } ] in
  Alcotest.(check bool) "warm path taken" true (stats.Whatif.path = Whatif.Warm)

let test_decrease_matches_cold () =
  let base = Whatif.prepare (Tsg_circuit.Circuit_library.async_stack_tsg ()) in
  let g = Whatif.signal_graph base in
  (* shrink the first positive-delay arc to a third *)
  let arc, delay =
    let arcs = Signal_graph.arcs g in
    let rec find i = if arcs.(i).Signal_graph.delay > 0. then (i, arcs.(i).Signal_graph.delay) else find (i + 1) in
    find 0
  in
  ignore
    (check_warm_equals_cold "stack66 shrink" base
       [ { Whatif.arc; delta = -.delay /. 3. } ])

let test_multi_arc_scenario_matches_cold () =
  let base = Whatif.prepare (Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 ()) in
  let m = Signal_graph.arc_count (Whatif.signal_graph base) in
  ignore
    (check_warm_equals_cold "ring5 multi-arc" base
       [
         { Whatif.arc = 0; delta = 0.75 };
         { Whatif.arc = m / 2; delta = 3. };
         { Whatif.arc = m - 1; delta = 0.125 };
       ])

(* the QCheck law of the issue: sweep results are byte-identical to N
   independent analyze calls, across jobs *)
let qcheck_sweep_matches_independent =
  Helpers.qcheck_case ~count:40 ~name:"sweep == N independent cold analyses (bytes)"
    (fun g ->
      let base = Whatif.prepare g in
      let m = Signal_graph.arc_count g in
      let arcs = Signal_graph.arcs g in
      let scenarios =
        [|
          [ { Whatif.arc = 0; delta = 1.25 } ];
          [ { Whatif.arc = m / 2; delta = 6.5 } ];
          (* a shrink, kept non-negative *)
          [ { Whatif.arc = m - 1; delta = -.(arcs.(m - 1).Signal_graph.delay /. 2.) } ];
          [ { Whatif.arc = 0; delta = 0.5 }; { Whatif.arc = m / 3; delta = -0. } ];
        |]
      in
      let results = Whatif.sweep ~jobs:2 base scenarios in
      Array.iteri
        (fun i result ->
          match result with
          | Error msg -> QCheck2.Test.fail_reportf "scenario %d failed: %s" i msg
          | Ok (report, _) ->
            let g', cold = cold_render base scenarios.(i) in
            if render g' report <> cold then
              QCheck2.Test.fail_reportf "scenario %d: warm bytes differ from cold" i)
        results;
      true)

(* ------------------------------------------------------------------ *)
(* Structural edits: warm = cold, byte for byte                        *)

let cold_render_changes base changes =
  let g' = Whatif.edited_graph_changes base changes in
  (g', render g' (Cycle_time.analyze ~periods:(Whatif.periods base) g'))

let check_structural_equals_cold msg base changes =
  let report, (stats : Whatif.stats) = Whatif.reanalyze_changes base changes in
  let g', cold = cold_render_changes base changes in
  Alcotest.(check string) (msg ^ ": bytes") cold (render g' report);
  stats

let test_remove_arc_matches_cold () =
  (* gen-dense: removing an unmarked chord keeps the ring backbone
     strongly connected and live, and cannot move the border *)
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chord =
    let rec find i = if not arcs.(i).Signal_graph.marked then i else find (i + 1) in
    find events
  in
  let stats =
    check_structural_equals_cold "gen-dense remove chord" base [ Whatif.Remove_arc chord ]
  in
  Alcotest.(check bool) "warm path taken" true (stats.Whatif.path = Whatif.Warm)

let test_add_arc_matches_cold () =
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  (* an unmarked forward chord (src index < dst index) can never close
     a token-free cycle in this family and never moves the border *)
  let stats =
    check_structural_equals_cold "gen-dense add chord" base
      [ Whatif.Add_arc { src = 3; dst = 57; delay = 4.5; marked = false } ]
  in
  Alcotest.(check bool) "warm path taken" true (stats.Whatif.path = Whatif.Warm)

let test_mixed_structural_and_delay_matches_cold () =
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chord =
    let rec find i = if not arcs.(i).Signal_graph.marked then i else find (i + 1) in
    find events
  in
  ignore
    (check_structural_equals_cold "gen-dense mixed scenario" base
       [
         Whatif.Remove_arc chord;
         Whatif.Add_arc { src = 10; dst = 90; delay = 2.0; marked = false };
         Whatif.Delay { arc = 0; delta = 1.5 };
       ])

let test_border_change_falls_back_to_cold () =
  (* marking an unmarked in-arc of a non-border repetitive event grows
     the border: the prepared roots are wrong, so the answer must come
     from the cold route — and still match a cold analysis exactly *)
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let border = Whatif.border base in
  let arcs = Signal_graph.arcs g in
  let candidate =
    let rec find i =
      let a = arcs.(i) in
      if (not a.Signal_graph.marked)
         && (not a.Signal_graph.disengageable)
         && (not (List.mem a.Signal_graph.arc_dst border))
         && Signal_graph.is_repetitive g a.Signal_graph.arc_dst
      then i
      else find (i + 1)
    in
    find 0
  in
  let changes = [ Whatif.Set_marked { arc = candidate; marked = true } ] in
  Tsg_engine.Metrics.reset ();
  let stats = check_structural_equals_cold "border move" base changes in
  Alcotest.(check bool) "cold route" true (stats.Whatif.path = Whatif.Cold);
  Alcotest.(check int) "whatif/structural_cold counted" 1
    (Tsg_engine.Metrics.count "whatif/structural_cold")

let test_structural_noop_short_circuits () =
  let base = fig1_base () in
  let report, stats =
    Whatif.reanalyze_changes base
      [ Whatif.Set_marked { arc = 0; marked = (Signal_graph.arc (Whatif.signal_graph base) 0).Signal_graph.marked } ]
  in
  Alcotest.(check bool) "base report returned" true (report == Whatif.base_report base);
  Alcotest.(check bool) "short-circuit" true (stats.Whatif.path = Whatif.Short_circuit)

let test_remove_readd_is_not_short_circuit () =
  (* removing an arc and adding an identical one back permutes arc
     ids: the canonical digest matches the base, but the report's
     critical walk names arc ids, so a short-circuit would be wrong *)
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chord =
    let rec find i = if not arcs.(i).Signal_graph.marked then i else find (i + 1) in
    find events
  in
  let a = arcs.(chord) in
  let changes =
    [
      Whatif.Remove_arc chord;
      Whatif.Add_arc
        {
          src = a.Signal_graph.arc_src;
          dst = a.Signal_graph.arc_dst;
          delay = a.Signal_graph.delay;
          marked = a.Signal_graph.marked;
        };
    ]
  in
  let stats = check_structural_equals_cold "remove + re-add" base changes in
  Alcotest.(check bool) "answered, but not by short-circuit" true
    (stats.Whatif.path <> Whatif.Short_circuit)

let qcheck_structural_matches_cold =
  Helpers.qcheck_case ~count:40
    ~name:"structural reanalyze == cold analyze (bytes, incl. failures)"
    (fun g ->
      let base = Whatif.prepare g in
      let m = Signal_graph.arc_count g in
      let n = Signal_graph.event_count g in
      let arcs = Signal_graph.arcs g in
      let scenarios =
        [
          [ Whatif.Remove_arc (m - 1) ];
          [ Whatif.Remove_arc (m / 2) ];
          [ Whatif.Add_arc { src = 0; dst = n / 2; delay = 1.5; marked = false } ];
          [ Whatif.Add_arc { src = n - 1; dst = 0; delay = 2.5; marked = true } ];
          [ Whatif.Set_marked { arc = m / 3; marked = not arcs.(m / 3).Signal_graph.marked } ];
          [
            Whatif.Remove_arc (m - 1);
            Whatif.Add_arc { src = 1 mod n; dst = n - 1; delay = 0.5; marked = false };
            Whatif.Delay { arc = 0; delta = 0.75 };
          ];
        ]
      in
      List.iteri
        (fun i changes ->
          (* either both sides succeed with identical bytes, or both
             fail with the identical exception *)
          let outcome f =
            match f () with
            | bytes -> Ok bytes
            | exception Invalid_argument msg -> Error ("invalid: " ^ msg)
            | exception Cycle_time.Not_analyzable msg -> Error ("not analyzable: " ^ msg)
          in
          let warm =
            outcome (fun () ->
                let report, _ = Whatif.reanalyze_changes base changes in
                render (Whatif.edited_graph_changes base changes) report)
          in
          let cold =
            outcome (fun () ->
                let g' = Whatif.edited_graph_changes base changes in
                render g' (Cycle_time.analyze ~periods:(Whatif.periods base) g'))
          in
          if warm <> cold then
            QCheck2.Test.fail_reportf "scenario %d: warm %s / cold %s" i
              (match warm with Ok _ -> "ok-bytes-differ" | Error e -> e)
              (match cold with Ok _ -> "ok" | Error e -> e))
        scenarios;
      true)

let test_structural_validation_errors () =
  let base = fig1_base () in
  let expect_invalid msg changes =
    match Whatif.reanalyze_changes base changes with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
    | exception Invalid_argument m ->
      (* the cold-side reference must reject with the same message *)
      (match Whatif.edited_graph_changes base changes with
       | _ -> Alcotest.failf "%s: cold side accepted" msg
       | exception Invalid_argument m' ->
         Alcotest.(check string) (msg ^ ": same message") m m')
  in
  expect_invalid "dead arc reference"
    [ Whatif.Remove_arc 0; Whatif.Delay { arc = 0; delta = 1.0 } ];
  expect_invalid "dead marking flip"
    [ Whatif.Remove_arc 1; Whatif.Set_marked { arc = 1; marked = true } ];
  expect_invalid "duplicate removal" [ Whatif.Remove_arc 2; Whatif.Remove_arc 2 ];
  expect_invalid "arc id out of range" [ Whatif.Remove_arc 9999 ];
  expect_invalid "added event out of range"
    [ Whatif.Add_arc { src = 0; dst = 9999; delay = 1.0; marked = false } ];
  expect_invalid "added delay invalid"
    [ Whatif.Add_arc { src = 0; dst = 1; delay = -1.0; marked = false } ]

let test_disconnecting_edit_not_analyzable_both_ways () =
  (* cutting every in-arc of a repetitive event disconnects it from
     the border: warm and cold must refuse with the identical message *)
  let base = fig1_base () in
  let g = Whatif.signal_graph base in
  let target =
    let rec find e =
      if Signal_graph.is_repetitive g e then e
      else find (e + 1)
    in
    find 0
  in
  let arcs = Signal_graph.arcs g in
  let changes =
    Array.to_list arcs
    |> List.mapi (fun i (a : Signal_graph.arc) ->
           if a.Signal_graph.arc_dst = target then Some (Whatif.Remove_arc i) else None)
    |> List.filter_map Fun.id
  in
  let outcome f =
    match f () with
    | _ -> None
    | exception Cycle_time.Not_analyzable m -> Some m
  in
  let warm = outcome (fun () -> Whatif.reanalyze_changes base changes) in
  let cold = outcome (fun () -> Whatif.edited_graph_changes base changes) in
  match (warm, cold) with
  | Some w, Some c -> Alcotest.(check string) "identical Not_analyzable" c w
  | _ -> Alcotest.fail "expected Not_analyzable from both routes"

let test_structural_sweep_shares_scratch () =
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chords =
    Array.of_list
      (List.filter
         (fun i -> not arcs.(i).Signal_graph.marked)
         (List.init (Array.length arcs - events) (fun i -> events + i)))
  in
  let scenarios =
    Array.init 8 (fun i ->
        if i mod 2 = 0 then [ Whatif.Remove_arc chords.(i * 3 mod Array.length chords) ]
        else
          [
            Whatif.Add_arc
              { src = i; dst = i + 40; delay = float_of_int (1 + i); marked = false };
          ])
  in
  let results = Whatif.sweep_changes ~jobs:2 base scenarios in
  Array.iteri
    (fun i result ->
      match result with
      | Error msg -> Alcotest.failf "scenario %d failed: %s" i msg
      | Ok (report, _) ->
        let g', cold = cold_render_changes base scenarios.(i) in
        Alcotest.(check string)
          (Printf.sprintf "scenario %d: bytes" i)
          cold (render g' report))
    results

(* ------------------------------------------------------------------ *)
(* Errors and edge cases                                               *)

let test_invalid_edits_rejected () =
  let base = fig1_base () in
  let m = Signal_graph.arc_count (Whatif.signal_graph base) in
  Alcotest.check_raises "out-of-range arc"
    (Invalid_argument
       (Printf.sprintf "Whatif: arc id %d out of range (the graph has %d arcs)" m m))
    (fun () -> ignore (Whatif.reanalyze base [ { Whatif.arc = m; delta = 1. } ]));
  (match Whatif.reanalyze base [ { Whatif.arc = 0; delta = -1e9 } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative edited delay accepted");
  match Whatif.reanalyze base [ { Whatif.arc = 0; delta = Float.nan } ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN delta accepted"

let test_sweep_isolates_bad_scenario () =
  let base = fig1_base () in
  let scenarios =
    [|
      [ { Whatif.arc = 0; delta = 1. } ];
      [ { Whatif.arc = -7; delta = 1. } ];
      [ { Whatif.arc = 0; delta = 2. } ];
    |]
  in
  let results = Whatif.sweep base scenarios in
  (match results.(1) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid scenario did not error");
  Array.iteri
    (fun i result ->
      if i <> 1 then
        match result with
        | Ok _ -> ()
        | Error msg -> Alcotest.failf "scenario %d poisoned by neighbour: %s" i msg)
    results

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)

let test_deadline_mid_sweep_pool_reusable () =
  (* gen-dense-sized base so each warm re-analysis does real work *)
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let scenarios =
    Array.init 6 (fun i -> [ { Whatif.arc = i; delta = float_of_int (i + 1) } ])
  in
  let strangled = Whatif.sweep ~jobs:4 ~budget_ms:1e-6 base scenarios in
  Array.iteri
    (fun i result ->
      match result with
      | Error msg ->
        if not (String.length msg >= 17 && String.sub msg 0 17 = "deadline_exceeded") then
          Alcotest.failf "scenario %d: unexpected error %S" i msg
      | Ok _ -> Alcotest.failf "scenario %d survived a 1ns budget" i)
    strangled;
  (* the pool (and the prepared base) must be immediately reusable *)
  let results = Whatif.sweep ~jobs:4 base scenarios in
  Array.iteri
    (fun i result ->
      match result with
      | Ok (report, _) ->
        let g', cold = cold_render base scenarios.(i) in
        Alcotest.(check string)
          (Printf.sprintf "scenario %d after timeout: bytes" i)
          cold (render g' report)
      | Error msg -> Alcotest.failf "scenario %d failed after timeout: %s" i msg)
    results

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)

let test_failpoint_falls_back_to_cold () =
  let base = fig1_base () in
  let edits = [ { Whatif.arc = 1; delta = 4. } ] in
  let warm_report, warm_stats = Whatif.reanalyze base edits in
  Alcotest.(check bool) "warm before arming" true (warm_stats.Whatif.path = Whatif.Warm);
  Tsg_obs.Failpoint.activate "whatif/warm";
  Fun.protect ~finally:(fun () -> Tsg_obs.Failpoint.deactivate "whatif/warm")
  @@ fun () ->
  let cold_report, cold_stats = Whatif.reanalyze base edits in
  Alcotest.(check bool) "cold fallback path" true (cold_stats.Whatif.path = Whatif.Cold);
  Alcotest.(check int) "no reuse on the cold path" 0 cold_stats.Whatif.reused;
  let g' = Whatif.edited_graph base edits in
  Alcotest.(check string) "cold fallback bytes = warm bytes" (render g' warm_report)
    (render g' cold_report)

(* ------------------------------------------------------------------ *)
(* Lane repair                                                         *)

(* A warm re-analysis repairs the border roots 8 lanes to a pass.  On a
   gen-dense model (b = 93: 12 passes, the last one short) three kinds
   of edit must all come out byte-identical to cold: a structural edit
   with slack everywhere (every root affected, no lane moves: the
   repair recomputes little more than the seeds), a delay edit that
   moves some roots' tables and not others (moved lanes get fresh
   tables, the rest keep their base tables), and a backbone delay that
   moves every lane of every pass (the repair covers whole windows). *)
let test_lane_repair_matches_cold () =
  let g = Tsg_circuit.Generators.random_live_tsg ~seed:7 ~events:120 ~extra_arcs:240 () in
  let base = Whatif.prepare g in
  let events = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let b = List.length (Whatif.border base) in
  let window =
    Unfolding.instance_count (Unfolding.make g ~periods:(Whatif.periods base + 1))
  in
  Alcotest.(check bool) "more than two passes" true (b > 2 * Timing_sim.lanes);
  let base_traces = (Whatif.base_report base).Cycle_time.traces in
  (* (stats, roots whose table moved, whatif/instances_repaired) *)
  let run changes =
    Tsg_engine.Metrics.reset ();
    let report, stats = Whatif.reanalyze_changes base changes in
    let moved = List.filter Fun.id (List.map2 ( <> ) base_traces report.Cycle_time.traces) in
    (report, stats, List.length moved, Tsg_engine.Metrics.count "whatif/instances_repaired")
  in
  let pick what pred candidates =
    match List.find_opt (fun c -> pred (run c)) candidates with
    | None -> Alcotest.failf "%s: no such scenario in this model" what
    | Some changes ->
      let report, stats, moved, repaired = run changes in
      let g', cold = cold_render_changes base changes in
      Alcotest.(check string) (what ^ ": bytes") cold (render g' report);
      Alcotest.(check bool) (what ^ ": warm path") true (stats.Whatif.path = Whatif.Warm);
      (stats, moved, repaired)
  in
  let chords =
    List.filter
      (fun i -> not arcs.(i).Signal_graph.marked)
      (List.init (Array.length arcs - events) (fun i -> events + i))
  in
  let delays delta = List.init (Array.length arcs) (fun a -> [ Whatif.Delay { arc = a; delta } ]) in
  let _, _, repaired =
    pick "slack"
      (fun (_, st, moved, _) -> st.Whatif.resimulated = b && moved = 0)
      (List.map (fun c -> [ Whatif.Remove_arc c ]) chords)
  in
  Alcotest.(check bool) "slack: repaired the seeds" true (repaired > 0);
  Alcotest.(check bool) "slack: less than one window in all" true (repaired < window);
  ignore
    (pick "partial" (fun (_, _, moved, _) -> moved > 0 && moved < b) (delays 1.5));
  let _, _, repaired = pick "global" (fun (_, _, moved, _) -> moved = b) (delays 1.5) in
  Alcotest.(check bool) "global: more than one window in all" true (repaired > window)

(* ------------------------------------------------------------------ *)
(* Reuse accounting                                                    *)

let test_metrics_accounting () =
  let base = Whatif.prepare (Tsg_circuit.Circuit_library.async_stack_tsg ()) in
  let b = List.length (Whatif.border base) in
  Tsg_engine.Metrics.reset ();
  let _, (stats : Whatif.stats) =
    Whatif.reanalyze base [ { Whatif.arc = 0; delta = 2. } ]
  in
  Alcotest.(check int) "whatif/reused counter" stats.Whatif.reused
    (Tsg_engine.Metrics.count "whatif/reused");
  Alcotest.(check int) "whatif/resimulated counter" stats.Whatif.resimulated
    (Tsg_engine.Metrics.count "whatif/resimulated");
  Alcotest.(check int) "partition of the border" b
    (stats.Whatif.reused + stats.Whatif.resimulated)

let suite =
  [
    Alcotest.test_case "no edits short-circuit" `Quick test_no_edits_short_circuit;
    Alcotest.test_case "cancelling edits short-circuit" `Quick
      test_cancelling_edits_short_circuit;
    Alcotest.test_case "single edit = cold (bytes)" `Quick test_single_edit_matches_cold;
    Alcotest.test_case "delay decrease = cold (bytes)" `Quick test_decrease_matches_cold;
    Alcotest.test_case "multi-arc scenario = cold (bytes)" `Quick
      test_multi_arc_scenario_matches_cold;
    qcheck_sweep_matches_independent;
    Alcotest.test_case "invalid edits rejected" `Quick test_invalid_edits_rejected;
    Alcotest.test_case "sweep isolates a bad scenario" `Quick
      test_sweep_isolates_bad_scenario;
    Alcotest.test_case "deadline mid-sweep leaves pool reusable" `Quick
      test_deadline_mid_sweep_pool_reusable;
    Alcotest.test_case "failpoint falls back to cold" `Quick
      test_failpoint_falls_back_to_cold;
    Alcotest.test_case "metrics accounting" `Quick test_metrics_accounting;
    Alcotest.test_case "lane repair: slack, partial, global = cold (bytes)" `Quick
      test_lane_repair_matches_cold;
    Alcotest.test_case "structural: remove arc = cold (bytes)" `Quick
      test_remove_arc_matches_cold;
    Alcotest.test_case "structural: add arc = cold (bytes)" `Quick
      test_add_arc_matches_cold;
    Alcotest.test_case "structural: mixed scenario = cold (bytes)" `Quick
      test_mixed_structural_and_delay_matches_cold;
    Alcotest.test_case "structural: border move falls back to cold" `Quick
      test_border_change_falls_back_to_cold;
    Alcotest.test_case "structural: marking no-op short-circuits" `Quick
      test_structural_noop_short_circuits;
    Alcotest.test_case "structural: remove + re-add is not a short-circuit" `Quick
      test_remove_readd_is_not_short_circuit;
    qcheck_structural_matches_cold;
    Alcotest.test_case "structural: validation errors" `Quick
      test_structural_validation_errors;
    Alcotest.test_case "structural: disconnecting edit fails identically" `Quick
      test_disconnecting_edit_not_analyzable_both_ways;
    Alcotest.test_case "structural: sweep_changes = cold (bytes)" `Quick
      test_structural_sweep_shares_scratch;
  ]
