(* The benchmark's own laws: the replayed pipeline is the analysis the
   user runs, byte for byte, and the exact work counters repeat on a
   seed. *)

open Perfbench

let small =
  {
    Workloads.sparse = Models.Sparse { events = 60; tokens = 4; chords = 120 };
    sparse_pool = 5;
    dense = Models.Dense { events = 16; chords = 32; border = (0, max_int) };
    dense_pool = 5;
    whatif = Models.Dense { events = 16; chords = 32; border = (0, max_int) };
    whatif_scenarios = 8;
    hot = Models.Sparse { events = 16; tokens = 4; chords = 32 };
    hot_count = 3;
    fresh = Models.Dense { events = 8; chords = 16; border = (0, max_int) };
    fresh_pool = 16;
    sweep_pool = 4;
    min_ops = 12;
    min_requests = 60;
    setups = 1;
    setup_floor_s = 0.;
  }

let tmp_counter = ref 0

let run ~trace ~seed =
  incr tmp_counter;
  let dir = Printf.sprintf "work-%d-%d" (Unix.getpid ()) !tmp_counter in
  Unix.mkdir dir 0o755;
  { Workloads.seed; seconds = 0.05; trace; tsa = "../../bin/tsa.exe"; dir }

let replay_law () =
  let spans = Spans.create () and acc = Pipeline.Acc.create () in
  let dir = Printf.sprintf "replay-%d" (Unix.getpid ()) in
  Workdir.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Workdir.rm_rf dir) @@ fun () ->
  List.iteri
    (fun i shape ->
      for seed = 1 to 6 do
        let g = Models.generate shape ~seed in
        let path = Filename.concat dir (Printf.sprintf "%d-%d.g" i seed) in
        Tsg_io.Stg_format.write_file ~model:"m" path g;
        List.iter
          (fun jobs ->
            let _, _, cold = Pipeline.analyze ~jobs path in
            let _, _, replayed = Pipeline.replay ~spans ~acc ~op:seed ~jobs path in
            Alcotest.(check string)
              (Printf.sprintf "shape %d seed %d jobs %d" i seed jobs)
              cold replayed)
          [ 1; 2 ]
      done)
    [ small.sparse; small.dense; Models.Dense { events = 40; chords = 80; border = (20, 40) } ];
  Alcotest.(check bool) "spans recorded" true (Spans.length spans > 0)

let in_workdir ~trace f =
  let r = run ~trace ~seed:5 in
  Fun.protect ~finally:(fun () -> Workdir.rm_rf r.Workloads.dir) (fun () -> f r)

let check_repeatable name f () =
  List.iter
    (fun trace ->
      let a = in_workdir ~trace f and b = in_workdir ~trace f in
      Alcotest.(check int) (name ^ ": no failed op") 0 (a.Workloads.failed + b.Workloads.failed);
      Alcotest.(check bool) (name ^ ": counters reported") true (a.Workloads.exact <> []);
      Alcotest.(check (list (pair string (float 0.))))
        (Printf.sprintf "%s trace %b: exact counters repeat" name trace)
        a.Workloads.exact b.Workloads.exact)
    [ false; true ]

(* BENCHMARK.json declares what the runs print *)
let declared () =
  let module P = Tsg_engine.Protocol in
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let j = match P.json_of_string text with Ok j -> j | Error e -> Alcotest.fail e in
  let field k o = match P.member k o with Some (P.String s) -> s | _ -> Alcotest.fail k in
  let entries k = match P.member k j with Some (P.List l) -> l | _ -> Alcotest.fail k in
  let named k = List.map (fun o -> (field "name" o, field "unit" o)) (entries k) in
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "end_to_end" Report.end_to_end_units (named "end_to_end");
  Alcotest.check pairs "per_layer" Report.layer_units (named "per_layer");
  Alcotest.(check (list string))
    "workloads" Report.workloads
    (List.map (field "name") (entries "workloads"))

let () =
  Alcotest.run "perfbench"
    [
      ("declaration", [ Alcotest.test_case "BENCHMARK.json matches the report" `Quick declared ]);
      ("pipeline", [ Alcotest.test_case "replay is byte-identical to analyze" `Quick replay_law ]);
      ( "exact counters",
        [
          Alcotest.test_case "analyze_sparse" `Quick
            (check_repeatable "analyze_sparse" (fun r ->
                 Workloads.analyze_workload small r ~prefix:"sparse" ~shape:small.sparse
                   ~pool:small.sparse_pool ~jobs:1));
          Alcotest.test_case "analyze_dense" `Quick
            (check_repeatable "analyze_dense" (fun r ->
                 Workloads.analyze_workload small r ~prefix:"dense" ~shape:small.dense
                   ~pool:small.dense_pool ~jobs:2));
          Alcotest.test_case "whatif_sweep" `Quick
            (check_repeatable "whatif_sweep" (Workloads.whatif_workload small));
          Alcotest.test_case "serve_mixed" `Quick
            (check_repeatable "serve_mixed" (Serve.run small));
        ] );
    ]
