(* perfbench: one workload, one seed, one timed window.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--tsa PATH] [--work DIR]

   Prints every metric by name with its unit and sample count, then,
   as the last line of standard output, one JSON object:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}} holding the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tsa PATH] [--work DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let tsa = ref "_build/default/bin/tsa.exe" and work = ref ".bench_work" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--tsa" :: v :: rest -> tsa := v; parse rest
    | "--work" :: v :: rest -> work := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  (* an interrupted run still stops the processes it started *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when List.mem !workload ("analyze_sparse" :: Report.workloads) && t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let dir = Filename.concat !work (Printf.sprintf "%s-%d" !workload (Unix.getpid ())) in
  Workdir.mkdir_p dir;
  (* also on an error path or a signal: stop what was started, then
     remove the scratch files *)
  at_exit (fun () ->
      Proc.kill_all ();
      Workdir.rm_rf dir);
  let run = { Workloads.seed; seconds; trace; tsa = !tsa; dir } in
  let cfg = Workloads.default in
  let r =
    match !workload with
    | "analyze_sparse" ->
      Workloads.analyze_workload cfg run ~prefix:"sparse" ~shape:cfg.sparse
        ~pool:cfg.sparse_pool ~jobs:1
    | "analyze_dense" ->
      Workloads.analyze_workload cfg run ~prefix:"dense" ~shape:cfg.dense
        ~pool:cfg.dense_pool ~jobs:2
    | "whatif_sweep" -> Workloads.whatif_workload cfg run
    | _ -> Serve.run cfg run
  in
  let metrics = if trace then Report.layers r else Report.end_to_end r in
  Printf.printf "perfbench %s seed %d, %.0f s window, trace %d\n" !workload seed seconds
    (if trace then 1 else 0);
  List.iter
    (fun (name, v, unit, n) -> Printf.printf "  %-32s %14.4f %-6s (n=%d)\n" name v unit n)
    (if trace then metrics else metrics @ Option.to_list (Report.p99 r));
  Printf.printf "  ops attempted %d, failed %d\n" r.Workloads.attempted r.Workloads.failed;
  Printf.printf "  exact work counters:%s\n"
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf " %s=%s" k (Report.json_number v)) r.Workloads.exact));
  if trace then begin
    let path = Filename.concat !work (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed) in
    Spans.write r.Workloads.spans path;
    Printf.printf "  %d spans written to %s\n" (Spans.length r.Workloads.spans) path
  end;
  print_endline (Report.json r metrics)
