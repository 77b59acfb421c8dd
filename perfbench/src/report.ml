(* The metrics a run reports, by name, unit and sample count, and the
   one-line JSON result.  BENCHMARK.json lists the same names; a test
   keeps the two in step. *)

(* a JSON number with all its digits; a value that is not finite is
   not a measurement *)
let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* the workloads BENCHMARK.json declares; [analyze_sparse] also runs,
   undeclared: its median moved by more than any bound allows between
   ten runs (see README.md) *)
let workloads = [ "analyze_dense"; "whatif_sweep"; "serve_mixed" ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("throughput_per_s", "ops/s");
    ("latency_p50_ms", "ms");
    ("latency_p90_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* every per-layer metric, with its unit; a layer a workload bypasses
   reads 0 *)
let layer_units =
  [
    ("loader.ms_per_op", "ms");
    ("digest.ms_per_op", "ms");
    ("cut_set.ms_per_op", "ms");
    ("unfolding.ms_per_op", "ms");
    ("unfolding.instances", "count");
    ("unfolding.arc_instances", "count");
    ("gc.minor_words_per_op", "words");
    ("timing_sim.ms_per_op", "ms");
    ("timing_sim.border_events", "count");
    ("timing_sim.instances_scanned", "count");
    ("timing_sim.scan_ratio", "ratio");
    ("pool.claims", "count");
    ("pool.steals", "count");
    ("jobs1.ms_per_op", "ms");
    ("jobs1.unfolding.ms_per_op", "ms");
    ("jobs1.timing_sim.ms_per_op", "ms");
    ("backtrack.ms_per_op", "ms");
    ("whatif.ms_per_scenario", "ms");
    ("whatif.instances_repaired", "count");
    ("whatif.instances_spliced", "count");
    ("whatif.cold_fallbacks", "count");
    ("whatif.reuse_ratio", "ratio");
    ("whatif.base_mb", "MB");
    ("encode.ms_per_op", "ms");
    ("protocol.parse_us", "us");
    ("cache.hit_ratio", "ratio");
    ("whatif_cache.hit_ratio", "ratio");
    ("cache.duplicate_computes", "count");
    ("disk_cache.writes", "count");
    ("disk_cache.write_p50_ms", "ms");
    ("disk_cache.read_p50_ms", "ms");
    ("server.request_p50_ms", "ms");
    ("server.request_p99_ms", "ms");
    ("server.connections_per_request", "ratio");
    ("proxy.upstream_p50_ms", "ms");
    ("proxy.self_p50_ms", "ms");
    ("proxy.hedges", "count");
    ("proxy.hedge_win_ratio", "ratio");
    ("proxy.retries", "count");
    ("proxy.overloaded", "count");
    ("trace.overhead_per_s", "ops/s");
  ]

(* (name, value, unit, sample count) *)
let end_to_end (r : Workloads.result) =
  let lat = r.latencies_ms in
  let n_lat = Array.length lat in
  let ok_ops = r.attempted - r.failed in
  List.map
    (fun (name, unit) ->
      let v, n =
        match name with
        | "setup_s" -> (Stats.median r.setup_s, Array.length r.setup_s)
        | "throughput_per_s" -> (float_of_int ok_ops /. r.elapsed_s, ok_ops)
        | "latency_p50_ms" -> (Stats.quantile lat 0.5, n_lat)
        | "latency_p90_ms" -> (Stats.quantile lat 0.9, n_lat)
        | _ -> (r.peak_rss_mb, 1)
      in
      (name, v, unit, n))
    end_to_end_units

(* The 99th percentile is printed where at least ten samples lie
   beyond it (runs of >= 1 000 ops), and is not a gated
   metric: on the in-process workloads' few hundred ops it would be the
   slowest op or two. *)
let p99 (r : Workloads.result) =
  let n = Array.length r.latencies_ms in
  if n >= 1000 then Some ("latency_p99_ms", Stats.quantile r.latencies_ms 0.99, "ms", n) else None

let layers (r : Workloads.result) =
  List.map
    (fun (name, unit) ->
      (name, Option.value ~default:0. (List.assoc_opt name r.layers), unit, r.attempted / 2))
    layer_units

let json (r : Workloads.result) metrics =
  Printf.sprintf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} (r.failed = 0)
    (max 1 r.attempted) r.failed
    (String.concat ","
       (List.map
          (fun (name, v, unit, _) ->
            Printf.sprintf {|"%s":{"value":%s,"unit":"%s"}|} name (json_number v) unit)
          metrics))
