(* One analysis op — cold load, analysis, report JSON — run either as
   the user runs it ([analyze]) or replayed call by call through the
   layers' public functions with a span around each call ([replay]).
   The replay mirrors [Cycle_time.analyze]; its report must serialise
   to the same bytes, which the workloads check. *)

open Tsg

let encode g r = Tsg_io.Json.to_string (Tsg_io.Json_report.analysis_obj g r)

let load path =
  match Tsg_io.Loader.load_file path with
  | Ok m -> m.Tsg_io.Loader.graph
  | Error msg -> failwith msg

let analyze ~jobs path =
  let g = load path in
  let r = Cycle_time.analyze ~jobs g in
  (g, r, encode g r)

(* per-layer sums over the traced ops of a run, keyed by metric name *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 32
  let add (t : t) k v = Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))
  let get (t : t) k = Option.value ~default:0. (Hashtbl.find_opt t k)
end

(* the program's own counters, read around a call: (counter, metric) *)
let counters pairs = List.map (fun (name, _) -> Tsg_engine.Metrics.count name) pairs

let add_deltas acc pairs before after =
  List.iter2
    (fun (_, key) (b, a) -> Acc.add acc key (float_of_int (a - b)))
    pairs (List.combine before after)

let kernel_counters =
  [
    ("kernel/instances_scanned", "timing_sim.instances_scanned");
    ("kernel/instances_total", "timing_sim.instances_total");
    ("pool/claims", "pool.claims");
    ("pool/steals", "pool.steals");
  ]

let replay ~spans ~acc ~op ~jobs path =
  Spans.with_parent spans ~name:"analyze" ~op @@ fun parent ->
  let timed name f =
    let v, ms = Spans.record spans ~name ~op ~parent f in
    Acc.add acc (name ^ ".ms") ms;
    v
  in
  let words0 = Gc.minor_words () in
  let c0 = counters kernel_counters in
  let g = timed "loader" (fun () -> load path) in
  let border = timed "cut_set" (fun () -> Cut_set.border g) in
  let periods = List.length border in
  (* instances g_0 .. g_periods are needed, hence periods + 1 layers *)
  let u =
    timed "unfolding" (fun () ->
        let u = Unfolding.make g ~periods:(periods + 1) in
        Unfolding.warm_caches u;
        u)
  in
  let traces =
    timed "timing_sim" (fun () ->
        let roots =
          Array.map
            (fun g0 -> Unfolding.instance u ~event:g0 ~period:0)
            (Array.of_list border)
        in
        Array.to_list
          (Timing_sim.simulate_many ~jobs u ~roots ~f:(fun at view ->
               let g0, _ = Unfolding.event_of_instance u at in
               Cycle_time.Internal.trace_of_times (Timing_sim.view_time view) u periods g0)))
  in
  let r =
    timed "backtrack" (fun () -> Cycle_time.Internal.finish g u ~border ~periods ~traces)
  in
  let json = timed "encode" (fun () -> encode g r) in
  add_deltas acc kernel_counters c0 (counters kernel_counters);
  Acc.add acc "gc.minor_words" (Gc.minor_words () -. words0);
  Acc.add acc "unfolding.instances" (float_of_int (Unfolding.instance_count u));
  (let _, srcs, _ = Unfolding.in_adjacency u in
   Acc.add acc "unfolding.arc_instances" (float_of_int (Array.length srcs)));
  Acc.add acc "timing_sim.border_events" (float_of_int periods);
  (g, r, json)

(* A structural fingerprint of a report: every field, floats by their
   bits.  Equal reports of one graph serialise to equal bytes, so the
   timed window keeps this word per answer instead of a rendered
   report, and the check afterwards compares it with the fingerprint of
   a report whose bytes it verified. *)
let fingerprint (r : Cycle_time.report) =
  let h = ref 0 in
  let mix x = h := ((!h * 1_000_003) lxor x) land max_int in
  let mixf f = mix (Int64.to_int (Int64.bits_of_float f)) in
  let mixl = List.iter mix in
  mixf r.Cycle_time.cycle_time;
  mix r.Cycle_time.critical_event;
  mix r.Cycle_time.critical_period;
  mixl r.Cycle_time.critical_walk;
  List.iter
    (fun (c : Cycles.cycle) ->
      mixl c.Cycles.arc_ids;
      mixl c.Cycles.events;
      mixf c.Cycles.length;
      mix c.Cycles.occurrence_period)
    r.Cycle_time.critical_cycles;
  mixl r.Cycle_time.border;
  mix r.Cycle_time.periods_simulated;
  List.iter
    (fun (t : Cycle_time.border_trace) ->
      mix t.Cycle_time.border_event;
      List.iter
        (fun (s : Cycle_time.sample) ->
          mix s.Cycle_time.period;
          mixf s.Cycle_time.time;
          mixf s.Cycle_time.average)
        t.Cycle_time.samples)
    r.Cycle_time.traces;
  !h
