(* The four workloads.  Each one sets up from the seed (several times,
   timed; the last set-up is the one measured), runs its ops in a
   timed window, then checks every answer outside the window.  A
   failed, refused or wrong answer counts as a failed op.

   With tracing on, every odd op is traced: the benchmark records a
   span around each call it makes into a layer's public functions and
   reads the program's exported counters around the op.  Even ops run
   untraced, interleaved, so a traced run measures its own tracing
   overhead on the same host at the same time. *)

open Tsg
module Acc = Pipeline.Acc

type config = {
  sparse : Models.shape;
  sparse_pool : int;
  dense : Models.shape;
  dense_pool : int;
  whatif : Models.shape;
  whatif_scenarios : int;
  hot : Models.shape;
  hot_count : int;
  fresh : Models.shape;
  fresh_pool : int;
  sweep_pool : int;
  min_ops : int;
      (** every run completes at least this many ops; the exact work
          counters are taken over the traced ops among the first
          [min_ops] *)
  min_requests : int;  (** the same floor for [serve_mixed] *)
  setups : int;  (** least set-up repetitions per run; [setup_s] is their median *)
  setup_floor_s : float;  (** ... and repetitions continue until this much time went into them *)
}

let default =
  {
    sparse = Models.Sparse { events = 2000; tokens = 16; chords = 4000 };
    sparse_pool = 65;
    dense = Models.Dense { events = 160; chords = 320; border = (122, 126) };
    dense_pool = 33;
    whatif = Models.Dense { events = 120; chords = 240; border = (93, 93) };
    whatif_scenarios = 64;
    hot = Models.Sparse { events = 64; tokens = 8; chords = 128 };
    hot_count = 8;
    fresh = Models.Dense { events = 32; chords = 64; border = (0, max_int) };
    fresh_pool = 512;
    sweep_pool = 32;
    min_ops = 100;
    min_requests = 1000;
    setups = 3;
    setup_floor_s = 1.;
  }

type run = {
  seed : int;
  seconds : float;
  trace : bool;
  tsa : string;  (** the [tsa] executable, for [serve_mixed] *)
  dir : string;  (** this run's work directory *)
}

type result = {
  setup_s : float array;
  latencies_ms : float array;  (** completed ops of the timed window *)
  elapsed_s : float;
  attempted : int;
  failed : int;
  peak_rss_mb : float;
  exact : (string * float) list;
      (** deterministic work counters over the first [min_ops] ops *)
  layers : (string * float) list;  (** per-layer metrics, traced runs only *)
  spans : Spans.t;
}

let now = Unix.gettimeofday
let traced run i = run.trace && i land 1 = 1

(* set up at least [setups] times, and more (up to 15) until
   [setup_floor_s] has gone into it, so a cheap set-up still gets a
   steady median; the last set-up is the one the window runs on *)
let repeat_setup cfg f =
  let times = ref [] and last = ref None in
  while
    List.length !times < cfg.setups
    || (Stats.sum (Array.of_list !times) < cfg.setup_floor_s && List.length !times < 15)
  do
    (* a set-up discarded by the next repetition releases what it holds
       first (the serving workload stops its processes) *)
    Option.iter (fun (_, release) -> release ()) !last;
    let t0 = now () in
    let v = f () in
    times := (now () -. t0) :: !times;
    last := Some v
  done;
  (Array.of_list (List.rev !times), fst (Option.get !last))

(* the timed window of an in-process workload: ops run back to back
   until [seconds] have passed and at least [min_ops] are done; an op
   that raises is a failed op *)
let window ~seconds ~min_ops op =
  let lat = ref [] and failed = ref 0 and i = ref 0 in
  let t0 = now () in
  let deadline = t0 +. seconds in
  while !i < min_ops || now () < deadline do
    let s = now () in
    (match op !i with
    | () -> lat := ((now () -. s) *. 1000.) :: !lat
    | exception (Out_of_memory | Stack_overflow as e) -> raise e
    | exception e ->
      if !failed = 0 then Printf.eprintf "perfbench: op %d failed: %s\n%!" !i (Printexc.to_string e);
      incr failed);
    incr i
  done;
  (Array.of_list (List.rev !lat), now () -. t0, !i, !failed)

let self_peak_rss () = Proc.peak_rss_mb (Unix.getpid ())

(* throughput of the traced ops minus that of the untraced ones, from
   their summed latencies (ops/s); interleaving puts both halves on
   the same host conditions *)
let trace_overhead ~concurrency lat =
  let t = ref 0. and tn = ref 0 and u = ref 0. and un = ref 0 in
  Array.iteri
    (fun i ms ->
      if i land 1 = 1 then (t := !t +. ms; incr tn) else (u := !u +. ms; incr un))
    lat;
  let rate n ms = Stats.ratio (float_of_int (n * concurrency) *. 1000.) ms in
  rate !tn !t -. rate !un !u

(* ------------------------------------------------------------------ *)
(* analyze_sparse / analyze_dense                                      *)

(* an answer as the window keeps it: the model and the MD5 of the
   report bytes *)
type answer = { model : int; md5 : Digest.t }

let answer_of model json = { model; md5 = Digest.string json }

let analyze_workload cfg run ~prefix ~shape ~pool ~jobs =
  let setup_s, paths =
    repeat_setup cfg (fun () ->
        (Models.write_set ~dir:run.dir ~prefix ~shape ~seed:run.seed ~count:pool, ignore))
  in
  let spans = Spans.create () in
  let acc = Acc.create () and exact_acc = Acc.create () in
  let exact_ops = ref 0 in
  let answers = ref [] in
  let reports = Hashtbl.create 256 in
  let c_names =
    [
      ("unfolding/instances", "unfolding.instances");
      ("kernel/instances_scanned", "timing_sim.instances_scanned");
    ]
  in
  let c_start = Pipeline.counters c_names in
  let c_prefix = ref c_start in
  let borders = ref 0 in
  let op i =
    let model = i mod pool in
    let path = paths.(model) in
    if traced run i then begin
      let into = if i < cfg.min_ops then [ acc; exact_acc ] else [ acc ] in
      let local = Acc.create () in
      let _, _, json = Pipeline.replay ~spans ~acc:local ~op:i ~jobs path in
      Hashtbl.iter (fun k v -> List.iter (fun a -> Acc.add a k v) into) local;
      if i < cfg.min_ops then incr exact_ops;
      answers := answer_of model json :: !answers
    end
    else begin
      let _, r, json = Pipeline.analyze ~jobs path in
      answers := answer_of model json :: !answers;
      (* at jobs 1 the window's own report is the cold jobs-1
         reference; keep one per model for the checks *)
      if jobs = 1 && not (Hashtbl.mem reports model) then Hashtbl.replace reports model r;
      if i < cfg.min_ops then borders := !borders + List.length r.Cycle_time.border
    end;
    if i = cfg.min_ops - 1 then c_prefix := Pipeline.counters c_names
  in
  let latencies_ms, elapsed_s, attempted, failed =
    window ~seconds:run.seconds ~min_ops:cfg.min_ops op
  in
  let peak_rss_mb = self_peak_rss () in
  (* checks: per model used, one reference report (cold, jobs 1):
     lambda against Howard's policy iteration, the critical walk, and
     every answer in the window byte-identical to the reference *)
  let wrong = ref 0 in
  let refs = Hashtbl.create 64 in
  let serial_acc = Acc.create () in
  let reference model =
    match Hashtbl.find_opt refs model with
    | Some a -> a
    | None ->
      let g, r =
        match Hashtbl.find_opt reports model with
        | Some r -> (Pipeline.load paths.(model), r)
        | None when run.trace && jobs > 1 ->
          (* traced, the jobs-1 reference is replayed too, so one run
             shows what jobs > 1 does to each phase *)
          let t0 = now () in
          let g, r, _ = Pipeline.replay ~spans ~acc:serial_acc ~op:(-1) ~jobs:1 paths.(model) in
          Acc.add serial_acc "ms" ((now () -. t0) *. 1000.);
          Acc.add serial_acc "ops" 1.;
          (g, r)
        | None ->
          let g = Pipeline.load paths.(model) in
          (g, Cycle_time.analyze ~jobs:1 g)
      in
      let howard = Tsg_baselines.Howard.cycle_time g in
      let ok_lambda =
        Float.abs (howard -. r.Cycle_time.cycle_time)
        <= 1e-9 *. (1. +. Float.abs howard)
      in
      let ok = ok_lambda && Cycle_time.check_walk g r in
      let a = (answer_of model (Pipeline.encode g r), ok) in
      Hashtbl.replace refs model a;
      a
  in
  List.iter
    (fun a ->
      let expected, ok = reference a.model in
      if not (ok && expected = a) then incr wrong)
    !answers;
  let ops = float_of_int (max 1 !exact_ops) in
  let per k = Acc.get acc k /. float_of_int (max 1 (attempted / 2)) in
  let exact_per k = Acc.get exact_acc k /. ops in
  let layers =
    if not run.trace then []
    else
      [
        ("loader.ms_per_op", per "loader.ms");
        ("cut_set.ms_per_op", per "cut_set.ms");
        ("unfolding.ms_per_op", per "unfolding.ms");
        ("unfolding.instances", exact_per "unfolding.instances");
        ("unfolding.arc_instances", exact_per "unfolding.arc_instances");
        ("gc.minor_words_per_op", per "gc.minor_words");
        ("timing_sim.ms_per_op", per "timing_sim.ms");
        ("timing_sim.border_events", exact_per "timing_sim.border_events");
        ("timing_sim.instances_scanned", exact_per "timing_sim.instances_scanned");
        ( "timing_sim.scan_ratio",
          Stats.ratio
            (Acc.get acc "timing_sim.instances_scanned")
            (Acc.get acc "timing_sim.instances_total") );
        ("pool.claims", per "pool.claims");
        ("pool.steals", per "pool.steals");
        ("backtrack.ms_per_op", per "backtrack.ms");
        ("encode.ms_per_op", per "encode.ms");
        ("trace.overhead_per_s", trace_overhead ~concurrency:1 latencies_ms);
      ]
      @
      let serial k = Acc.get serial_acc k /. Float.max 1. (Acc.get serial_acc "ops") in
      if jobs = 1 then []
      else
        [
          ("jobs1.ms_per_op", serial "ms");
          ("jobs1.unfolding.ms_per_op", serial "unfolding.ms");
          ("jobs1.timing_sim.ms_per_op", serial "timing_sim.ms");
        ]
  in
  let untraced_ops = float_of_int (cfg.min_ops - !exact_ops) in
  let exact =
    if run.trace then
      List.filter_map
        (fun k -> Option.map (fun v -> (k, v)) (List.assoc_opt k layers))
        [
          "unfolding.instances";
          "unfolding.arc_instances";
          "timing_sim.border_events";
          "timing_sim.instances_scanned";
        ]
    else
      let d = Acc.create () in
      Pipeline.add_deltas d c_names c_start !c_prefix;
      [
        ("unfolding.instances", Acc.get d "unfolding.instances" /. untraced_ops);
        ("timing_sim.border_events", float_of_int !borders /. untraced_ops);
        ("timing_sim.instances_scanned", Acc.get d "timing_sim.instances_scanned" /. untraced_ops);
      ]
  in
  {
    setup_s;
    latencies_ms;
    elapsed_s;
    attempted;
    failed = failed + !wrong;
    peak_rss_mb;
    exact;
    layers;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* whatif_sweep                                                        *)

(* a seeded mix of delay, add-arc, remove-arc and combined scenarios;
   candidates the edit validation rejects (a removal that disconnects
   the graph, ...) are redrawn, so no op of the window fails.  The
   first [events] arcs of the generated model are its ring backbone. *)
let scenarios base ~seed ~count =
  let g = Whatif.signal_graph base in
  let n = Signal_graph.event_count g in
  let arcs = Signal_graph.arcs g in
  let chords =
    Array.of_list
      (List.filter
         (fun i -> not arcs.(i).Signal_graph.marked)
         (List.init (Array.length arcs - n) (fun i -> n + i)))
  in
  let st = Models.rng seed "scenarios" in
  let int k = Random.State.int st k in
  let delay arc = Whatif.Delay { arc; delta = 0.25 *. float_of_int (1 + int 12) } in
  let chord_delay () = delay (n + int (Array.length arcs - n)) in
  (* backbone edits at stratified positions around the ring: the cone
     of an edit, hence its cost, depends on where it sits *)
  let heavy = max 1 (count / 16) in
  let backbone = ref 0 in
  let backbone_delay () =
    let j = !backbone mod heavy in
    incr backbone;
    delay (((j * n) + int n) / heavy)
  in
  (* forward and unmarked: from the lower half of the ring to the upper
     half, so it can close no token-free cycle *)
  let add () =
    Whatif.Add_arc
      { src = int (n / 2); dst = (n / 2) + int (n / 2); delay = float_of_int (1 + int 5); marked = false }
  in
  let remove () = Whatif.Remove_arc chords.(int (Array.length chords)) in
  (* the kinds in fixed shares, so seeds differ in which arcs a
     scenario touches, not in the mix.  One scenario in 16 edits a
     backbone delay: its change cone is most of the graph, 2-4 times
     the cost of a chord edit, and its cost hinges on the seed's
     topology, so at this share it weighs in the throughput while the
     90th percentile stays among the chord-local scenarios *)
  let candidate k =
    let on_backbone = k / 4 mod 8 = 0 in
    match k mod 4 with
    | 0 when on_backbone -> backbone_delay () :: List.init (int 3) (fun _ -> chord_delay ())
    | 0 -> List.init (1 + int 3) (fun _ -> chord_delay ())
    | 1 -> [ add () ]
    | 2 -> [ remove () ]
    | _ -> [ remove (); add (); (if on_backbone then backbone_delay () else chord_delay ()) ]
  in
  let rec valid k =
    let cs = candidate k in
    match Whatif.edited_graph_changes base cs with
    | _ -> cs
    | exception (Invalid_argument _ | Cycle_time.Not_analyzable _) -> valid k
  in
  Array.init count valid

let whatif_counters =
  [
    ("whatif/instances_repaired", "whatif.instances_repaired");
    ("whatif/instances_spliced", "whatif.instances_spliced");
    ("whatif/cold_fallbacks", "whatif.cold_fallbacks");
    ("whatif/reused", "whatif.reused");
    ("whatif/resimulated", "whatif.resimulated");
  ]

let whatif_workload cfg run =
  let setup_s, (base, scens) =
    repeat_setup cfg (fun () ->
        let path = (Models.write_set ~dir:run.dir ~prefix:"whatif" ~shape:cfg.whatif ~seed:run.seed ~count:1).(0) in
        let base = Whatif.prepare ~jobs:1 (Pipeline.load path) in
        ((base, scenarios base ~seed:run.seed ~count:cfg.whatif_scenarios), ignore))
  in
  let spans = Spans.create () in
  let acc = Acc.create () and exact_acc = Acc.create () in
  let exact_ops = ref 0 in
  let scratch = Whatif.scratch base in
  (* every scenario equally often, in a seeded order *)
  let order =
    let st = Models.rng run.seed "order" in
    let a = Array.init (Array.length scens) Fun.id in
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  let picks = ref [] in
  let c_start = Pipeline.counters whatif_counters in
  let c_prefix = ref c_start in
  let op i =
    let k = order.(i mod Array.length order) in
    if traced run i then begin
      let c0 = Pipeline.counters whatif_counters in
      let words0 = Gc.minor_words () in
      let (r, _), ms =
        Spans.record spans ~name:"whatif" ~op:i ~parent:(-1) (fun () ->
            Whatif.reanalyze_changes ~scratch base scens.(k))
      in
      let local = Acc.create () in
      Acc.add local "whatif.ms" ms;
      Acc.add local "gc.minor_words" (Gc.minor_words () -. words0);
      Pipeline.add_deltas local whatif_counters c0 (Pipeline.counters whatif_counters);
      let into = if i < cfg.min_ops then [ acc; exact_acc ] else [ acc ] in
      Hashtbl.iter (fun key v -> List.iter (fun a -> Acc.add a key v) into) local;
      if i < cfg.min_ops then incr exact_ops;
      picks := (k, Pipeline.fingerprint r) :: !picks
    end
    else begin
      let r, _ = Whatif.reanalyze_changes ~scratch base scens.(k) in
      picks := (k, Pipeline.fingerprint r) :: !picks
    end;
    if i = cfg.min_ops - 1 then c_prefix := Pipeline.counters whatif_counters
  in
  let latencies_ms, elapsed_s, attempted, failed =
    window ~seconds:run.seconds ~min_ops:cfg.min_ops op
  in
  let peak_rss_mb = self_peak_rss () in
  (* checks: per scenario used, its warm report re-derived and compared
     byte for byte with a cold analysis of the edited graph; every
     answer of the window must match that verified report *)
  let verified = Hashtbl.create 64 in
  let expected k =
    match Hashtbl.find_opt verified k with
    | Some v -> v
    | None ->
      let g' = Whatif.edited_graph_changes base scens.(k) in
      let warm, _ = Whatif.reanalyze_changes ~scratch base scens.(k) in
      let cold = Cycle_time.analyze ~periods:(Whatif.periods base) g' in
      let v =
        if Pipeline.encode g' warm = Pipeline.encode g' cold then Some (Pipeline.fingerprint warm)
        else None
      in
      Hashtbl.replace verified k v;
      v
  in
  let wrong = ref 0 in
  List.iter (fun (k, fp) -> if expected k <> Some fp then incr wrong) !picks;
  let ops = float_of_int (max 1 !exact_ops) in
  let per k = Acc.get acc k /. float_of_int (max 1 (attempted / 2)) in
  let exact_per k = Acc.get exact_acc k /. ops in
  let layers =
    if not run.trace then []
    else
      [
        ("whatif.ms_per_scenario", per "whatif.ms");
        ("whatif.instances_repaired", exact_per "whatif.instances_repaired");
        ("whatif.instances_spliced", exact_per "whatif.instances_spliced");
        ("whatif.cold_fallbacks", exact_per "whatif.cold_fallbacks");
        ( "whatif.reuse_ratio",
          Stats.ratio (Acc.get acc "whatif.reused")
            (Acc.get acc "whatif.reused" +. Acc.get acc "whatif.resimulated") );
        ( "whatif.base_mb",
          float_of_int (Obj.reachable_words (Obj.repr base) * (Sys.word_size / 8))
          /. 1048576. );
        ("gc.minor_words_per_op", per "gc.minor_words");
        ("trace.overhead_per_s", trace_overhead ~concurrency:1 latencies_ms);
      ]
  in
  let untraced_ops = float_of_int (cfg.min_ops - !exact_ops) in
  let exact =
    if run.trace then
      [
        ("whatif.instances_repaired", exact_per "whatif.instances_repaired");
        ("whatif.instances_spliced", exact_per "whatif.instances_spliced");
      ]
    else
      let d = Acc.create () in
      Pipeline.add_deltas d whatif_counters c_start !c_prefix;
      [
        ("whatif.instances_repaired", Acc.get d "whatif.instances_repaired" /. untraced_ops);
        ("whatif.instances_spliced", Acc.get d "whatif.instances_spliced" /. untraced_ops);
      ]
  in
  {
    setup_s;
    latencies_ms;
    elapsed_s;
    attempted;
    failed = failed + !wrong;
    peak_rss_mb;
    exact;
    layers;
    spans;
  }
