open Tsg
open Tsg_io

let contains text needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
  go 0

let test_analysis_structure () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let json = Json_report.analysis g (Cycle_time.analyze g) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains json needle))
    [
      {|"cycle_time":10|};
      {|"border":["a+","b+"]|};
      {|"periods":2|};
      {|"event":"a+"|};
      {|"cycles":[{"events":["a+","c+","a-","c-"]|};
      {|"samples":[{"period":1,"time":10,"average":10}|};
      {|{"period":2,"time":18,"average":9}|};
    ]

let test_slack_structure () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let json = Json_report.slack g (Slack.analyze g) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("contains " ^ needle) true (contains json needle))
    [
      {|"cycle_time":10|};
      {|"slack":null|} (* the initial-part arcs *);
      {|"slack":2,"critical":false|};
      {|"slack":0,"critical":true|};
      {|"src":"c-","dst":"a+","delay":2,"marked":true|};
    ]

let test_float_rendering () =
  (* non-integer cycle times keep full precision *)
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 () in
  let json = Json_report.analysis g (Cycle_time.analyze g) in
  Alcotest.(check bool) "20/3 with full precision" true
    (contains json {|"cycle_time":6.666666666666667|})

(* the writer's float bytes are those of the [Printf] rendering it
   replaced, across every branch: integral values on both sides of the
   1e15 cut-over, negatives, subnormals and arbitrary bit patterns *)
let printf_rendering f =
  if Float.is_integer f && abs_float f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let float_gen =
  QCheck2.Gen.(
    oneof
      [
        float;
        map (fun i -> float_of_int i) int;
        map (fun i -> -.float_of_int (abs i)) small_signed_int;
        map (fun m -> Int64.float_of_bits (Int64.of_int (1 + abs m))) int;
        map (fun d -> 1e15 +. float_of_int d) (int_range (-4) 4);
        map (fun d -> -1e15 +. float_of_int d) (int_range (-4) 4);
        map (fun x -> x *. 1e-310) (float_bound_inclusive 1.);
      ])

let law_float_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"floats render as Printf did" ~count:2000
       ~print:(Printf.sprintf "%h") float_gen (fun f ->
         Json.to_string (Json.Float f) = printf_rendering f))

(* the integer writer's bytes are [string_of_int]'s; the extremes,
   where negation overflows, are pinned below *)
let law_int_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"ints render as string_of_int" ~count:2000
       ~print:string_of_int
       QCheck2.Gen.(oneof [ int; small_signed_int ])
       (fun i -> Json.to_string (Json.Int i) = string_of_int i))

let test_int_extremes () =
  List.iter
    (fun i -> Alcotest.(check string) (string_of_int i) (string_of_int i) (Json.to_string (Json.Int i)))
    [ 0; min_int; max_int; -1; 9; 10; -10; 1_000_000 ]

(* Reference: the trace table as the value tree that [analysis_obj]
   built before it streamed the samples into one buffer.  The shipped
   encoder must render the same bytes. *)
let reference_analysis_obj g (r : Cycle_time.report) =
  let event_name e = Json.String (Event.to_string (Signal_graph.event g e)) in
  let traces =
    Json.List
      (List.map
         (fun (t : Cycle_time.border_trace) ->
           Json.Obj
             [
               ("event", event_name t.Cycle_time.border_event);
               ( "samples",
                 Json.List
                   (List.map
                      (fun (s : Cycle_time.sample) ->
                        Json.Obj
                          [
                            ("period", Json.Int s.Cycle_time.period);
                            ("time", Json.Float s.Cycle_time.time);
                            ("average", Json.Float s.Cycle_time.average);
                          ])
                      t.Cycle_time.samples) );
             ])
         r.Cycle_time.traces)
  in
  match Json_report.analysis_obj g r with
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = "traces" then (k, traces) else (k, v)) fields)
  | _ -> Alcotest.fail "analysis_obj is not an object"

let same_bytes g r =
  Json.to_string (Json_report.analysis_obj g r)
  = Json.to_string (reference_analysis_obj g r)

let law_report_bytes =
  Helpers.qcheck_case ~count:200 ~name:"report bytes equal the tree" (fun g ->
      same_bytes g (Cycle_time.analyze g))

(* fig1 with signal names that need escaping, its report's sample
   table overwritten by [samples] *)
let hand_report samples =
  let g =
    Transform.relabel_signals (Tsg_circuit.Circuit_library.fig1_tsg ()) ~f:(fun s ->
        "q\"" ^ s ^ "\\\001")
  in
  let r = Cycle_time.analyze g in
  let traces =
    List.map (fun (t : Cycle_time.border_trace) -> { t with Cycle_time.samples }) r.Cycle_time.traces
  in
  (g, { r with Cycle_time.traces })

let test_hand_reports () =
  let sample period time average = { Cycle_time.period; time; average } in
  List.iter
    (fun (label, samples) ->
      let g, r = hand_report samples in
      Alcotest.(check bool) label true (same_bytes g r))
    [
      ("negative zero", [ sample 1 (-0.) (-0.); sample 2 0. (-0.) ]);
      ("non-integral averages", [ sample 3 10. (10. /. 3.); sample 7 1e-3 (1e-3 /. 7.) ]);
      ( "at and beyond 1e15",
        [ sample 1 1e15 (1e15 -. 1.); sample 2 (-1e15) 2e20; sample max_int 4.5e15 1e300 ] );
      ("no samples", []);
    ];
  let g, r = hand_report [ sample 1 (-0.) 2.5 ] in
  let json = Json.to_string (Json_report.analysis_obj g r) in
  Alcotest.(check bool) "-0 and escaped names in the stream" true
    (contains json {|"event":"q\"a\\\u0001+","samples":[{"period":1,"time":-0,"average":2.5}]|})

let test_escape_fast_path () =
  let plain = "cycle_time" in
  Alcotest.(check bool) "a plain key is returned as is" true (Json.escape plain == plain);
  Alcotest.(check string) "quotes, backslashes and controls still escape" {|a\"b\\c\n\u0001|}
    (Json.escape "a\"b\\c\n\001")

let test_balanced_brackets () =
  let g = Tsg_circuit.Circuit_library.async_stack_tsg () in
  let json = Json_report.analysis g (Cycle_time.analyze g) in
  let count c = String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc) 0 json in
  Alcotest.(check int) "braces balanced" (count '{') (count '}');
  Alcotest.(check int) "brackets balanced" (count '[') (count ']');
  Alcotest.(check bool) "no infinities leaked" false (contains json "inf");
  Alcotest.(check bool) "no NaN leaked" false (contains json "nan")

let test_string_escaping () =
  (* signal names cannot contain quotes, but verify the escaper directly
     through a relabelled graph exercising underscores and digits *)
  let g =
    Transform.relabel_signals (Tsg_circuit.Circuit_library.fig1_tsg ()) ~f:(fun s ->
        "sig_" ^ s ^ "_1")
  in
  let json = Json_report.analysis g (Cycle_time.analyze g) in
  Alcotest.(check bool) "renamed events present" true (contains json {|"sig_a_1+"|})

let suite =
  [
    Alcotest.test_case "analysis structure" `Quick test_analysis_structure;
    Alcotest.test_case "slack structure" `Quick test_slack_structure;
    Alcotest.test_case "float rendering" `Quick test_float_rendering;
    Alcotest.test_case "balanced output on a big report" `Quick test_balanced_brackets;
    Alcotest.test_case "string handling" `Quick test_string_escaping;
    law_float_bytes;
    Alcotest.test_case "escape returns plain strings unchanged" `Quick test_escape_fast_path;
    law_int_bytes;
    Alcotest.test_case "int extremes" `Quick test_int_extremes;
    law_report_bytes;
    Alcotest.test_case "hand-built report bytes" `Quick test_hand_reports;
  ]
