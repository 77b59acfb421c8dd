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
  ]
