open Tsg

let fig1 () = Tsg_circuit.Circuit_library.fig1_tsg ()

(* every arc instance [(src, dst, arc id)] of the unfolding, from its
   out-CSR *)
let iter_arcs u f =
  let starts, dsts, arc_ids = Unfolding.out_adjacency u in
  for src = 0 to Unfolding.instance_count u - 1 do
    for j = starts.(src) to starts.(src + 1) - 1 do
      f src dsts.(j) arc_ids.(j)
    done
  done

let arc_count u =
  let starts, _, _ = Unfolding.in_adjacency u in
  starts.(Unfolding.instance_count u)

let test_instance_layout () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  (* 8 events in period 0, 6 repetitive in periods 1 and 2 *)
  Alcotest.(check int) "instance count" (8 + 6 + 6) (Unfolding.instance_count u);
  Alcotest.(check int) "periods" 3 (Unfolding.periods u)

let test_instance_roundtrip () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:3 in
  for e = 0 to Signal_graph.event_count g - 1 do
    for p = 0 to 2 do
      match Unfolding.instance_opt u ~event:e ~period:p with
      | Some i ->
        Alcotest.(check (pair int int)) "roundtrip" (e, p) (Unfolding.event_of_instance u i)
      | None ->
        Alcotest.(check bool) "only non-repetitive instances missing" false
          (Signal_graph.is_repetitive g e || p = 0)
    done
  done

let test_non_repetitive_single_instance () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let f = Signal_graph.id g (Event.of_string_exn "f-") in
  Alcotest.(check bool) "period 0 exists" true
    (Unfolding.instance_opt u ~event:f ~period:0 <> None);
  Alcotest.(check bool) "period 1 missing" true
    (Unfolding.instance_opt u ~event:f ~period:1 = None)

let test_instance_exn () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let f = Signal_graph.id g (Event.of_string_exn "f-") in
  Alcotest.check_raises "missing instance"
    (Invalid_argument
       (Printf.sprintf "Unfolding.instance: no instance of event %d in period 1" f))
    (fun () -> ignore (Unfolding.instance u ~event:f ~period:1))

let test_acyclic () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:5 in
  let is_dag u = Tsg_graph.Topo.is_dag (Test_unfolding_reference.ref_dag u) in
  Alcotest.(check bool) "unfolding is a dag" true (is_dag u);
  let ring = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:7 () in
  let ur = Unfolding.make ring ~periods:9 in
  Alcotest.(check bool) "ring unfolding is a dag" true (is_dag ur)

let test_marked_arcs_cross_periods () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:4 in
  iter_arcs u (fun src dst aid ->
      let _, p_src = Unfolding.event_of_instance u src in
      let _, p_dst = Unfolding.event_of_instance u dst in
      let a = Signal_graph.arc (Unfolding.signal_graph u) aid in
      let expected_gap = if a.Signal_graph.marked then 1 else 0 in
      Alcotest.(check int) "period gap equals marking" expected_gap (p_dst - p_src))

let test_disengageable_once () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:4 in
  let e = Signal_graph.id g (Event.of_string_exn "e-") in
  let a = Signal_graph.id g (Event.of_string_exn "a+") in
  let e0 = Unfolding.instance u ~event:e ~period:0 in
  let starts, srcs, _ = Unfolding.in_adjacency u in
  let count_arcs_to period =
    let target = Unfolding.instance u ~event:a ~period in
    let n = ref 0 in
    for j = starts.(target) to starts.(target + 1) - 1 do
      if srcs.(j) = e0 then incr n
    done;
    !n
  in
  Alcotest.(check int) "constrains a+ period 0" 1 (count_arcs_to 0);
  Alcotest.(check int) "does not constrain a+ period 1" 0 (count_arcs_to 1);
  Alcotest.(check int) "does not constrain a+ period 3" 0 (count_arcs_to 3)

let test_initial_instances () =
  let g = fig1 () in
  let u = Unfolding.make g ~periods:2 in
  let names =
    List.map
      (fun i ->
        let e, p = Unfolding.event_of_instance u i in
        Alcotest.(check int) "initial instances in period 0" 0 p;
        Event.to_string (Signal_graph.event g e))
      (Unfolding.initial_instances u)
  in
  Alcotest.(check (list string)) "I_u = {e-}" [ "e-" ] names

let test_initial_instances_all_marked () =
  (* an event whose every in-arc is marked belongs to I_u *)
  let b = Signal_graph.builder () in
  Signal_graph.add_event b (Event.rise "a") Signal_graph.Repetitive;
  Signal_graph.add_event b (Event.rise "b") Signal_graph.Repetitive;
  Signal_graph.add_arc b ~marked:true ~delay:1. (Event.rise "a") (Event.rise "b");
  Signal_graph.add_arc b ~marked:false ~delay:1. (Event.rise "b") (Event.rise "a");
  let g = Signal_graph.build_exn b in
  let u = Unfolding.make g ~periods:2 in
  let names =
    List.map
      (fun i ->
        let e, _ = Unfolding.event_of_instance u i in
        Event.to_string (Signal_graph.event g e))
      (Unfolding.initial_instances u)
  in
  Alcotest.(check (list string)) "b+ starts immediately" [ "b+" ] names

let test_arc_count_growth () =
  let ring = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:5 () in
  let u1 = Unfolding.make ring ~periods:1 in
  let u3 = Unfolding.make ring ~periods:3 in
  (* each extra period adds at most one instance per TSG arc *)
  Alcotest.(check bool) "arcs grow linearly" true
    (arc_count u3 - arc_count u1 = 2 * Signal_graph.arc_count ring)

let test_csr_matches_digraph () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 () in
  let u = Unfolding.make g ~periods:5 in
  let dag = Test_unfolding_reference.ref_dag u in
  let starts_in, srcs, in_aids = Unfolding.in_adjacency u in
  let starts_out, dsts, out_aids = Unfolding.out_adjacency u in
  for v = 0 to Unfolding.instance_count u - 1 do
    let csr_in =
      List.init (starts_in.(v + 1) - starts_in.(v)) (fun k ->
          (srcs.(starts_in.(v) + k), in_aids.(starts_in.(v) + k)))
    in
    Alcotest.(check (list (pair int int)))
      "in-adjacency agrees"
      (List.sort compare (Tsg_graph.Digraph.in_arcs dag v))
      (List.sort compare csr_in);
    let csr_out =
      List.init (starts_out.(v + 1) - starts_out.(v)) (fun k ->
          (dsts.(starts_out.(v) + k), out_aids.(starts_out.(v) + k)))
    in
    Alcotest.(check (list (pair int int)))
      "out-adjacency agrees"
      (List.sort compare (Tsg_graph.Digraph.out_arcs dag v))
      (List.sort compare csr_out)
  done

let test_topological_order_cached () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let u = Unfolding.make g ~periods:3 in
  let o1 = Unfolding.topological_order u in
  let o2 = Unfolding.topological_order u in
  Alcotest.(check bool) "same array (cached)" true (o1 == o2);
  (* it really is topological *)
  let pos = Array.make (Unfolding.instance_count u) 0 in
  Array.iteri (fun i v -> pos.(v) <- i) o1;
  iter_arcs u (fun src dst _ ->
      Alcotest.(check bool) "arc goes forward" true (pos.(src) < pos.(dst)))

let test_topo_position_inverse () =
  let g = Tsg_circuit.Circuit_library.muller_ring_tsg ~stages:4 () in
  let u = Unfolding.make g ~periods:5 in
  let order = Unfolding.topological_order u in
  let pos = Unfolding.topo_position u in
  Alcotest.(check bool) "same array (cached)" true (pos == Unfolding.topo_position u);
  Array.iteri
    (fun k v -> Alcotest.(check int) "inverse of the topological order" k pos.(v))
    order;
  (* the windowing property: nothing before an instance's position is
     reachable from it *)
  iter_arcs u (fun src dst _ ->
      Alcotest.(check bool) "arcs go to larger positions" true (pos.(src) < pos.(dst)))

let test_rejects_zero_periods () =
  let g = fig1 () in
  Alcotest.check_raises "periods >= 1" (Invalid_argument "Unfolding.make: periods must be >= 1")
    (fun () -> ignore (Unfolding.make g ~periods:0))

let suite =
  [
    Alcotest.test_case "instance layout" `Quick test_instance_layout;
    Alcotest.test_case "instance/event roundtrip" `Quick test_instance_roundtrip;
    Alcotest.test_case "non-repetitive events instantiate once" `Quick
      test_non_repetitive_single_instance;
    Alcotest.test_case "missing instance raises" `Quick test_instance_exn;
    Alcotest.test_case "unfoldings are acyclic" `Quick test_acyclic;
    Alcotest.test_case "marked arcs cross one period" `Quick test_marked_arcs_cross_periods;
    Alcotest.test_case "disengageable arcs constrain once" `Quick test_disengageable_once;
    Alcotest.test_case "I_u of fig1" `Quick test_initial_instances;
    Alcotest.test_case "I_u includes fully-marked events" `Quick
      test_initial_instances_all_marked;
    Alcotest.test_case "arc growth per period" `Quick test_arc_count_growth;
    Alcotest.test_case "CSR views agree with the digraph" `Quick test_csr_matches_digraph;
    Alcotest.test_case "topological order is cached and valid" `Quick
      test_topological_order_cached;
    Alcotest.test_case "topo_position inverts the order" `Quick
      test_topo_position_inverse;
    Alcotest.test_case "rejects zero periods" `Quick test_rejects_zero_periods;
  ]
