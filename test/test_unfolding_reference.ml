(* The digraph construction of the unfolding, kept as a reference: one
   closure call per arc instance adds it to a [Digraph], the CSR views
   are copied out of the digraph, and the topological order comes from
   the min-heap Kahn sort of [Topo].  The production construction
   (strided runs straight into CSR arrays, an order built period by
   period) must agree with it byte for byte. *)

open Tsg

(* ------------------------------------------------------------------ *)
(* Reference construction (public API only)                            *)

(* the (src, dst) instance pairs arc [a] induces, in period order *)
let iter_arc_instances u (a : Signal_graph.arc) f =
  let sg = Unfolding.signal_graph u in
  let periods = Unfolding.periods u in
  let inst event period = Unfolding.instance u ~event ~period in
  let once = a.disengageable || not (Signal_graph.is_repetitive sg a.arc_src) in
  let m = if a.marked then 1 else 0 in
  if once then begin
    if m = 0 || (m < periods && Signal_graph.is_repetitive sg a.arc_dst) then
      f (inst a.arc_src 0) (inst a.arc_dst m)
  end
  else begin
    let dst_periods = if Signal_graph.is_repetitive sg a.arc_dst then periods else 1 in
    for i = m to dst_periods - 1 do
      f (inst a.arc_src (i - m)) (inst a.arc_dst i)
    done
  end

let ref_dag u =
  let n = Unfolding.instance_count u in
  let dag = Tsg_graph.Digraph.create ~capacity:(max n 1) () in
  Tsg_graph.Digraph.add_vertices dag n;
  Array.iteri
    (fun aid a ->
      iter_arc_instances u a (fun src dst -> Tsg_graph.Digraph.add_arc dag ~src ~dst aid))
    (Signal_graph.arcs (Unfolding.signal_graph u));
  dag

let ref_csr dag ~incoming =
  let n = Tsg_graph.Digraph.vertex_count dag in
  let m = Tsg_graph.Digraph.arc_count dag in
  let starts = Array.make (n + 1) 0 in
  Tsg_graph.Digraph.iter_arcs dag (fun src dst _ ->
      let v = if incoming then dst else src in
      starts.(v + 1) <- starts.(v + 1) + 1);
  for v = 1 to n do
    starts.(v) <- starts.(v) + starts.(v - 1)
  done;
  let fill = Array.copy starts in
  let neighbors = Array.make (max m 1) 0 in
  let arc_ids = Array.make (max m 1) 0 in
  Tsg_graph.Digraph.iter_arcs dag (fun src dst aid ->
      let v, w = if incoming then (dst, src) else (src, dst) in
      neighbors.(fill.(v)) <- w;
      arc_ids.(fill.(v)) <- aid;
      fill.(v) <- fill.(v) + 1);
  (starts, neighbors, arc_ids)

let ref_order dag = Array.of_list (Tsg_graph.Topo.sort_exn dag)

(* ------------------------------------------------------------------ *)
(* Models with a non-repetitive prefix                                 *)

(* a random live core (marked arcs) behind a prefix of initial and
   non-repetitive events, declared interleaved with the core so that
   repetitive indices and event ids differ.  Prefix arcs run forward
   inside the prefix (some marked, some disengageable) and into the
   core, where they are disengageable by construction. *)
let prefixed_tsg ~seed ~core ~extra ~prefix =
  let g =
    Tsg_circuit.Generators.random_live_tsg ~seed ~max_delay:9 ~events:core
      ~extra_arcs:extra ()
  in
  let rng = Random.State.make [| seed; prefix |] in
  let pre = Array.init prefix (fun i -> Event.rise (Printf.sprintf "p%d" i)) in
  let initial = Array.init prefix (fun i -> i = 0 || Random.State.int rng 3 = 0) in
  let b = Signal_graph.builder () in
  let next_core = ref 0 and next_pre = ref 0 in
  while !next_core < core || !next_pre < prefix do
    if !next_pre < prefix && (!next_core = core || Random.State.bool rng) then begin
      let i = !next_pre in
      Signal_graph.add_event b pre.(i)
        (if initial.(i) then Signal_graph.Initial else Signal_graph.Non_repetitive);
      incr next_pre
    end
    else begin
      Signal_graph.add_event b (Signal_graph.event g !next_core) Signal_graph.Repetitive;
      incr next_core
    end
  done;
  Array.iter
    (fun (a : Signal_graph.arc) ->
      Signal_graph.add_arc b ~marked:a.marked ~delay:a.delay
        (Signal_graph.event g a.arc_src) (Signal_graph.event g a.arc_dst))
    (Signal_graph.arcs g);
  let delay () = float_of_int (Random.State.int rng 5) in
  for j = 0 to prefix - 1 do
    (* into the prefix: never into an initial event *)
    if (not initial.(j)) && j > 0 then
      for _ = 1 to 1 + Random.State.int rng 2 do
        let marked = Random.State.int rng 4 = 0 in
        let disengageable = (not marked) && Random.State.bool rng in
        Signal_graph.add_arc b ~marked ~disengageable ~delay:(delay ())
          pre.(Random.State.int rng j) pre.(j)
      done;
    (* into the core *)
    for _ = 1 to Random.State.int rng 3 do
      Signal_graph.add_arc b ~delay:(delay ()) pre.(j)
        (Signal_graph.event g (Random.State.int rng core))
    done
  done;
  Signal_graph.build_exn b

let gen =
  QCheck2.Gen.(
    let* core = int_range 3 10 in
    let* extra = int_range 0 8 in
    let* prefix = int_range 0 5 in
    let* seed = int_range 0 10_000 in
    let* periods = int_range 1 6 in
    return (prefixed_tsg ~seed ~core ~extra ~prefix, periods))

let print (g, periods) =
  Printf.sprintf "periods %d\n%s" periods (Tsg_io.Stg_format.to_string g)

let law ~name f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:200 ~print gen f)

(* ------------------------------------------------------------------ *)
(* Laws                                                                *)

let same_csr (s1, n1, a1) (s2, n2, a2) = s1 = s2 && n1 = n2 && a1 = a2

let law_csrs_match =
  law ~name:"CSR arrays are byte-equal to the digraph construction's" (fun (g, periods) ->
      let u = Unfolding.make g ~periods in
      let dag = ref_dag u in
      same_csr (Unfolding.in_adjacency u) (ref_csr dag ~incoming:true)
      && same_csr (Unfolding.out_adjacency u) (ref_csr dag ~incoming:false))

let law_order_valid =
  law ~name:"topological order is a valid permutation" (fun (g, periods) ->
      let u = Unfolding.make g ~periods in
      let n = Unfolding.instance_count u in
      let order = Unfolding.topological_order u in
      let pos = Unfolding.topo_position u in
      let seen = Array.make n false in
      Array.iter (fun v -> seen.(v) <- true) order;
      let forward = ref true in
      Tsg_graph.Digraph.iter_arcs (ref_dag u) (fun src dst _ ->
          if pos.(src) >= pos.(dst) then forward := false);
      Array.length order = n
      && Array.for_all Fun.id seen
      && Array.for_all Fun.id (Array.mapi (fun k v -> pos.(v) = k) order)
      && !forward)

(* stronger than validity: the cold order is the smallest-id-first
   order, so a root's topo position — the windowed kernel's scan
   length — does not depend on how the order is built *)
let law_order_canonical =
  law ~name:"cold order is the smallest-id-first order" (fun (g, periods) ->
      let u = Unfolding.make g ~periods in
      Unfolding.topological_order u = ref_order (ref_dag u))

let law_identity_patch =
  law ~name:"identity patch reproduces make's views" (fun (g, periods) ->
      let u = Unfolding.make g ~periods in
      let arc_map = Array.init (Signal_graph.arc_count g) Fun.id in
      let u', delta = Unfolding.patch u g ~arc_map in
      same_csr (Unfolding.in_adjacency u') (Unfolding.in_adjacency u)
      && same_csr (Unfolding.out_adjacency u') (Unfolding.out_adjacency u)
      && Unfolding.topological_order u' = Unfolding.topological_order u
      && delta.Unfolding.pd_spliced = [||]
      && delta.Unfolding.pd_dropped = [||])

(* an arc-level edit of [g] drawn from [k]: drop arc [k mod m], or add
   a marked arc between two repetitive events (a token on it cannot
   close a token-free cycle).  Returns the edited graph, the arc map
   and the id of the dropped base arc or of the added arc ([None] when
   the drop breaks validity). *)
let edit g k =
  let arcs = Signal_graph.arcs g in
  let m = Array.length arcs in
  if k mod 2 = 0 then
    let gone = k / 2 mod m in
    let table = Array.of_list (List.filteri (fun i _ -> i <> gone) (Array.to_list arcs)) in
    match Signal_graph.with_arcs g table with
    | Error _ -> None
    | Ok g' ->
      let arc_map =
        Array.init m (fun a -> if a = gone then -1 else if a < gone then a else a - 1)
      in
      Some (g', arc_map, `Dropped gone)
  else
    let rep = Array.of_list (Signal_graph.repetitive_events g) in
    let pick i = rep.(i mod Array.length rep) in
    let extra = Signal_graph.make_arc g ~marked:true ~delay:1. (pick k) (pick (k / 7)) in
    match Signal_graph.with_arcs g (Array.append arcs [| extra |]) with
    | Error _ -> None
    | Ok g' -> Some (g', Array.init m Fun.id, `Spliced m)

let pairs u a =
  let acc = ref [] in
  iter_arc_instances u (Signal_graph.arc (Unfolding.signal_graph u) a) (fun s d ->
      acc := (s, d) :: !acc);
  List.sort compare !acc

let law_patch_is_cold =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"an edited patch equals make of the edited graph" ~count:200
       ~print:(fun ((g, periods), k) -> Printf.sprintf "edit %d, %s" k (print (g, periods)))
       QCheck2.Gen.(pair gen (int_range 0 1000))
       (fun ((g, periods), k) ->
         match edit g k with
         | None -> true
         | Some (g', arc_map, changed) ->
           let u = Unfolding.make g ~periods in
           let u', delta = Unfolding.patch u g' ~arc_map in
           let cold = Unfolding.make g' ~periods in
           let sorted a = List.sort compare (Array.to_list a) in
           let spliced, dropped =
             match changed with
             | `Dropped a -> ([], pairs u a)
             | `Spliced a -> (pairs cold a, [])
           in
           same_csr (Unfolding.in_adjacency u') (Unfolding.in_adjacency cold)
           && same_csr (Unfolding.out_adjacency u') (Unfolding.out_adjacency cold)
           && Unfolding.topological_order u' = Unfolding.topological_order cold
           && sorted delta.Unfolding.pd_spliced = spliced
           && sorted delta.Unfolding.pd_dropped = dropped))

let test_counts_arc_instances () =
  let g = Tsg_circuit.Circuit_library.fig1_tsg () in
  let before = Tsg_engine.Metrics.count "unfolding/arc_instances" in
  let u = Unfolding.make g ~periods:4 in
  let m = Tsg_graph.Digraph.arc_count (ref_dag u) in
  Alcotest.(check int) "make counts its arc instances" m
    (Tsg_engine.Metrics.count "unfolding/arc_instances" - before);
  ignore (Unfolding.patch u g ~arc_map:(Array.init (Signal_graph.arc_count g) Fun.id));
  Alcotest.(check int) "patch counts them too" (2 * m)
    (Tsg_engine.Metrics.count "unfolding/arc_instances" - before)

let suite =
  [
    law_csrs_match;
    law_order_valid;
    law_order_canonical;
    law_identity_patch;
    law_patch_is_cold;
    Alcotest.test_case "arc instances are counted" `Quick test_counts_arc_instances;
  ]
