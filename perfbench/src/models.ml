(* Seeded inputs.  Every model a workload uses is generated from the
   workload seed and written as a .g file during set-up; the program
   only ever sees those files (or requests naming them). *)


(* an independent stream per (seed, purpose), so adding a draw to one
   workload's set-up never shifts another's inputs *)
let rng seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

type shape =
  | Sparse of { events : int; tokens : int; chords : int }
      (** {!Tsg_circuit.Generators.segmented_live_tsg}: border = tokens *)
  | Dense of { events : int; chords : int; border : int * int }
      (** {!Tsg_circuit.Generators.random_live_tsg}, redrawn (seed,
          seed + 1, ...) until its border size lies in [border]: the
          work of an analysis grows with b squared, and b varies by
          +-10% between draws of one shape, so an unconstrained seed
          would change the workload's size *)

let generate shape ~seed =
  match shape with
  | Sparse { events; tokens; chords } ->
    Tsg_circuit.Generators.segmented_live_tsg ~seed ~events ~tokens ~extra_arcs:chords ()
  | Dense { events; chords; border = lo, hi } ->
    let rec draw seed =
      let g = Tsg_circuit.Generators.random_live_tsg ~seed ~events ~extra_arcs:chords () in
      let b = List.length (Tsg.Cut_set.border g) in
      if lo <= b && b <= hi then g else draw (seed + 1)
    in
    draw seed

(* [count] models of [shape] written under [dir] as [prefix]-<i>.g,
   each named after its own seed; returns the paths *)
let write_set ~dir ~prefix ~shape ~seed ~count =
  let st = rng seed prefix in
  Array.init count (fun i ->
      let s = Random.State.bits st in
      let g = generate shape ~seed:s in
      let path = Filename.concat dir (Printf.sprintf "%s-%03d.g" prefix i) in
      Tsg_io.Stg_format.write_file ~model:(Printf.sprintf "%s_%d" prefix s) path g;
      path)

