(* Spans recorded by the benchmark around its calls into each layer.
   The program itself is not instrumented for the benchmark: a span
   opens just before a public call and closes just after it returns.
   Spans stay in memory during the timed window and are written out
   once at the end. *)

type span = { name : string; op : int; parent : int; t0 : float; t1 : float }

type t = { mutable spans : span array; mutable len : int }

let create () = { spans = [||]; len = 0 }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (max 1024 (2 * t.len)) s in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1;
  t.len - 1

(* time [f ()] as span [name] of op [op] under span index [parent];
   returns the result and the duration in milliseconds *)
let record t ~name ~op ~parent f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let t1 = Unix.gettimeofday () in
  ignore (push t { name; op; parent; t0; t1 });
  (v, (t1 -. t0) *. 1000.)

(* an enclosing span whose index the children name as their parent:
   reserved before [f] runs, filled in when it returns *)
let with_parent t ~name ~op f =
  let t0 = Unix.gettimeofday () in
  let idx = push t { name; op; parent = -1; t0; t1 = t0 } in
  let v = f idx in
  t.spans.(idx) <- { (t.spans.(idx)) with t1 = Unix.gettimeofday () };
  v

let length t = t.len

(* one JSON object per line: name, op id, parent span index (-1 for a
   root), start and end in microseconds since the first span *)
let write t path =
  let origin = if t.len = 0 then 0. else t.spans.(0).t0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.len - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_us\":%.1f,\"end_us\":%.1f}\n"
      i s.name s.op s.parent
      ((s.t0 -. origin) *. 1e6)
      ((s.t1 -. origin) *. 1e6)
  done
