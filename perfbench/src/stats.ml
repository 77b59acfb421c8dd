(* Order statistics over the samples of one run. *)

(* linear interpolation between closest ranks (the "type 7" estimator
   of most statistics packages); [q] in [0, 1] *)
let quantile a q =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median a = quantile a 0.5
let sum a = Array.fold_left ( +. ) 0. a

(* a ratio whose denominator may be zero (a layer the workload never
   reached): report 0 rather than nan, so the JSON stays numeric *)
let ratio num den = if den = 0. then 0. else num /. den
