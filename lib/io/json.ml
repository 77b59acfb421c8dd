type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

let escape s =
  if not (String.exists needs_escape s) then s
  else begin
    let buf = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf
  end

(* the C formatter [Printf] ends up in for [%.17g], called directly:
   same bytes, without parsing the format on every float *)
external format_float : string -> float -> string = "caml_format_float"

(* the digits of [n <= 0], most significant first; working on the
   non-positive side covers [min_int], whose negation overflows *)
let rec add_nonpos_digits buf n =
  if n <= -10 then add_nonpos_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_nonpos_digits buf i
  end
  else add_nonpos_digits buf (-i)

(* an integral float below 1e15 is exactly an OCaml int, so its
   digits are those of [%.0f]; the sign test keeps [-0.] as ["-0"] *)
let add_float buf f =
  if Float.is_integer f && abs_float f < 1e15 then begin
    if Float.sign_bit f then Buffer.add_char buf '-';
    add_nonpos_digits buf (-abs (int_of_float f))
  end
  else Buffer.add_string buf (format_float "%.17g" f)

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  (* JSON has no infinities; callers encode them as null before here *)
  | Float f -> add_float buf f
  | String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Raw s -> Buffer.add_string buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf (String k);
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string json =
  let buf = Buffer.create 1024 in
  emit buf json;
  Buffer.contents buf
