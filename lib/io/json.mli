(** A minimal JSON value and its compact writer, shared by
    {!Json_report} (file-oriented reports) and {!Rpc} (the [tsa serve]
    wire format).

    The writer emits no newlines, so every rendered value is a valid
    line of a newline-delimited JSON stream.  Floats are printed with
    full precision ([%.17g], round-trip exact); integral floats below
    [1e15] are printed without a fractional part.  JSON has no
    infinities or NaN — encode those as {!Null} (or a string) before
    rendering. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Raw of string
      (** spliced verbatim into the output: embeds an
          already-rendered value (e.g. a cached report) without
          re-parsing.  The caller guarantees it is valid JSON. *)

val to_string : t -> string
(** Render compactly (no spaces, no newlines). *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] appends the decimal digits of [i], exactly the
    bytes of [string_of_int i] (a leading ['-'] for negatives,
    [min_int] included), without allocating a string.  {!to_string}
    renders [Int] through it. *)

val add_float : Buffer.t -> float -> unit
(** [add_float buf f] appends [f] as {!to_string} renders [Float]:
    an integral [f] with [|f| < 1e15] as its decimal digits, written
    here without calling the C formatter (the bytes of
    [Printf.sprintf "%.0f" f], so [-0.] is ["-0"]); any other finite
    value as [Printf.sprintf "%.17g" f].  This byte contract is what
    lets encoders write numbers straight into a buffer and splice the
    result as [Raw]: their output is byte-equal to building the
    value tree.  [f] must be finite. *)

val escape : string -> string
(** The body of a JSON string literal for [s] — everything between
    the quotes, with double quotes, backslashes and control
    characters escaped. *)
