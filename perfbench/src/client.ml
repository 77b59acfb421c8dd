(* A persistent newline-JSON connection, as a long-lived caller of the
   serving tier holds one: one request line out, one response line
   back, many times over the same socket. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect endpoint =
  match Tsg_engine.Server.endpoint_of_string endpoint with
  | Ok (Tsg_engine.Server.Tcp { host; port }) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
       Unix.setsockopt fd Unix.TCP_NODELAY true;
       (* a reply that never comes fails the request instead of the run *)
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.
     with e ->
       Unix.close fd;
       raise e);
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | Ok (Tsg_engine.Server.Unix_socket _) | Error _ ->
    invalid_arg ("not a TCP endpoint: " ^ endpoint)

let request t line =
  output_string t.oc line;
  output_char t.oc '\n';
  flush t.oc;
  input_line t.ic

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

(* a one-shot request on its own connection (stats before and after
   the timed window) *)
let call endpoint line =
  let t = connect endpoint in
  Fun.protect ~finally:(fun () -> close t) (fun () -> request t line)
