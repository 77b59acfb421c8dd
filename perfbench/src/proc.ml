(* The serving processes a workload starts: [tsa serve] replicas and a
   [tsa proxy], each with its stdout/stderr captured in a log file in
   the work directory.  Every process started here is stopped and
   reaped before the benchmark exits; [kill_all] covers an error path. *)

type t = { pid : int; endpoint : string }

(* pids started and not yet reaped *)
let live : int list ref = ref []

let reap ?(grace_s = 10.) pid =
  let rec wait deadline =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait deadline
    | 0, _ ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait deadline
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait (Unix.gettimeofday () +. grace_s);
  live := List.filter (( <> ) pid) !live

let signal s pid = try Unix.kill pid s with Unix.Unix_error _ -> ()

(* SIGTERM asks for a graceful drain; whatever is still running after
   the grace period is killed.  A reaped pid is never signalled again:
   the system may have given it to another process. *)
let stop_all ps =
  let pids = List.filter (fun pid -> List.mem pid !live) (List.map (fun p -> p.pid) ps) in
  List.iter (signal Sys.sigterm) pids;
  List.iter (fun pid -> reap pid) pids

(* the error path: whatever is still running is killed and reaped *)
let kill_all () =
  List.iter (signal Sys.sigkill) !live;
  List.iter (reap ~grace_s:2.) !live

(* read to end of file: /proc files report a length of 0 *)
let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        let buf = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel buf ic 1
           done
         with End_of_file -> ());
        Buffer.contents buf)
  | exception Sys_error _ -> ""

(* the bound endpoint as the daemon announces it on stderr, e.g.
   "tsa: serving on 127.0.0.1:40123 (tcp, ..." *)
let announced ~marker log =
  let text = read_file log in
  match Str.search_forward (Str.regexp_string marker) text 0 with
  | i ->
    let start = i + String.length marker in
    let stop = try String.index_from text start ' ' with Not_found -> String.length text in
    if stop > start then Some (String.sub text start (stop - start)) else None
  | exception Not_found -> None

let spawn ~tsa ~log ~marker args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process tsa (Array.of_list (tsa :: args)) Unix.stdin fd fd)
  in
  live := pid :: !live;
  let deadline = Unix.gettimeofday () +. 30. in
  let rec wait () =
    match announced ~marker log with
    | Some endpoint -> { pid; endpoint }
    | None ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then begin
        live := List.filter (( <> ) pid) !live;
        failwith (Printf.sprintf "%s exited before serving:\n%s" tsa (read_file log))
      end;
      if Unix.gettimeofday () > deadline then
        failwith (Printf.sprintf "%s did not announce an endpoint in %s" tsa log);
      Unix.sleepf 0.005;
      wait ()
  in
  wait ()

(* high-water resident set of a process, in MB *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  match Str.search_forward (Str.regexp "VmHWM:[ \t]*\\([0-9]+\\) kB") status 0 with
  | _ -> float_of_string (Str.matched_group 1 status) /. 1024.
  | exception Not_found -> nan
