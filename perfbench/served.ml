(* A real `cbi serve` process and the load generator's connections to it.

   The server runs the built binary directly (never through `dune exec`)
   with the CLI defaults; only the index, the address and the ingest log
   are set.  Every address is a Unix socket inside the episode's fresh
   directory, given relative to the checkout root, which is the working
   directory of both processes (this keeps it under the 108-byte socket
   path limit wherever the checkout lives). *)

open Sbi_serve

let live_pids : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

let () = at_exit kill_all

let run_quiet ~log prog args =
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin out out in
  Unix.close out;
  pid

(* `cbi index LOG -o DIR`, waited for. *)
let build_index ~cbi ~log ~dir ~out =
  let pid = run_quiet ~log:out cbi [ "index"; log; "-o"; dir ] in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith ("cbi index failed; see " ^ out)

type server = { pid : int; addr : Wire.addr; sock : string }

let start ~cbi ~idx ~sock ~log ~out =
  let pid = run_quiet ~log:out cbi [ "serve"; idx; "--addr"; sock; "--log"; log ] in
  live_pids := pid :: !live_pids;
  { pid; addr = Wire.Unix_sock sock; sock }

(* Readiness: single-attempt connects in a tight loop (no backoff sleeps),
   then one [ping].  Returns once a request has succeeded. *)
let wait_ready srv =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    if Unix.gettimeofday () > deadline then failwith "server did not become ready";
    (match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ -> ()
    | _ -> failwith "server exited during start-up");
    match Client.connect ~timeout_ms:10_000 ~retry:Sbi_fault.Retry.no_retry srv.addr with
    | Error _ ->
        Unix.sleepf 0.0002;
        go ()
    | Ok c -> (
        match Client.request c "ping" with
        | Ok _ -> Client.close c
        | Error _ | (exception _) ->
            Client.close c;
            go ())
  in
  go ()

(* SIGTERM and reap; SIGKILL if the server has not exited in 30 s. *)
let stop srv =
  (try Unix.kill srv.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        (try Unix.kill srv.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] srv.pid)
    | _ -> ()
  in
  reap ();
  live_pids := List.filter (fun p -> p <> srv.pid) !live_pids

(* A raw connection: pre-rendered requests go out with one write, and the
   framed reply is read with the protocol's own reader. *)
type conn = { fd : Unix.file_descr; rd : Wire.reader }

let connect srv =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX srv.sock);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 60.;
  { fd; rd = Wire.reader fd }

(* Outcome of one round trip as the client sees it. *)
type reply = (string * string list, string) result

let guard f : reply =
  match f () with
  | r -> r
  | exception Wire.Timeout -> Error "timeout"
  | exception End_of_file -> Error "connection closed"
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

(* A round trip in two halves, so that one thread can drive several
   connections: [send] is [Ok] once the request is written, or the error
   a failed write makes of the round trip. *)
let send c body =
  guard (fun () ->
      Wire.write_string c.fd body;
      Ok ("", []))

let receive c = guard (fun () -> Wire.read_response c.rd)
let exchange c body = match send c body with Ok _ -> receive c | Error _ as e -> e
let request c line = exchange c (line ^ "\n")
let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* [stats] lines are "key value"; returns the value of [key]. *)
let stat_value lines key =
  List.find_map
    (fun l ->
      match String.index_opt l ' ' with
      | Some i when String.sub l 0 i = key -> Some (String.sub l (i + 1) (String.length l - i - 1))
      | _ -> None)
    lines

let stat_int lines key =
  match stat_value lines key with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> failwith ("bad stat " ^ key))
  | None -> failwith ("missing stat " ^ key)

(* One cold start of a serving episode: index the log into [dir]/idx, start
   the server on [dir]/s.sock with its ingest log in [dir]/ingest, and
   wait until a request succeeds.  The caller times it. *)
let up ~cbi ~dir ~log =
  let idx = Filename.concat dir "idx" in
  let out = Filename.concat dir "server.out" in
  build_index ~cbi ~log ~dir:idx ~out;
  let srv =
    start ~cbi ~idx ~sock:(Filename.concat dir "s.sock") ~log:(Filename.concat dir "ingest") ~out
  in
  wait_ready srv;
  srv

let stats c =
  match request c "stats" with
  | Ok (_, lines) -> lines
  | Error e -> failwith ("stats failed: " ^ e)
