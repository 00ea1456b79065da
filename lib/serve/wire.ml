module Io = Sbi_fault.Io

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  if s = "" then Error "empty address"
  else if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | None -> Error (Printf.sprintf "bad address %S (expected a /path or host:port)" s)
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in address %S" s))

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_sock path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      match
        Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with
      | { Unix.ai_addr; _ } :: _ -> Ok ai_addr
      | [] | (exception Not_found) ->
          Error (Printf.sprintf "cannot resolve host %S" host))

exception Timeout

(* --- partial-operation-safe primitives --- *)

let rec write_fully ?io fd buf pos len =
  if len > 0 then
    match Io.fd_write ?io fd buf pos len with
    | n -> write_fully ?io fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_fully ?io fd buf pos len
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout

let write_string ?io fd s = write_fully ?io fd (Bytes.unsafe_of_string s) 0 (String.length s)

type reader = {
  r_fd : Unix.file_descr;
  r_io : Io.t option;
  r_chunk : Bytes.t;
  mutable r_pos : int;
  mutable r_len : int;  (* valid bytes in r_chunk; -1 after EOF *)
}

let max_line = 1 lsl 20

let reader ?io fd =
  { r_fd = fd; r_io = io; r_chunk = Bytes.create 8192; r_pos = 0; r_len = 0 }

(* Pulls more bytes into the chunk; false at EOF. *)
let rec refill r =
  match
    match r.r_io with
    | None -> Unix.read r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk)
    | Some io -> Io.fd_read ~io r.r_fd r.r_chunk 0 (Bytes.length r.r_chunk)
  with
  | 0 -> false
  | n ->
      r.r_pos <- 0;
      r.r_len <- n;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> raise Timeout

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let read_line r =
  let buf = Buffer.create 80 in
  let rec go () =
    if r.r_pos >= r.r_len then
      if refill r then go ()
      else if Buffer.length buf = 0 then `Eof
      else `Line (strip_cr (Buffer.contents buf)) (* unterminated final line *)
    else
      match Bytes.index_from_opt r.r_chunk r.r_pos '\n' with
      | Some i when i < r.r_len ->
          Buffer.add_subbytes buf r.r_chunk r.r_pos (i - r.r_pos);
          r.r_pos <- i + 1;
          if Buffer.length buf > max_line then `Too_long
          else `Line (strip_cr (Buffer.contents buf))
      | _ ->
          Buffer.add_subbytes buf r.r_chunk r.r_pos (r.r_len - r.r_pos);
          r.r_pos <- r.r_len;
          (* bail before the next refill: an unterminated flood must not
             grow the buffer without bound *)
          if Buffer.length buf > max_line then `Too_long else go ()
  in
  go ()

(* --- framing --- *)

let stuff line = if String.length line > 0 && line.[0] = '.' then "." ^ line else line

let unstuff line =
  if String.length line > 1 && line.[0] = '.' then String.sub line 1 (String.length line - 1)
  else line

(* Responses are rendered to a string, not written: the event loop queues
   it on a connection's write buffer and drains it across partial
   non-blocking writes. *)
let render_framed header lines =
  let buf = Buffer.create 256 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun line ->
      Buffer.add_string buf (stuff line);
      Buffer.add_char buf '\n')
    lines;
  Buffer.add_string buf ".\n";
  Buffer.contents buf

let render_ok ~header ~lines = render_framed ("ok " ^ header) lines
let render_err msg = render_framed ("err " ^ msg) []

let read_response rd =
  let line () =
    match read_line rd with
    | `Line l -> l
    | `Eof -> raise End_of_file
    | `Too_long -> failwith "too_long"
  in
  match
    let header = line () in
    let rec payload acc =
      let l = line () in
      if l = "." then List.rev acc else payload (unstuff l :: acc)
    in
    (header, payload [])
  with
  | exception Failure _ -> Error "response line exceeds the reader's bound"
  | header, lines ->
      if header = "ok" then Ok ("", lines)
      else if String.length header >= 3 && String.sub header 0 3 = "ok " then
        Ok (String.sub header 3 (String.length header - 3), lines)
      else if String.length header >= 4 && String.sub header 0 4 = "err " then
        Error (String.sub header 4 (String.length header - 4))
      else Error ("malformed response header: " ^ header)
