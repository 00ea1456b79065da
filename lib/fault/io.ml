type t = Fault.t option

let none = None
let faulty f = Some f
let fault t = t

(* --- buffered file writing --- *)

type out_file = {
  oc : out_channel;
  io : Fault.t option;
  path : string;
  mutable closed : bool;
}

let open_out ?(io = none) ?(append = false) path =
  let oc =
    if append then
      Stdlib.open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path
    else open_out_bin path
  in
  { oc; io; path; closed = false }
let out_path f = f.path

let output_string f s =
  match f.io with
  | None -> Stdlib.output_string f.oc s
  | Some inj -> (
      let len = String.length s in
      match Fault.on_write inj ~len with
      | `Ok -> Stdlib.output_string f.oc s
      | `Torn k ->
          (* the prefix reaches the file (the kernel had it); everything
             after is lost with the process *)
          Stdlib.output_substring f.oc s 0 k;
          Stdlib.flush f.oc;
          raise
            (Fault.Crash (Printf.sprintf "torn write (%d/%d bytes) to %s" k len f.path))
      | `Disk_full k ->
          Stdlib.output_substring f.oc s 0 k;
          Stdlib.flush f.oc;
          raise (Unix.Unix_error (Unix.ENOSPC, "write", f.path)))

let output_buffer f buf = output_string f (Buffer.contents buf)
let flush f = Stdlib.flush f.oc

let fsync f =
  Stdlib.flush f.oc;
  match f.io with
  | None -> Unix.fsync (Unix.descr_of_out_channel f.oc)
  | Some inj -> (
      match Fault.on_fsync inj with
      | `Ok -> Unix.fsync (Unix.descr_of_out_channel f.oc)
      | `Fail -> raise (Unix.Unix_error (Unix.EIO, "fsync", f.path)))

let close_out f =
  if not f.closed then begin
    f.closed <- true;
    Stdlib.close_out f.oc
  end

let abandon_out f =
  if not f.closed then begin
    f.closed <- true;
    (* close the fd underneath the channel so its buffered bytes never
       reach the file — a killed process loses exactly this data *)
    (try Unix.close (Unix.descr_of_out_channel f.oc) with Unix.Unix_error _ -> ());
    try Stdlib.close_out_noerr f.oc with _ -> ()
  end

(* --- whole-file operations --- *)

let read_raw path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let damage io s =
  match io with
  | None -> s
  | Some inj -> (
      match Fault.on_read inj ~len:(String.length s) with
      | `Ok -> s
      | `Short k -> String.sub s 0 k
      | `Bit_flip i ->
          let b = Bytes.of_string s in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (i mod 8))));
          Bytes.unsafe_to_string b)

let read_file ?(io = none) path = damage io (read_raw path)

let file_size path = (Unix.stat path).Unix.st_size

let write_file_atomic ?(io = none) path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  let f = open_out ~io tmp in
  (match output_string f content with
  | () -> close_out f
  | exception (Fault.Crash _ as e) ->
      (* a killed process leaves its temp file behind — recovery tooling
         must cope with (and clean) strays, so don't hide them here *)
      close_out f;
      raise e
  | exception e ->
      close_out f;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

(* --- socket operations --- *)

let fd_read ?(io = none) fd buf pos len =
  match io with
  | None -> Unix.read fd buf pos len
  | Some inj -> (
      match Fault.on_sock_read inj ~len with
      | `Ok -> Unix.read fd buf pos len
      | `Short k -> Unix.read fd buf pos (min k len)
      | `Eintr -> raise (Unix.Unix_error (Unix.EINTR, "read", ""))
      | `Eagain -> raise (Unix.Unix_error (Unix.EAGAIN, "read", ""))
      | `Reset -> raise (Unix.Unix_error (Unix.ECONNRESET, "read", "")))

let fd_write ?(io = none) fd buf pos len =
  match io with
  | None -> Unix.write fd buf pos len
  | Some inj -> (
      match Fault.on_sock_write inj ~len with
      | `Ok -> Unix.write fd buf pos len
      | `Partial k -> Unix.write fd buf pos (min k len)
      | `Eintr -> raise (Unix.Unix_error (Unix.EINTR, "write", ""))
      | `Eagain -> raise (Unix.Unix_error (Unix.EAGAIN, "write", ""))
      | `Reset -> raise (Unix.Unix_error (Unix.ECONNRESET, "write", "")))
