(** Fault-injectable I/O.

    Every durability and network path in the system funnels its file and
    socket operations through this module.  Passed [Io.none] (the
    default everywhere), each operation is a direct passthrough to the
    stdlib/Unix call — one [match] on an immutable [option], no
    allocation.  Passed {!faulty}, each operation first consults the
    {!Fault} injector and may deliver a torn write, a short read, a
    failed fsync, [ENOSPC], a flipped bit, [EINTR]/[EAGAIN], a
    connection reset, or a simulated process death ({!Fault.Crash}). *)

type t

val none : t
(** Zero-cost passthrough. *)

val faulty : Fault.t -> t

val fault : t -> Fault.t option
(** The injector behind [t], if any. *)

(** {1 Buffered file writing} *)

type out_file

val open_out : ?io:t -> ?append:bool -> string -> out_file
(** [open_out_bin]; truncates, unless [append] (default false) — then the
    file is opened (created if absent) positioned at its end. *)

val output_string : out_file -> string -> unit
(** Torn write: the prefix is flushed to the file, then {!Fault.Crash}.
    Disk full: the prefix is flushed, then [Unix_error (ENOSPC, _, _)]. *)

val output_buffer : out_file -> Buffer.t -> unit
val flush : out_file -> unit

val fsync : out_file -> unit
(** Flush then [Unix.fsync]; an injected failure raises
    [Unix_error (EIO, "fsync", path)] — the caller must not acknowledge
    the data as durable. *)

val close_out : out_file -> unit

val abandon_out : out_file -> unit
(** Close the underlying descriptor {e without} flushing: any bytes
    still sitting in the channel buffer are discarded, exactly as if
    the process had been killed.  Crash simulations use this to model
    losing un-fsynced, un-flushed appends. *)

val out_path : out_file -> string

(** {1 Whole-file operations} *)

val read_file : ?io:t -> string -> string
(** Reads the whole file; an injected short read returns a prefix, an
    injected bit flip corrupts one bit — consumers are expected to
    detect both via CRCs/framing. *)

val file_size : string -> int
(** Size in bytes ([Unix.stat]); raises [Unix_error] if absent. *)

val write_file_atomic : ?io:t -> string -> string -> unit
(** Write to a temp file in the target's directory, then rename.  On
    {!Fault.Crash} the temp file is {e left behind} (a killed process
    cannot clean up); on any other error it is removed. *)

(** {1 Socket operations} *)

val fd_read : ?io:t -> Unix.file_descr -> Bytes.t -> int -> int -> int
(** As [Unix.read].  Injected: short reads (benign), [EINTR], [EAGAIN]
    (deadline), [ECONNRESET]. *)

val fd_write : ?io:t -> Unix.file_descr -> Bytes.t -> int -> int -> int
(** As [Unix.write].  Injected: partial writes (benign — loop), [EINTR],
    [EAGAIN] (deadline), [ECONNRESET]. *)
