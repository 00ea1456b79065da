(** Event-driven, multi-domain connection front end over poll(2).

    Built for connection scale: [loops] domains each run a poll(2)
    readiness loop (C stub — no FD_SETSIZE ceiling, unlike
    [Unix.select]) over non-blocking fds with a per-connection state
    machine for the newline/dot-framed protocol.  Request handling runs
    on a small bounded worker-thread pool so the loops never block;
    responses travel back through a per-loop inbox + self-pipe wakeup.

    Backpressure: while a connection has a request in flight or response
    bytes still draining, its fd is dropped from the read interest set —
    a flooding peer is throttled by the kernel socket buffer, and at
    most one request per connection is ever being processed.

    Overload: admission is capped exactly at [max_conns] (atomic
    fetch-and-add with rollback); beyond it the client is accepted,
    told [err busy], and closed ([on_fault "overload"]).  Transient
    accept(2) failures — EMFILE, ENFILE, ECONNABORTED, ... — count
    [on_fault "accept"] and park only the listener briefly; live
    connections keep being served.

    Stalled peers are governed by monotonic-clock idle deadlines:
    expiry counts [on_fault "timeout"] (waiting for a request) or
    [on_fault "send_timeout"] (peer stopped reading a response). *)

(** {1 poll(2) primitives} *)

val wait_readable :
  ?timeout_ms:int -> Unix.file_descr -> [ `Ready | `Timeout ]
(** Single-fd readiness wait via poll(2); works on fds >= 1024 where
    [Unix.select] raises.  [timeout_ms < 0] (the default) waits forever;
    EINTR is retried against the remaining budget.  [`Ready] is also
    returned on error/hangup — the following syscall reports the
    condition. *)

val wait_writable :
  ?timeout_ms:int -> Unix.file_descr -> [ `Ready | `Timeout ]

val nofile_limit : unit -> int * int
(** Current RLIMIT_NOFILE as [(soft, hard)]; -1 means unlimited. *)

val set_nofile_limit : int -> int * int
(** Set the soft RLIMIT_NOFILE to [min n hard]; returns the resulting
    [(soft, hard)].  Used by the connection-scale tests and bench to
    open thousands of sockets (or to force accept(2) into EMFILE). *)

(** {1 The connection front end} *)

type request =
  | Line of string  (** one complete request line, CR/LF stripped *)
  | Batch of string list  (** ingest-batch payloads, unstuffed, in order *)

type response = { body : string; close : bool }
(** [body] is written verbatim (render it with {!Wire.render_ok} /
    {!Wire.render_err}); [close] drains the write buffer and closes. *)

type config = {
  loops : int;  (** event-loop domains (>= 1) *)
  workers : int;  (** handler threads (>= 1) *)
  max_conns : int;  (** exact admission cap *)
  max_line : int;  (** per-line byte bound *)
  max_batch_lines : int;  (** ingest-batch report cap *)
  idle_timeout_ns : int;  (** idle deadline; [<= 0] disables *)
  io : Sbi_fault.Io.t;  (** fault injection for conn reads/writes *)
  handler : request -> response;
      (** runs on the worker pool; may block (queries, group commit) *)
  on_fault : string -> unit;  (** fault kind counter hook *)
  on_open : unit -> unit;
  on_close : unit -> unit;
}

type t

val start : config -> Unix.file_descr -> t
(** Spawn the loop domains and worker threads.  Loop 0 accepts on the
    listener and round-robins connections across every loop, itself
    included.  The listener fd remains owned by the caller (close it
    after {!stop}). *)

val stop : t -> unit
(** Idempotent: wake and join every loop (closing all connections),
    then drain the worker queue and join the workers.  In-flight
    requests complete — their side effects (durable ingest) happen —
    but responses to closed connections are dropped. *)

val conn_count : t -> int
(** Connections currently admitted (accepted and not yet closed). *)
