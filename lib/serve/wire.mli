(** The triage wire protocol: addresses, robust socket I/O, and response
    framing.

    Requests are single lines, [\n]-terminated:
    {v
    ping | stats | topk [K] | pred <id> | affinity <id> [K]
    ingest <base64 payload> | quit
    v}

    Every response is a header line — [ok ...] or [err <message>] —
    followed by zero or more payload lines, terminated by a line holding
    a single ["."].  A payload line that happens to start with a dot is
    dot-stuffed ([".."] on the wire), so binary-free framing never
    ambiguates.

    The blocking I/O below is what clients use (the server's {!Evloop}
    does its own non-blocking I/O and shares only the framing).  It is
    file-descriptor based and partial-operation safe: writes loop until
    every byte is accepted, reads are buffered, and [EINTR] is always
    retried.  [EAGAIN]/[EWOULDBLOCK] — the kernel's way of reporting an
    expired [SO_RCVTIMEO]/[SO_SNDTIMEO] deadline — raises {!Timeout}.
    Reads and writes optionally route through {!Sbi_fault.Io} for fault
    injection. *)

type addr =
  | Unix_sock of string  (** filesystem socket path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** A string containing [/] is a Unix socket path; otherwise
    [host:port]. *)

val addr_to_string : addr -> string

val sockaddr : addr -> (Unix.sockaddr, string) result
(** Resolve to a connectable address.  [Error] (never an exception) when
    a TCP host does not resolve. *)

exception Timeout
(** A socket deadline ([SO_RCVTIMEO]/[SO_SNDTIMEO]) expired. *)

(** {1 Partial-operation-safe primitives} *)

val write_fully :
  ?io:Sbi_fault.Io.t -> Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Write exactly [len] bytes, looping over partial writes and retrying
    [EINTR].  @raise Timeout on an expired send deadline. *)

val write_string : ?io:Sbi_fault.Io.t -> Unix.file_descr -> string -> unit

(** Buffered line reader over a descriptor. *)
type reader

val reader : ?io:Sbi_fault.Io.t -> Unix.file_descr -> reader
(** Any single line is bounded at 1 MiB: a peer that streams an
    unterminated line cannot grow memory without bound. *)

val read_line : reader -> [ `Line of string | `Eof | `Too_long ]
(** Next [\n]-terminated line (terminator stripped, CR tolerated).
    [`Too_long] when the line exceeds the reader's bound — the stream is
    no longer in sync and should be closed.  Retries [EINTR]; short
    reads are absorbed by the buffer.  @raise Timeout on an expired
    receive deadline. *)

(** {1 Framing} *)

val stuff : string -> string
(** Dot-stuff one payload line (a leading ["."] becomes [".."]) — used
    by response framing and by the [ingest-batch] request body, whose
    payload lines are framed exactly like a response (terminated by a
    lone ["."]). *)

val unstuff : string -> string
(** Inverse of {!stuff}. *)

val render_framed : string -> string list -> string
(** Render one framed response (header, stuffed payload lines, lone-dot
    terminator) to a string without writing it — the event-loop front
    end queues the result on a per-connection write buffer and drains it
    across partial non-blocking writes; {!write_string} sends it on a
    blocking descriptor. *)

val render_ok : header:string -> lines:string list -> string
(** [render_framed ("ok " ^ header) lines]. *)

val render_err : string -> string
(** [render_framed ("err " ^ msg) []]. *)

val read_response : reader -> (string * string list, string) result
(** Read one framed response: [Ok (header_rest, payload)] for an [ok]
    header (the header's text after ["ok "]), [Error msg] for [err].
    @raise End_of_file when the peer closed mid-response.
    @raise Timeout on an expired receive deadline. *)
