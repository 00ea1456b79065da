(** Binary wire format for feedback reports (the ingestion pipeline's
    record codec — see [docs/ingest.md] for the byte-level layout).

    A report payload is a versioned sequence of varints: run id, outcome
    byte, delta-encoded sorted site/predicate id arrays, the observed-true
    counts, ground-truth bug ids, and the optional crash signature.  On the
    paper's workload this is roughly an order of magnitude smaller than the
    line-oriented text format, because dense observation sets delta-encode
    to one byte per id.

    Framing for on-disk logs adds a varint length prefix and a CRC-32
    trailer per record, so a reader can skip corrupted records and detect
    truncated tails without aborting. *)

exception Corrupt of string
(** Raised by decoders on malformed input (never by frame readers, which
    translate corruption into {!Frame_corrupt} / {!Frame_truncated}). *)

val version : int
(** Format version written by {!encode}; decoders reject others. *)

(** {1 Payload codec} *)

val encode : Sbi_runtime.Report.t -> string
(** @raise Invalid_argument when [observed_sites] or [true_preds] is not
    strictly ascending, or an encoded integer is negative: {!decode}
    would reject the record. *)

val encode_to : Buffer.t -> Sbi_runtime.Report.t -> unit

val decode : string -> Sbi_runtime.Report.t
(** Round-trip inverse of {!encode}: [decode (encode r) = r].
    @raise Corrupt on malformed payloads (including trailing bytes, a
    varint too large for a non-negative int, and site or predicate ids
    that are not strictly ascending); it raises nothing else. *)

val decode_sub : string -> pos:int -> len:int -> Sbi_runtime.Report.t
(** Decode a payload embedded in a larger buffer.
    @raise Corrupt on malformed payloads.
    @raise Invalid_argument when the range is out of bounds. *)

(** {1 Record framing} *)

val add_framed : Buffer.t -> Sbi_runtime.Report.t -> unit
(** Append one framed record: varint payload length, payload, CRC-32 of the
    payload as 4 little-endian bytes. *)

type frame =
  | Frame of Sbi_runtime.Report.t * int
      (** a valid record and the offset just past its frame *)
  | Frame_corrupt of int
      (** checksum or payload failure; resume scanning at the offset *)
  | Frame_truncated
      (** the remaining bytes cannot hold a complete frame (a crashed
          writer's partial tail) *)

val read_framed : string -> pos:int -> frame
(** Parse one framed record starting at [pos].  A corrupted length prefix
    surfaces as {!Frame_corrupt} or {!Frame_truncated} on the following
    frame(s); per-record CRCs bound the damage to the affected records. *)

(** {1 Varints (exposed for tests and the shard-log header)} *)

val add_varint : Buffer.t -> int -> unit
(** Unsigned LEB128. @raise Invalid_argument on negative input. *)

val max_varint_bytes : int
(** Most bytes one varint takes. *)

val put_varint : Bytes.t -> int -> int -> int
(** [put_varint b off n] writes [n] as {!add_varint} does at [off] and
    returns the offset just past it; [b] must have {!max_varint_bytes}
    bytes from [off].  @raise Invalid_argument on negative input. *)

val read_varint : string -> int ref -> int -> int
(** [read_varint s pos limit] reads at [!pos], advancing [pos]; input bytes
    must lie below [limit].  @raise Corrupt on overrun, or when the value
    does not fit a non-negative int. *)
