(** Tracing spans: named, timed regions with parent links, retained in a
    fixed-size ring buffer.

    [with_span ~name f] opens a span around [f]: the span records its
    monotonic start time, duration, owning domain, and the id of the
    enclosing span on the same (domain, thread) — so nested calls form a
    tree.

    All of it is a no-op while [Sbi_obs.set_enabled false]. *)

type span = {
  id : int;
  parent : int option;  (** enclosing span at open time *)
  name : string;
  args : string;
  start_ns : int;  (** monotonic ({!Clock.now_ns}), not wall time *)
  dur_ns : int;
  domain : int;
}

val with_span : ?args:string -> name:string -> (unit -> 'a) -> 'a
(** Run [f] inside a new span.  The span is recorded (ring buffer,
    newest wins) when [f] returns {e or raises} — failing spans matter
    most. *)

val current : unit -> int option
(** Id of the innermost open span on this (domain, thread). *)

val recent : ?n:int -> unit -> span list
(** The newest [n] (default: all) retained spans, oldest first. *)

val lines : ?n:int -> unit -> string list
(** One text line per span:
    [span=12 parent=3 name=serve.topk dur=1.2ms domain=0]. *)

val to_json : ?n:int -> unit -> Sbi_util.Json.t

val set_capacity : int -> unit
(** Resize the ring (discards retained spans).  Default 4096. *)

val clear : unit -> unit
(** Drop all retained spans (for tests). *)
