(** An immutable, epoch-stamped view of an index: the read side of the
    analysis engine.

    A snapshot carries the merged §3.1 aggregate plus one lazy {!view}
    per segment reference and one for the live tail, so every read-only
    query — top-k, predicate detail, affinity, the full elimination loop
    — runs on popcount kernels against the snapshot without touching the
    live index.  Views hand out compressed {!Sbi_store.Rbitmap} posting
    bitmaps on demand ({!Segref} materializes them through its LRU
    cache), so opening a snapshot of a million-run index allocates
    almost nothing until a kernel actually needs a posting.  The tail
    view decodes one posting of the tail's captured buffers the first
    time a kernel asks for it, once per snapshot; queries that read only
    the aggregate (top-k, predicate detail) decode none.  Writers
    (ingest) bump the owning index's epoch; a snapshot whose [epoch] no
    longer matches is simply stale, never wrong, and readers holding it
    keep computing on a consistent corpus while the next snapshot is
    built — readers never block ingest, ingest never blocks readers. *)

type view = {
  v_nruns : int;
  v_failing : unit -> Sbi_store.Bitset.t;
      (** outcome bitmap, shared/memoized — copy before mutating *)
  v_pred_bits : int -> Sbi_store.Rbitmap.t;  (** per-predicate run bitmaps *)
  v_site_bits : int -> Sbi_store.Rbitmap.t;  (** per-site observed bitmaps *)
}

type tail = {
  bufs : Bytes.t array;
      (** posting -> its positions as bare delta varints (the posting
          bytes {!Sbi_store.Segment} documents): site [i] is posting
          [i], predicate [p] is [nsites + p], and the failing runs are
          [nsites + npreds] *)
  used : int array;  (** posting -> bytes of [bufs] it fills *)
  len : int;  (** runs in the tail *)
}
(** The live tail's posting buffers, captured under their writer's lock. *)

type t = {
  epoch : int;
  meta : Sbi_runtime.Dataset.t;
  views : view array;  (** on-disk segments, then the live tail (if any) *)
  counts : Sbi_core.Counts.t;  (** merged aggregate over all views *)
}

val build :
  epoch:int -> meta:Sbi_runtime.Dataset.t -> counts:Sbi_core.Counts.t -> tail:tail -> Segref.t array -> t
(** Wrap [segrefs] in lazy views, followed by a view of [tail] when it
    holds a run.  [counts] must be the merged aggregate of exactly those
    runs.  The caller must guarantee that no byte of [tail.bufs.(j)]
    below [tail.used.(j)] changes afterwards (append-only buffers that
    grow into fresh bytes): the tail view reads them when a bitmap
    kernel first needs a posting, from any domain, and memoizes the
    decoded bitmap for this snapshot. *)

val epoch : t -> int
val counts : t -> Sbi_core.Counts.t
val nruns : t -> int
val num_failures : t -> int
