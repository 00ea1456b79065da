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
    view encodes its bitmaps on first use, once per snapshot; queries
    that read only the aggregate (top-k, predicate detail) never pay
    for it.  Writers (ingest) bump the owning index's epoch; a snapshot
    whose [epoch] no longer matches is simply stale, never wrong, and
    readers holding it keep computing on a consistent corpus while the
    next snapshot is built — readers never block ingest, ingest never
    blocks readers. *)

type view = {
  v_nruns : int;
  v_failing : unit -> Sbi_store.Bitset.t;
      (** outcome bitmap, shared/memoized — copy before mutating *)
  v_pred_bits : int -> Sbi_store.Rbitmap.t;  (** per-predicate run bitmaps *)
  v_site_bits : int -> Sbi_store.Rbitmap.t;  (** per-site observed bitmaps *)
}

type t = {
  epoch : int;
  meta : Sbi_runtime.Dataset.t;
  views : view array;  (** on-disk segments, then the live tail (if any) *)
  counts : Sbi_core.Counts.t;  (** merged aggregate over all views *)
}

val build :
  epoch:int ->
  meta:Sbi_runtime.Dataset.t ->
  counts:Sbi_core.Counts.t ->
  tail:Sbi_runtime.Report.t array * int ->
  Segref.t array ->
  t
(** Wrap [segrefs] in lazy views, followed by a view of the first [n]
    reports of [tail = (reports, n)] when [n > 0].  [counts] must be the
    merged aggregate of exactly those runs.  The caller must guarantee
    that [reports.(0 .. n - 1)] never change afterwards (an append-only
    buffer captured under its writer's lock): the tail view reads them
    when a bitmap kernel first needs them, safely from any domain, and
    encodes them exactly once. *)

val epoch : t -> int
val counts : t -> Sbi_core.Counts.t
val nruns : t -> int
val num_failures : t -> int
