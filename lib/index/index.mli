(** On-disk inverted predicate index over a {!Sbi_ingest.Shard_log}
    directory, with incremental updates, tiered compaction, and a
    crash-tolerant lazy loader.

    An index is a directory:
    {v
    idx/
      meta             site/predicate tables (zero-run dataset, same
                       format as the shard log's meta file)
      manifest         versioned text manifest: source log path, per-
                       source-shard consumed byte offsets, segment list
                       (leaf entries and compaction-merged entries with
                       their source cover ranges)
      seg-0000.sbix    immutable {!Sbi_store.Segment} files (CRC-trailed)
      ...
    v}

    {!build} is incremental: per source shard it remembers how many bytes
    have been indexed and compiles only the unseen suffix into a new
    segment, so re-running it after `cbi ingest` appends (or after a
    server session wrote a new shard) indexes just the new records.
    {!compact} folds the resulting many small segments into few large
    ones under a size-tiered policy ({!Sbi_store.Tier}), keeping read
    fan-in bounded as the corpus grows; merges are pure concatenations,
    so every triage result is bit-identical before and after.

    {!open_} is lazy: each segment file is mapped once and contributes
    only its footer (a few hundred bytes) — postings are read from the
    mapping on demand through a shared LRU cache ({!Segref}), so opening
    a million-run index costs manifest + footer reads, not a full
    decode.  Because an open index reads its segments through mappings,
    it keeps answering after {!compact} deletes the files it maps.
    Corrupt source records are skipped exactly as the shard-log reader
    skips them; a corrupt {e segment} file is skipped (and counted) by
    {!open_} and reported by {!fsck}. *)

exception Format_error of string
(** Unusable index: missing/invalid meta or manifest, or a source log
    whose tables disagree with the index's. *)

type build_stats = {
  segments_added : int;
  records_indexed : int;  (** intact source records newly indexed *)
  corrupt_skipped : int;  (** source records skipped on CRC/decode failure *)
  bytes_consumed : int;  (** new source bytes consumed by this build *)
}

type open_stats = {
  segments_loaded : int;
  segments_corrupt : int;  (** segment files skipped (bad CRC / decode) *)
  records_loaded : int;
}

type t = {
  dir : string;
  meta : Sbi_runtime.Dataset.t;  (** site/predicate tables (zero runs) *)
  log_dir : string option;  (** source log recorded in the manifest *)
  segments : Segref.t array;  (** lazy handles, one mapping per file *)
  sealed : Sbi_ingest.Aggregator.t;
      (** merged aggregate of [segments], computed once at open *)
  cache : Segref.cache;  (** shared posting cache behind all disk segments *)
  stats : open_stats;
  tail : tail;
  mutable epoch : int;  (** bumped by every accepted {!append} *)
  mutable snap : Snapshot.t option;  (** {!snapshot} cache; see below *)
}

(** Live, unindexed reports accepted since {!open_} (the serving path's
    ingest buffer), kept as their running aggregate plus append-only
    posting buffers — one per site, one per predicate and one of the
    failing runs, in the segment heap's delta varints — not as reports.
    Folded into every query; durably persisted by the caller (the server
    appends to the source log, and the next {!build} picks them up). *)
and tail

val build : ?io:Sbi_fault.Io.t -> log:string -> dir:string -> unit -> build_stats
(** Create [dir] as an index of [log], or incrementally extend an
    existing index with the log's unseen bytes.  The manifest is
    rewritten atomically (temp + rename) after all new segments are on
    disk.  [?io] routes meta, segment, and manifest writes through the
    fault injector (passthrough by default).  @raise Format_error on an
    unreadable log or manifest, or when [log]'s tables don't match the
    existing index. *)

val open_ : dir:string -> t
(** Load an index: meta, manifest, and per segment its mapping and
    footer (lazy: postings stay in the mapping behind the cache).
    Corrupt segments — missing files and other format versions included
    — are skipped and counted in [stats].  The posting cache holds
    [2^22] heap words (~32 MB).
    @raise Format_error when meta or manifest is missing/invalid. *)

val cache_stats : t -> Sbi_store.Lru.stats
(** Posting-cache counters (hits/misses/evictions/resident cost). *)

val validate : t -> Sbi_runtime.Report.t -> unit
(** @raise Invalid_argument when the report refers to sites/predicates
    outside the tables, or its [observed_sites]/[true_preds] are not
    strictly ascending.  Lets callers reject a report {e before} any
    state (durable log, live tail) is touched. *)

val append : t -> Sbi_runtime.Report.t -> unit
(** Fold one live report into the in-memory tail: its aggregate, and its
    position appended to the posting of each observed site, each true
    predicate and (when it failed) the failing runs.  The report itself
    is not kept.  @raise Invalid_argument as {!validate}, before anything
    changes. *)

val tail_count : t -> int

val tail_bytes : t -> int
(** Bytes allocated by the tail's posting buffers (the [stats] gauge). *)

val epoch : t -> int
(** Monotone version of the index's run population: starts at 0 on
    {!open_}, incremented by every accepted {!append}. *)

val with_tail_of : t -> from:t -> t
(** [with_tail_of fresh ~from] is [fresh] (a reopen of [from]'s directory,
    e.g. after {!compact}) carrying [from]'s live tail by reference, at
    epoch [epoch from + 1] — the server's post-compaction swap.  [from]
    must take no further {!append}; snapshots already taken of it keep
    answering from its own segments. *)

val snapshot : t -> Snapshot.t
(** The epoch-stamped {!Snapshot} of the current population: the
    on-disk segments followed by the live tail as of this call.  Cached
    on the index and invalidated only when {!append} bumps the epoch —
    repeated queries between ingests reuse the merged aggregate and the
    warm posting cache.  A rebuild after an append costs
    O(npreds + nsites), not a pass over the tail: its counts are the
    sealed aggregate plus the tail aggregate {!append} maintains, and it
    captures the tail's posting buffers and their lengths.  A tail
    posting is decoded into a bitmap only when a bitmap kernel
    (affinity, elimination, co-occurrence) first needs it, once per
    snapshot.

    Not linearizable on its own: concurrent callers must serialize
    [snapshot] against [append] (the server takes its write lock for
    both); the returned snapshot itself is immutable and safe to read
    from any number of domains, and later appends never show up in it. *)

val nruns : t -> int
val num_failures : t -> int

(** {1 Compaction}

    Size-tiered merging ({!Sbi_store.Tier}): whenever a tier holds
    [tier_max] (default 4) segments, all of them are concatenated into
    one segment of the next tier, cascading until no tier is overfull.
    Merging never rewrites run content — {!Sbi_store.Segment.concat} preserves
    run order, outcomes and postings verbatim — so all rankings are
    bit-identical across a compaction.  Each round writes its merged
    segments, then atomically rewrites the manifest; obsolete files are
    deleted last.  A crash at any point leaves either the old manifest
    plus orphan merged files or the new manifest plus orphan inputs;
    {!repair} removes the orphans and {!fsck} then reports clean.  An
    index opened before the deletions keeps reading the deleted files
    through its mappings until it and its snapshots are collected. *)

type compact_stats = {
  cp_rounds : int;
  cp_merged : int;  (** input segments merged away *)
  cp_written : int;  (** merged segments written *)
  cp_segments_before : int;
  cp_segments_after : int;
  cp_bytes_before : int;
  cp_bytes_after : int;  (** live (manifest-listed) bytes after *)
  cp_reclaimed : string list;  (** obsolete segment files, already deleted *)
}

type compact_plan = {
  pl_tiers : (int * int * int * int) list;  (** (tier, segments, runs, bytes) *)
  pl_groups : (int * string list) list;  (** tier -> files that would merge *)
}

val compact : ?io:Sbi_fault.Io.t -> ?tier_max:int -> dir:string -> unit -> compact_stats
(** Run compaction to quiescence (no overfull tier), deleting the
    merged-away input files after the last manifest write.
    @raise Format_error when the manifest is unusable or a to-be-merged
    segment is corrupt (run {!repair} first). *)

val compact_plan : ?tier_max:int -> dir:string -> unit -> compact_plan
(** What {!compact} would do, without writing — `cbi compact --dry-run`. *)

val pp_compact : compact_stats -> string
val pp_plan : compact_plan -> string

(** {1 Validation} *)

type fsck_seg = {
  seg_file : string;
  seg_ok : bool;
  seg_runs : int;
  seg_tier : int;  (** size tier ({!Sbi_store.Tier.tier_of} of [seg_runs]) *)
  seg_bytes : int;  (** on-disk size *)
  seg_error : string option;
}

type fsck_report = {
  fsck_segments : fsck_seg list;  (** in manifest order *)
  fsck_ok : int;
  fsck_corrupt : int;
  fsck_records : int;  (** runs in intact segments *)
  fsck_tiers : (int * int * int * int) list;
      (** per-tier (tier, segments, runs, bytes) over intact segments *)
  fsck_dead_files : string list;
      (** unreferenced segment files and [.tmp] strays (crash leftovers) *)
  fsck_dead_bytes : int;
  fsck_live_bytes : int;
}

val fsck : dir:string -> fsck_report
(** Validate every manifest-listed segment: existence, CRC, structure,
    format version, table sizes against meta, manifest run counts, and
    the footer path {!open_} actually takes.  Corrupt segments are
    reported, not fatal — mirroring {!open_}.  @raise Format_error when
    meta or the manifest itself is unusable. *)

val pp_fsck : fsck_report -> string

type repair_report = {
  rep_dropped : string list;  (** manifest-listed segments dropped *)
  rep_removed : string list;  (** files deleted: dropped segments, orphan segments, stray temp files *)
  rep_rollbacks : (int * int * int) list;
      (** (shard, old consumed offset, rolled-back offset) *)
}

val repair : dir:string -> repair_report
(** Restore a damaged index to a state {!fsck} reports clean: drop every
    corrupt/missing/mismatched segment, roll each covered shard's
    consumed offset back to the damaged segment's earliest cover start,
    and close the drop set under a fixpoint — any segment whose cover
    extends past a rollback point goes too (its bytes will be
    re-indexed), which for merged segments can poison further shards.
    Deletes dropped and orphaned segment files and stray [.tmp] files
    from killed atomic writes, then atomically rewrites the manifest.
    No intact data is lost: dropped ranges remain in the source log and
    the next {!build} re-indexes them.  A directory killed before meta
    or the manifest ever hit disk is reset to the fresh state (the next
    {!build} re-establishes it).  @raise Format_error when an existing
    meta/manifest is syntactically unusable. *)

val pp_repair : repair_report -> string
