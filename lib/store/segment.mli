(** One immutable index segment: the inverted view of one or more
    contiguous byte ranges of source shard files.

    A segment holds, for a batch of runs, the run-id array, a failing-run
    bitmap, per-site observation posting lists, and per-predicate
    observed-true posting lists — everything the triage queries need,
    with no per-run report records.  Posting lists store {e positions}
    within the segment (0 .. nruns-1), strictly increasing, so they
    delta-encode to roughly one byte per entry with {!Sbi_ingest.Codec}
    varints; the run-id array maps positions back to global run ids.

    {b Format} (version 2, written by {!encode}, the only version read):
    header, run ids, outcome bitmap and posting heap, then a footer
    carrying the segment's §3.1 failure splits (num_f, per-predicate and
    per-site failing counts) and a posting directory (count + byte
    length per list), then a fixed 16-byte trailer [footer offset (8 LE)
    | footer CRC-32 (4 LE) | file CRC-32 (4 LE)].  A reader maps the
    file once ({!map}) and reads the header, trailer and footer from the
    mapping ({!read_footer}), then single postings on demand
    ({!read_posting}); the tiered index uses this to keep million-run
    indexes out of memory.  The trailing file CRC covers every byte
    between the magic and itself, so a damaged segment is still
    detected as a unit by {!decode}.  This module is the only one that
    reads segment bytes. *)

exception Corrupt of string

val magic : string
val format_version : int

val trailer_len : int
(** Bytes of fixed trailer in a v2 segment file. *)

type t = {
  source_shard : int;  (** shard index this segment was compiled from *)
  start_off : int;  (** first source byte consumed (inclusive) *)
  end_off : int;  (** last source byte consumed (exclusive) *)
  nsites : int;
  npreds : int;
  nruns : int;
  run_ids : int array;  (** position -> global run id *)
  failing : Bitset.t;  (** position bit set iff the run failed *)
  site_obs : int array array;  (** site -> sorted positions observed *)
  pred_true : int array array;  (** pred -> sorted positions observed true *)
}

val of_reports :
  nsites:int ->
  npreds:int ->
  source_shard:int ->
  start_off:int ->
  end_off:int ->
  Sbi_runtime.Report.t array ->
  t
(** Invert a report batch.  @raise Invalid_argument when a report refers
    to a site or predicate outside the declared tables. *)

val aggregator : pred_site:int array -> t -> Sbi_ingest.Aggregator.t
(** The segment's §3.1 partial aggregate, recovered from the inverted
    lists — equal to folding the source reports through
    {!Sbi_ingest.Aggregator.observe}. *)

val concat : t list -> t
(** Position-shifted concatenation, in list order — the compaction merge.
    Run ids, outcomes and postings are carried over verbatim (no
    deduplication), so every triage aggregate over the merged segment is
    bit-identical to the sum over its inputs.  The provenance triple is
    zeroed: a merged segment's coverage lives in the index manifest.
    @raise Invalid_argument on empty input or mismatched
    site/predicate tables. *)

val concat_n : load:(int -> t) -> int -> t
(** {!concat} over members [load 0 .. load (n-1)], decoding on demand:
    [load] is called twice per member (a sizing pass, then a fill pass),
    so only one member is live at a time on top of the merged output —
    the constant-memory shape large compactions need.  [load] must
    return the same segment both times.
    @raise Invalid_argument as {!concat}, or when a member changes
    between the passes. *)

val encode : t -> string
(** Serialize in format v2 (footer + trailer). *)

val decode : string -> t
(** Full verifying decode.
    @raise Corrupt on bad magic, a version other than {!format_version},
    CRC mismatch, or any structural violation (positions out of range or
    non-increasing, footer inconsistent with the body). *)

val load : string -> t
(** [decode] of the file at a path (compaction, fsck, repair).
    @raise Corrupt as {!decode}, or when the file cannot be read. *)

(** {1 Posting bytes}

    A posting is stored as bare delta varints ({!Sbi_ingest.Codec}'s
    LEB128), with no count prefix: its first position, then each gap to
    the position before.  The file's posting heap and the live tail's
    append-only posting buffers ({!Sbi_index.Index}) share this encoding,
    so a tail posting's bytes are a valid heap entry as they stand. *)

val count_deltas : string -> int -> int -> int
(** [count_deltas s pos limit]: the entries whose bytes fill
    [s.[pos .. limit - 1]]. *)

val read_deltas : string -> int ref -> int -> count:int -> nruns:int -> int array
(** [read_deltas s pos limit ~count ~nruns] decodes [count] positions
    from [!pos], advancing [pos].
    @raise Corrupt when a position repeats or falls at or past [nruns],
    and {!Sbi_ingest.Codec.Corrupt} when its bytes run past [limit]. *)

(** {1 Lazy access}

    A segment file is mapped whole and once ({!map}); the readers below
    copy only the bytes they need out of that mapping and never load the
    posting heap wholesale.  All raise {!Corrupt} on structural damage
    in the bytes they do read — whole-file integrity checking stays with
    {!decode} (used by fsck). *)

type mapping
(** A segment file mapped read-only.  Its descriptor is closed as soon
    as the mapping exists, so the bytes stay readable after the file is
    unlinked, until the GC collects the last value that holds the
    mapping.  Truncating or rewriting a mapped file in place would fault
    its readers; segment files are only ever created by rename and
    later unlinked. *)

val map : string -> mapping
(** @raise Corrupt ["missing file"] when the file does not exist, and
    [Corrupt] when it cannot be opened or mapped. *)

type footer = {
  ft_version : int;
  ft_source_shard : int;
  ft_start_off : int;
  ft_end_off : int;
  ft_nsites : int;
  ft_npreds : int;
  ft_nruns : int;
  ft_num_f : int;  (** failing runs in this segment *)
  ft_f_pred : int array;  (** pred -> failing runs observing it true *)
  ft_f_obs_site : int array;  (** site -> failing runs observing it *)
  ft_site_dir : (int * int * int) array;  (** site -> (abs offset, bytes, count) *)
  ft_pred_dir : (int * int * int) array;  (** pred -> (abs offset, bytes, count) *)
  ft_run_ids_off : int;
  ft_bitmap_off : int;
  ft_heap_off : int;
  ft_size : int;  (** file size in bytes *)
}

val read_footer : mapping -> footer
(** Header + trailer + CRC-checked footer: a few hundred bytes plus the
    footer.  @raise Corrupt on damage, on a file too small to hold a
    trailer, and on a version other than {!format_version}. *)

val footer_aggregator : pred_site:int array -> footer -> Sbi_ingest.Aggregator.t
(** The segment's §3.1 partial aggregate reconstructed from footer
    statistics alone: successes are posting counts minus failing counts.
    Equal to [aggregator ~pred_site (decode file)]. *)

val read_failing : mapping -> footer -> Bitset.t

val read_posting : mapping -> footer -> [ `Site | `Pred ] -> int -> int array
(** One posting's sorted run positions.  An empty posting (directory
    count 0) comes from the footer alone.
    @raise Corrupt on damage, including a count-0 entry that claims
    bytes. *)
