(** Uniform segment handle for the read path: an in-memory
    {!Sbi_store.Segment.t} (live tail, legacy v1 files) or a lazily
    loaded v2 segment opened from its footer.

    Disk-backed postings materialize on first touch as compressed
    {!Sbi_store.Rbitmap}s through a shared LRU {!cache}, so an index far
    larger than RAM serves triage queries in bounded memory; in-memory
    segments memoize their conversions per reference.  All accessors are
    safe to call from multiple domains: memoization races are benign
    (immutable values, atomic pointer stores, last writer wins). *)

type cache = (string * bool * int, Sbi_store.Rbitmap.t) Sbi_store.Lru.t
(** Keyed by (segment path, is-predicate, posting id). *)

val create_cache : ?budget:int -> unit -> cache
(** [budget] in heap words ({!Sbi_store.Rbitmap.memory_words}); default
    [2^22] (~32 MB). *)

type t

val of_segment : file:string -> Sbi_store.Segment.t -> t
val of_disk : ?io:Sbi_fault.Io.t -> cache:cache -> path:string -> file:string -> Sbi_store.Segment.footer -> t

val file : t -> string
val nruns : t -> int
val num_f : t -> int

val failing : t -> Sbi_store.Bitset.t
(** The outcome bitmap, shared/memoized — callers must copy before
    mutating (the elimination loop does). *)

val pred_bits : t -> int -> Sbi_store.Rbitmap.t
val site_bits : t -> int -> Sbi_store.Rbitmap.t

val aggregator : pred_site:int array -> t -> Sbi_ingest.Aggregator.t
(** The segment's §3.1 partial aggregate; footer statistics alone for
    disk segments (no posting reads).
    @raise Sbi_store.Segment.Corrupt on inconsistent footer counters. *)
