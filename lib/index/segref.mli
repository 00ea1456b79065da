(** Segment handle for the read path: a segment file, mapped once and
    opened from its footer.

    A handle holds the file's one {!Sbi_store.Segment.mapping}, so it
    keeps answering after compaction unlinks the file, for as long as a
    snapshot references it; the GC unmaps the file with the last
    reference.  Postings materialize on first touch as compressed
    {!Sbi_store.Rbitmap}s through a shared LRU {!cache}, so an index far
    larger than RAM serves triage queries in bounded memory.  All
    accessors are safe to call from multiple domains: the outcome
    bitmap's memo races benignly (an immutable value, an atomic pointer
    store, last writer wins). *)

type cache = (string * bool * int, Sbi_store.Rbitmap.t) Sbi_store.Lru.t
(** Keyed by (segment path, is-predicate, posting id). *)

val create_cache : unit -> cache
(** A cache with {!Sbi_store.Lru}'s default budget: [2^22] heap words
    ({!Sbi_store.Rbitmap.memory_words}), ~32 MB. *)

type t

val of_disk :
  cache:cache -> path:string -> file:string -> Sbi_store.Segment.mapping -> Sbi_store.Segment.footer -> t

val file : t -> string
val nruns : t -> int
val num_f : t -> int

val failing : t -> Sbi_store.Bitset.t
(** The outcome bitmap, shared/memoized — callers must copy before
    mutating (the elimination loop does). *)

val pred_bits : t -> int -> Sbi_store.Rbitmap.t
val site_bits : t -> int -> Sbi_store.Rbitmap.t
