(** Work-stealing chunked domain pool.

    A fixed set of OCaml 5 domains, one task queue per worker.  External
    submissions round-robin across the queues; an idle worker steals from
    its peers before sleeping, so load rebalances without a global lock.
    Fan-outs ({!parallel_for}, {!parallel_for_scratch}, {!map_array}) cut
    [0, n) into ~4 chunks per participant (never smaller than [grain]),
    publish one shared helper task per worker — one lock round per
    fan-out, not one per block — and let every participant, caller
    included, claim chunks from an atomic cursor.  Chunk {e boundaries}
    depend only on (n, grain, pool size), so results are bit-identical to
    sequential execution for every domain count even though chunk
    {e assignment} is dynamic.  Work at or below [grain] runs inline on
    the caller and never touches the pool.

    Nested calls from inside a worker execute inline rather than
    re-entering the queue, which makes composition (a pooled server query
    that itself fans out rescoring) deadlock-free by construction. *)

type t

type task = unit -> unit

val create : ?clamp:bool -> ?domains:int -> unit -> t
(** [create ~domains:n ()] spawns [n - 1] worker domains; the calling
    domain acts as participant 0 of every fan-out it issues, so
    [n <= 1] spawns nothing.  [n] defaults to {!default_domains}.
    Unless [clamp] is [false], [n] is capped at {!default_domains}:
    domains beyond the hardware count add no parallelism but multiply GC
    stop-the-world cost (every minor collection synchronizes all
    domains).  Pass [~clamp:false] in tests that must exercise real
    cross-domain execution regardless of the host. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val size : t -> int
(** Total participants: spawned workers + the calling domain. *)

val shutdown : t -> unit
(** Drain and join every worker.  Idempotent; after shutdown the pool
    executes everything inline on the caller. *)

val set_task_hook : (task -> task) -> unit
(** [set_task_hook w] wraps every task subsequently enqueued with [w],
    applied on the submitting thread at submit time — so [w] can capture
    submission-time context.  [Sbi_obs.Trace] installs one to propagate
    span parents across domains and measure queue wait vs. run time.
    Inline fast paths that never enqueue are not wrapped (they run in the
    submitter's context already).  Process-wide; intended to be installed
    once at startup. *)

val add_error_hook : (exn -> unit) -> unit
(** Process-global observer called (on the worker) whenever a bare
    {!submit} task escapes with an exception.  Such exceptions are also
    counted ({!task_errors}) and logged to stderr — never silently
    swallowed.  [async]/[parallel_for] exceptions are not errors in this
    sense: they re-raise at {!await} / the fan-out barrier. *)

val task_errors : t -> int
(** Number of tasks on this pool that raised with nobody to catch it. *)

val submit : t -> task -> unit
(** Fire-and-forget: enqueue [task] on some worker queue (round-robin).
    Runs inline when the pool has no workers, when called from one of
    this pool's workers, or when the pool is shutting down.  An escaping
    exception is counted, logged, and fed to {!add_error_hook} hooks; the
    pool survives it. *)

(** {1 Futures — cross-task parallelism (the serving path)} *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Run [f] on a worker (inline when the pool has no workers, when
    called from inside a worker, or after shutdown).  Exceptions are
    captured and re-raised by {!await}. *)

val await : 'a future -> 'a
val run : t -> (unit -> 'a) -> 'a
(** [run t f] = [await (async t f)]. *)

(** {1 Chunked fan-out — data parallelism} *)

val parallel_for : t -> ?grain:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for t ~grain ~n f] covers [0, n) with calls [f lo hi] over
    disjoint chunk ranges, in parallel.  [grain] (default [1]) is the
    sequential cutoff and minimum chunk size: when [n <= grain] — or the
    pool has no workers, or the caller is already one of its workers —
    the whole range runs inline as [f 0 n].  Chunk boundaries are a pure
    function of (n, grain, pool size); [f] must write only
    index-disjoint locations, which makes the result independent of the
    dynamic chunk-to-domain assignment.  The first exception raised by
    any chunk is re-raised at the barrier after all chunks complete. *)

val parallel_for_scratch :
  t ->
  ?grain:int ->
  n:int ->
  scratch:(unit -> 'acc) ->
  merge:('acc -> unit) ->
  ('acc -> int -> int -> unit) ->
  unit
(** Like {!parallel_for}, but each participating domain allocates one
    private [scratch ()] accumulator for all the chunks it claims and
    [merge]s it into shared state exactly once, after its last chunk.
    Bodies touch only their private accumulator — no shared cache-line
    traffic during the loop.  [merge] calls are serialized (run under an
    internal lock) but their order is nondeterministic: [merge] must be
    commutative (e.g. elementwise integer sums) for results to stay
    deterministic.  The inline path is
    [let a = scratch () in body a 0 n; merge a]. *)

val map_array : t -> ?grain:int -> ('a -> 'b) -> 'a array -> 'b array
(** Order-preserving parallel map built on {!parallel_for}: every
    element, the first included, goes through the same fan-out. *)
