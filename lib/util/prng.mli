(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible from a single integer seed.  The generator is
    xoshiro256** seeded through splitmix64, which is fast, has a 2^256 - 1
    period, and passes BigCrush.

    The state is four 64-bit words held unboxed in 32 bytes, so a draw
    that returns an [int] ({!bits30}, {!int}, {!geometric},
    {!geometric_log}) allocates nothing; only results of type [int64] or
    [float] are boxed, as any such result returned from a function is. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator deterministically derived from
    [seed] via splitmix64 expansion. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val reseed : t -> int -> unit
(** [reseed t seed] resets [t] in place to the state [create seed] would
    produce.  Used for per-run sampling streams: reseeding by a
    deterministic per-run key makes each run's randomness independent of
    execution order (the parallel-collection invariant). *)

val split : t -> t
(** [split t] derives a child generator from [t], advancing [t].  Streams of
    the child and the parent are (statistically) independent. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniformly random bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val unit_float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val geometric : t -> float -> int
(** [geometric t p] is the number of Bernoulli([p]) trials up to and
    including the first success: support {1, 2, ...}.  Used for sampling
    countdowns.  [p] must be in (0, 1]; [p = 1.] always yields 1 and draws
    nothing.  Otherwise it takes one draw and two logarithms, one of
    them [log (1. -. p)]. *)

val geometric_log : t -> float array -> int -> int
(** [geometric_log t log_q i] draws what [geometric t p] draws when
    [log_q.(i) = log (1. -. p)] and [p] is in (0, 1): the same code, with
    the second logarithm precomputed, so a draw costs one [log].  The
    sampler keeps one such entry per site.  The table is passed rather
    than the float itself so that no float is boxed per draw. *)

val gaussian : t -> float
(** Standard normal deviate (Box–Muller, polar form). *)

val choice : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val choice_list : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0..n-1]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [0..n-1], in random order.  @raise Invalid_argument if [k > n]. *)
