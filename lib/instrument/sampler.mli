(** Sparse random sampling of instrumentation sites (§2, §4).

    Each site visit is a Bernoulli trial: with probability equal to the
    site's sampling rate, the visit is observed.  As in the deployed CBI
    system, the Bernoulli process is implemented with a geometric
    "next-sample countdown" so that unobserved visits cost one decrement.
    A sampled visit re-arms the countdown with one geometric draw, whose
    [log (1 - rate)] the sampler precomputes per site at {!create}; no
    trial allocates.

    Rates are given by a {!plan}: the paper uses a global 1/100 rate for
    most experiments and {e non-uniform} per-site rates (inversely
    proportional to training frequency — see {!Adaptive}) for the reported
    results. *)

type plan =
  | Always  (** rate 1.0 everywhere: complete observation, no sampling *)
  | Uniform of float  (** one global rate in (0, 1] *)
  | Per_site of float array  (** rate per site id, each in \[0, 1\] *)

val plan_rate : plan -> int -> float
(** Rate of a given site under a plan (sites beyond a [Per_site] array get
    rate 0). *)

type t

val create : ?seed:int -> nsites:int -> plan -> t

val reseed : t -> int -> unit
(** [reseed t seed] resets the sampler's coin-flip stream to a fresh state
    derived from [seed] (countdowns are unchanged until the next
    {!begin_run}).  Collection reseeds before every run with a key mixed
    from the collection seed and the run index, making each run's sampling
    independent of execution order — the invariant that lets parallel
    collection reproduce sequential results exactly. *)

val begin_run : t -> unit
(** Re-randomizes all countdowns; call before each program run so runs are
    independent (the deployed system's per-process re-randomization). *)

val should_sample : t -> int -> bool
(** [should_sample t site] performs one Bernoulli trial for [site]:
    decrements its countdown and reports (and re-arms) on expiry.  Sites
    with rate 0 never sample; rate 1 always samples. *)

val observed_rate : t -> int -> float
(** The configured rate for a site (mirror of {!plan_rate}). *)
