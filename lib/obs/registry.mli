(** Process-wide registry of typed, named metrics.

    Three metric types — monotone counters, settable gauges, and
    {!Hist} duration histograms — addressed by dotted-path name
    ("log.append", "log.fsync").  Constructors are get-or-create:
    the first call registers, later calls return the same instance, and
    re-registering a name with a different type raises
    [Invalid_argument].  Updates go through Atomics (no lock on the hot
    path) and respect the global [Sbi_obs.set_enabled] switch; reads
    ({!value}, {!lines}, {!to_json}) always work. *)

type counter = int Atomic.t
type gauge = int Atomic.t

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> Hist.t

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> int -> unit
val value : counter -> int
val observe_ns : Hist.t -> int -> unit

(** A sampled timer: [time t f] runs [f], counts every call in
    [<name>.count], and clocks one call in [every] into the [<name>]
    histogram — sampling keeps sub-microsecond hot paths inside the
    bench [--obs-check] overhead budget.  Durations of calls that raise
    are not recorded (the count still is). *)
module Timer : sig
  type t

  val create : ?every:int -> string -> t
  (** [every] defaults to 1 (clock every call); must be >= 1. *)

  val time : t -> (unit -> 'a) -> 'a
end

val lines : unit -> string list
(** Sorted [name value] lines.  Histograms expand to [<name>.samples],
    [<name>.p50_us]/[.p90_us]/[.p99_us] (saturating as [">8388608"] when
    the rank lands in the overflow bucket) and, when non-empty, a
    distinct [<name>.gt_8388608us] overflow count. *)

val to_json : unit -> Sbi_util.Json.t
(** Same content as {!lines} as one JSON object; histogram buckets
    appear as a [buckets] object keyed [le_<bound>us] / [gt_<bound>us]. *)
