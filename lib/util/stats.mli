(** Statistical primitives used by the cause-isolation algorithm.

    Everything here is implemented from first principles (no external
    statistics library): the normal distribution, proportion confidence
    intervals, the two-proportion Z test underlying the paper's
    [Increase(P) > 0] pruning rule (§3.2), and the delta-method confidence
    interval for the harmonic-mean [Importance] score (§3.3). *)

(** {1 Descriptive statistics} *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 when fewer than two points. *)

val stddev : float array -> float

val median : float array -> float
(** Median (average of middle two for even length); 0 on empty. *)

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation. *)

(** {1 Normal distribution} *)

val erf : float -> float
(** Error function, Abramowitz–Stegun 7.1.26 (|error| <= 1.5e-7). *)

val normal_cdf : float -> float
(** Standard normal CDF. *)

val normal_quantile : float -> float
(** Inverse standard normal CDF (Acklam's algorithm, relative error
    < 1.15e-9).  @raise Invalid_argument outside (0, 1). *)

val z_95 : float
(** Two-sided 95% critical value, [normal_quantile 0.975] (about
    1.959964): the paper's confidence level (§3.2) and the only one every
    interval below uses. *)

(** {1 Intervals} *)

type interval = { lo : float; hi : float }

val interval_width : interval -> float
val interval_contains : interval -> float -> bool

val proportion_ci : successes:int -> trials:int -> unit -> interval
(** Wilson score interval for a binomial proportion.  Well-behaved for small
    counts and extreme proportions.  [trials = 0] yields [{lo=0.; hi=1.}]. *)

val wald_proportion_ci : successes:int -> trials:int -> unit -> interval
(** Classical Wald interval, clamped to [\[0,1\]]; used where the paper's
    normal-approximation formulas apply. *)

(** {1 The paper's score statistics} *)

val increase_stderr : f:int -> s:int -> f_obs:int -> s_obs:int -> float
(** Standard error of [Increase(P) = Failure(P) - Context(P)] treating
    Failure and Context as independent binomial proportions:
    Failure = f/(f+s) over runs where P was true, Context = F(obs)/(F+S obs)
    over runs where P's site was sampled. *)

val increase_ci : f:int -> s:int -> f_obs:int -> s_obs:int -> unit -> interval
(** Normal-approximation CI for Increase(P). *)

val two_proportion_z : f:int -> s:int -> f_obs:int -> s_obs:int -> float
(** The §3.2 likelihood-ratio test statistic
    Z = (p_f - p_s) / sqrt(Var), with p_f = f / f_obs, p_s = s / s_obs and
    pooled variance.  Positive Z favours H1 : p_f > p_s.  Returns 0 when a
    denominator vanishes. *)

(** {1 Harmonic mean and its delta-method interval} *)

val harmonic_mean2 : float -> float -> float
(** Harmonic mean of two non-negative numbers; 0 if either is <= 0. *)

val importance_ci :
  increase:float ->
  increase_stderr:float ->
  sensitivity:float ->
  sensitivity_stderr:float ->
  unit ->
  interval
(** Delta-method CI for the harmonic mean H(x, y) = 2/(1/x + 1/y) of
    Increase and normalized-log-failure sensitivity, propagating the two
    standard errors through the partial derivatives of H. *)

(** {1 Misc} *)

val log_ratio : int -> int -> float
(** [log_ratio f num_f] = log(f) / log(num_f), the paper's sensitivity term;
    conventions: 0 when [f <= 0] or [num_f <= 1]; 1 when [f >= num_f]. *)

val clamp : float -> float -> float -> float
(** [clamp lo hi x]. *)
