(** Per-predicate scores (§3.1–§3.3).

    - [Failure(P)  = F(P) / (F(P) + S(P))] — probability of failure given P
      observed true.
    - [Context(P)  = F(P obs) / (F(P obs) + S(P obs))] — probability of
      failure given P's site merely sampled.
    - [Increase(P) = Failure(P) - Context(P)] — the specificity signal, with
      a 95% normal-approximation confidence interval.
    - [sensitivity = log F(P) / log NumF] — the paper's logarithmic
      transformation of raw failure counts.
    - [Importance(P)] — harmonic mean of Increase and sensitivity, with a
      95% delta-method confidence interval.

    The §3.2 statistical view is available as [z]: the two-proportion
    likelihood-ratio test statistic for H1 : p_f(P) > p_s(P). *)

type t = {
  pred : int;
  f : int;
  s : int;
  f_obs : int;
  s_obs : int;
  failure : float;
  context : float;
  increase : float;
  increase_ci : Sbi_util.Stats.interval;
  z : float;
  sensitivity : float;
  importance : float;
  importance_ci : Sbi_util.Stats.interval;
}

val score : Counts.t -> pred:int -> t
(** Scores for one predicate.  Quantities with empty denominators are 0
    (and the importance of such predicates is 0, per the paper's
    convention for undefined harmonic means). *)

val score_all : Counts.t -> t array
(** Scores for every predicate, indexed by predicate id. *)

val compare_importance_desc : t -> t -> int
(** Descending importance; ties broken by descending F(P), then id. *)
