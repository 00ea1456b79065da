(** The Increase(P) > 0 pruning step (§3.1).

    A predicate survives when the lower bound of the 95% confidence
    interval of its Increase score lies strictly above zero (which both
    requires positive Increase and suppresses high-increase/low-confidence
    predicates with few observations), and it was true in at least one
    failing run.  This typically removes ~99% of the instrumented
    predicates: program invariants, unreached predicates, and predicates
    merely control-dependent on true causes all score zero. *)

val keep : Counts.t -> pred:int -> bool

val retained : Counts.t -> int list
(** Predicate ids surviving the test, ascending. *)

val retained_scores : Counts.t -> Scores.t array
(** Scores of the surviving predicates, in ascending predicate order. *)
