(** Iterative redundancy elimination (§3.4) — the paper's simulation of the
    "find the most important bug, fix it, repeat" debugging loop:

    + rank candidate predicates by Importance on the current run set,
    + select the top-ranked predicate P and discard the runs it covers,
    + repeat until no runs, no candidates, or nothing predictive remains.

    Discarding follows one of the three §5 proposals:
    - {!Discard_all_true} (1, the paper's default): drop every run with
      R(P) = 1;
    - {!Discard_failing_true} (2): drop only failing runs with R(P) = 1;
    - {!Relabel_failing} (3): relabel failing runs with R(P) = 1 as
      successes ("the best approximation to a program without the bug").

    By Lemma 3.1 the selected list covers every bug whose failures are
    covered by the candidate predicates. *)

type discard =
  | Discard_all_true
  | Discard_failing_true
  | Relabel_failing

val discard_to_string : discard -> string

type selection = {
  rank : int;  (** 1-based position in the output list *)
  pred : int;
  initial : Scores.t;  (** scores over the full input dataset *)
  effective : Scores.t;  (** scores at the moment of selection *)
  runs_before : int;  (** dataset size when this predicate was selected *)
  failures_before : int;
  runs_discarded : int;  (** runs removed (or relabelled) by this step *)
}

type result = {
  selections : selection list;  (** in selection order *)
  runs_remaining : int;
  failures_remaining : int;
  candidates_remaining : int;
}

(** {1 Run sets}

    The loop reads the current runs only through a {!run_set}, so one loop
    serves every representation of them: {!dataset_runs} filters or
    relabels a {!Sbi_runtime.Dataset.t} (the executable specification),
    and [Sbi_index.Triage] diffs per-view bitmaps of an index snapshot. *)

type run_set = {
  counts : int list -> Counts.t;
      (** [counts cands]: §3.1 counts over the current runs with their
          current outcomes, exact at the predicates in [cands] and at
          their sites.  Every other predicate's cells are unspecified;
          [num_f]/[num_s] cover every current run. *)
  runs : unit -> int;  (** current run count *)
  failures : unit -> int;  (** current failing-run count *)
  discard : discard -> int -> unit;
      (** [discard proposal pred] applies one §5 step for [pred] in place. *)
}

val dataset_runs : Sbi_runtime.Dataset.t -> run_set
(** The dataset's runs.  [counts] ignores its argument and recomputes
    {!Counts.compute} (exact everywhere); [discard] filters or relabels a
    copy of the current dataset. *)

val run_on :
  ?discard:discard ->
  ?max_selections:int ->
  ?candidates:int list ->
  initial:Counts.t ->
  run_set ->
  result
(** [run_on ~initial rs] iterates selection over a candidate set and
    discards covered runs after each pick.  [initial] must be the exact
    counts of [rs]'s runs as given; it seeds the candidate set and the
    selections' [initial] scores.  Unless [candidates] is given, the
    default candidate set follows §5: under {!Discard_all_true} it is the
    Increase-CI pruning of [initial] (safe, since at most one of P and ¬P
    can ever become predictive); under the other proposals it is every
    predicate true in at least one failing run, because predicates
    temporarily overshadowed by anti-correlated predictors may become
    positive after a selection.  Each round counts only the remaining
    candidates, and only those whose Increase is confidently positive
    {e on the current run set} are ranked.  Iteration stops when the
    failing-run set is empty, no candidate passes the test, or
    [max_selections] (default 40) is reached.  [rs] is left with every
    selection's discard applied. *)

val run :
  ?discard:discard ->
  ?max_selections:int ->
  ?candidates:int list ->
  Sbi_runtime.Dataset.t ->
  result
(** [run ds] is {!run_on} over [dataset_runs ds] from
    [Counts.compute ds]. *)

val selected_preds : result -> int list
