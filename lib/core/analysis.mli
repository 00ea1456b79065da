(** End-to-end cause-isolation pipeline: counts → pruning → iterative
    elimination, with the summary numbers reported in the paper's
    Table 2. *)

type t = {
  dataset : Sbi_runtime.Dataset.t;
  counts : Counts.t;
  retained : int list;  (** predicates surviving Increase pruning *)
  elimination : Eliminate.result;
}

val analyze :
  ?discard:Eliminate.discard ->
  ?max_selections:int ->
  Sbi_runtime.Dataset.t ->
  t
(** Counts, the Increase-pruned [retained] set, and {!Eliminate.run}
    under [discard] with §5's candidate seeding: the retained set under
    proposal 1, every predicate true in some failing run under proposals
    2 and 3. *)

type summary = {
  runs : int;
  successful : int;
  failing : int;
  sites : int;
  initial_preds : int;
  retained_preds : int;  (** Increase > 0 at 95% confidence *)
  selected_preds : int;  (** after elimination *)
}

val summary : t -> summary

val selected_scores : t -> Eliminate.selection list
(** Elimination output in rank order (same as
    [t.elimination.selections]). *)

val affinity_for :
  t -> pred:int -> Affinity.entry list
(** Affinity list of a selected predicate against the other retained
    predicates, on the full dataset. *)
