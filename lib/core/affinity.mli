(** Affinity lists (§3.4, end).

    "How strongly does P imply Pi?" is measured by how much Pi's Importance
    drops when the runs covered by P (R(P) = 1) are removed.  Each selected
    predicate links to a list of the other predicates ranked by that drop;
    a high-affinity pair usually predicts the same bug (the paper uses this
    to recognize CCRYPT's and BC's first predictors as sub-bug predictors
    of their second). *)

type entry = {
  pred : int;
  importance_before : float;
  importance_after : float;  (** after removing P's covered runs *)
  drop : float;
}

val of_runs :
  before:Counts.t ->
  Eliminate.run_set ->
  selected:int ->
  others:int list ->
  entry list
(** One {!Eliminate.Discard_all_true} step for [selected] on the run set,
    then each of [others] (except [selected]) rescored on what remains
    and ranked by descending drop, ties by ascending id.  [before] must
    be the exact counts of the run set as given; the run set is left with
    [selected]'s runs discarded. *)

val list : Sbi_runtime.Dataset.t -> selected:int -> others:int list -> entry list
(** {!of_runs} over the dataset's runs.  [others] typically comes from the
    elimination result or the pruned candidate set. *)

val top_affine : entry list -> int option
(** The predicate most affected, if any had a positive drop. *)
