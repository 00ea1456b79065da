(** "How many runs are needed?" analysis (§4.3, Table 8).

    For a chosen predictor P, compute Importance over prefixes of the run
    sequence and find the minimum N such that
    [Importance_full(P) - Importance_N(P) < threshold] (the paper uses
    threshold 0.2 against the full 32,000-run importance), along with
    F(P) — how many failing runs among those N had P true.  The paper's
    observation: every bug's predictor stabilizes with roughly 10–40
    observed failures. *)

val default_grid : int list
(** The paper's grid: 100, 200, ..., 1000, 2000, ..., 25000. *)

val importance_at : Sbi_runtime.Dataset.t -> pred:int -> n:int -> float
(** Importance of [pred] computed over the first [n] runs. *)

type answer = {
  pred : int;
  min_runs : int;  (** smallest grid N meeting the threshold *)
  f_at_min : int;  (** F(P) within those N runs *)
  full_importance : float;
}

val curve :
  ?grid:int list ->
  Sbi_runtime.Dataset.t ->
  pred:int ->
  (int * float) list
(** Importance of [pred] at each grid point up to the dataset size (the
    full size is always included) — the trajectory behind {!min_runs},
    used by the convergence-curve chart. *)

val min_runs :
  ?threshold:float ->
  ?grid:int list ->
  Sbi_runtime.Dataset.t ->
  pred:int ->
  answer option
(** [None] when no grid point (≤ the dataset size) meets the threshold.
    Grid points beyond the dataset size are ignored; the full dataset size
    itself is always tried last, so a result exists whenever the full
    importance is positive.  Default [threshold] 0.2. *)
