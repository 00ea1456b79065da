(** Shared experiment plumbing: instrument a study, train the non-uniform
    sampling plan on a held-out training set (paper §4), collect the run
    population, and answer ground-truth questions about predicates.

    Every experiment is deterministic in [seed]. *)

type sampling =
  | No_sampling  (** rate 1.0 everywhere (the paper's validation runs) *)
  | Uniform of float
  | Adaptive of int  (** non-uniform rates trained on this many runs *)

type config = {
  seed : int;
  nruns : int option;  (** [None] = the study's default *)
  sampling : sampling;
}

val default_config : config
(** seed 42, study-default run count, adaptive sampling with 1000 training
    runs. *)

val quick_config : config
(** A small configuration for tests and smoke runs: 600 runs, adaptive
    sampling trained on 150 runs. *)

type bundle = {
  study : Sbi_corpus.Study.t;
  transform : Sbi_instrument.Transform.t;
  plan : Sbi_instrument.Sampler.plan;
  dataset : Sbi_runtime.Dataset.t;
  config : config;
}

val prepare :
  ?config:config ->
  Sbi_corpus.Study.t ->
  Sbi_instrument.Transform.t * Sbi_instrument.Sampler.plan * Sbi_runtime.Collect.spec
(** Instrument a study and build its collection spec (training the adaptive
    sampling plan when configured) without collecting.  Used by callers that
    drive collection themselves — e.g. the parallel ingestion pipeline. *)

val study_runs : config -> Sbi_corpus.Study.t -> int
(** The configured run count, falling back to the study's default. *)

val collect_study : ?config:config -> Sbi_corpus.Study.t -> bundle
(** Instruments, trains (training inputs are drawn from a disjoint run-index
    range), and collects.  This is the expensive step; reuse the bundle
    across tables. *)

val analyze : bundle -> Sbi_core.Analysis.t

(** {1 Ground truth} *)

val cooccurrence : bundle -> pred:int -> (int * int) list
(** For each ground-truth bug id, the number of failing runs in which both
    the bug occurred and [pred] was observed true; descending by count. *)

val dominant_bug : bundle -> pred:int -> int option
(** The bug with the largest co-occurrence count, if any. *)

val assign_selections_to_bugs :
  bundle -> Sbi_core.Eliminate.selection list -> (int * Sbi_core.Eliminate.selection) list
(** For each occurring ground-truth bug, the highest-ranked selection whose
    dominant bug it is — the "chosen predictor per bug" used by the
    runs-needed analysis (§4.3 picks these by hand; we use dominance). *)

val describe : bundle -> pred:int -> string
