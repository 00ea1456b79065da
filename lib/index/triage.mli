(** Snapshot-cached triage queries over an open {!Index}.

    Every read runs against the index's epoch-stamped {!Snapshot}
    (built once per ingest epoch, cached on the index): aggregate
    counts come from the snapshot's merged aggregate.  Elimination and
    affinity run {!Sbi_core.Eliminate.run_on} and
    {!Sbi_core.Affinity.of_runs}, the loop and step {!Sbi_core.Analysis}
    runs over a dataset, over a bitmap run set of the snapshot:
    per-view alive/failing masks that a discard diffs in place and
    word-level {!Sbi_store.Bitset} popcount kernels count — never a
    posting walk, never a corpus rescan.  Every query below is {e equal}
    — same integers, hence bit-identical scores — to its full-dataset
    counterpart in {!Sbi_core.Analysis} (property-tested).

    The run set's [counts] fills only the cells of the predicates the
    loop ranks (the current candidates, or an affinity's [others]) and
    of their sites, each site once, so it loads only their postings;
    [num_f]/[num_s] still cover the whole alive run set.  Every query
    runs on the calling thread; docs/perf.md gives the measurements
    behind that choice.

    Callers that already hold a consistent {!Snapshot.t} (e.g. the
    server's lock-free read path) should use the {!Snap} variants
    directly. *)

val counts : Index.t -> Sbi_core.Counts.t
(** Merged §3.1 counts over all segments + live tail; equals
    [Counts.compute] on the materialized corpus. *)

val topk : ?k:int -> Index.t -> Sbi_core.Scores.t list
(** The [k] (default 10) highest-Importance predicates among those
    surviving Increase-CI pruning, best first — the ranking
    [cbi analyze-file --stream] prints, without rescanning the log. *)

val topk_f :
  ?k:int -> formula:Sbi_sbfl.Formula.t -> Index.t -> Sbi_sbfl.Ranking.entry list
(** {!topk} under an arbitrary SBFL formula: same Increase-CI pruned
    candidate set, ranked by the formula's score (desc, ties F desc then
    id asc) — computed off the snapshot's cached aggregate, never a
    rescan.  With [~formula:Sbi_sbfl.Formula.importance] the predicates
    and scores are bit-identical to {!topk}. *)

val pred_detail : Index.t -> pred:int -> Sbi_core.Scores.t
(** Full score card (F, S, Context, Increase + CI, Importance + CI).
    @raise Invalid_argument when [pred] is outside the tables. *)

val pred_score :
  Index.t -> pred:int -> formula:Sbi_sbfl.Formula.t -> float * Sbi_core.Scores.t
(** The formula's score for one predicate alongside the full paper score
    card, both from the same snapshot aggregate.
    @raise Invalid_argument when [pred] is outside the tables. *)

val cooccurrence : Index.t -> a:int -> b:int -> int
(** Runs in which both predicates were observed true: one bitmap
    intersection count per snapshot view, summed (the live tail's view
    shares the snapshot's lazily encoded bitmaps).
    @raise Invalid_argument when [a] or [b] is outside the tables. *)

val affinity : Index.t -> selected:int -> others:int list -> Sbi_core.Affinity.entry list
(** {!Sbi_core.Affinity.of_runs} over the snapshot's bitmap run set, so it
    equals {!Sbi_core.Analysis.affinity_for} on the materialized corpus:
    Importance drop of each other predicate once the runs covered by
    [selected] are removed (one [diff_inplace] per view plus a popcount
    rescoring of [others], not a dataset rebuild). *)

val eliminate :
  ?discard:Sbi_core.Eliminate.discard ->
  ?max_selections:int ->
  ?candidates:int list ->
  Index.t ->
  Sbi_core.Eliminate.result
(** {!Sbi_core.Eliminate.run_on} from the snapshot's aggregate over its
    bitmap run set: the candidate defaulting, per-step ranking and
    selection records are {!Sbi_core.Eliminate.run}'s own, and each
    discard is an in-place bitmap diff instead of a dataset filter. *)

type analysis = {
  counts : Sbi_core.Counts.t;
  retained : int list;
  elimination : Sbi_core.Eliminate.result;
}

val analyze : ?discard:Sbi_core.Eliminate.discard -> ?max_selections:int -> Index.t -> analysis
(** {!Sbi_core.Analysis.analyze} over the index: the retained set of the
    snapshot's aggregate, then {!eliminate} with §5's candidate seeding —
    identical retained set, selection order, and scores. *)

(** Same queries against a caller-held snapshot: the server's epoch
    read path grabs the current snapshot under its write lock, releases
    the lock, and answers from the snapshot without blocking ingest. *)
module Snap : sig
  val counts : Snapshot.t -> Sbi_core.Counts.t
  val topk : ?k:int -> Snapshot.t -> Sbi_core.Scores.t list

  val topk_f :
    ?k:int -> formula:Sbi_sbfl.Formula.t -> Snapshot.t -> Sbi_sbfl.Ranking.entry list

  val pred_detail : Snapshot.t -> pred:int -> Sbi_core.Scores.t

  val pred_score :
    Snapshot.t -> pred:int -> formula:Sbi_sbfl.Formula.t -> float * Sbi_core.Scores.t

  val affinity : Snapshot.t -> selected:int -> others:int list -> Sbi_core.Affinity.entry list

  val eliminate :
    ?discard:Sbi_core.Eliminate.discard ->
    ?max_selections:int ->
    ?candidates:int list ->
    Snapshot.t ->
    Sbi_core.Eliminate.result

  val cooccurrence : Snapshot.t -> a:int -> b:int -> int
end
