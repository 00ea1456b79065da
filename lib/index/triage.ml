open Sbi_runtime
open Sbi_core
module Bitset = Sbi_store.Bitset
module Rbitmap = Sbi_store.Rbitmap

(* --- snapshot-level queries ---

   Every read below runs against an epoch-stamped {!Snapshot}: the merged
   aggregate is computed once per epoch (not once per query), and the
   run-subset computations (affinity, iterative elimination) run
   [Sbi_core]'s own loop over a bitmap run set: word-level popcount
   kernels over per-view alive/failing masks instead of per-bit posting
   walks.  The integers produced are exactly those of [Counts.compute] on
   the corresponding materialized corpus, so scores and rankings stay
   bit-identical to [Sbi_core.Analysis]. *)

type view_state = { view : Snapshot.view; alive : Bitset.t; failing : Bitset.t }

let fresh_states (snap : Snapshot.t) =
  Array.map
    (fun (v : Snapshot.view) ->
      {
        view = v;
        alive = Bitset.full v.Snapshot.v_nruns;
        failing = Bitset.copy (v.Snapshot.v_failing ());
      })
    snap.Snapshot.views

(* The rescoring kernel's index space for [candidates]: the distinct
   candidate predicates (ascending), then their distinct sites, each site
   once however many candidates share it.  [slot.(k)] is the position of
   [preds.(k)]'s site in [sites]. *)
type space = { preds : int array; sites : int array; slot : int array }

let rescore_space (meta : Dataset.t) candidates =
  let preds = Array.of_list (List.sort_uniq Int.compare candidates) in
  let site_slot = Array.make meta.Dataset.nsites (-1) and sites = ref [] and nslots = ref 0 in
  let slot =
    Array.map
      (fun p ->
        let site = meta.Dataset.pred_site.(p) in
        if site_slot.(site) < 0 then begin
          site_slot.(site) <- !nslots;
          sites := site :: !sites;
          incr nslots
        end;
        site_slot.(site))
      preds
  in
  { preds; sites = Array.of_list (List.rev !sites); slot }

(* Counts over the current alive runs with current outcomes, exact at the
   [candidates] — the quantities Counts.compute extracts there from the
   corresponding filtered / relabeled dataset.  Only the candidates' cells
   and their sites' cells are counted; every other predicate's cell stays
   zero.  [num_f]/[num_s] cover the whole alive run set. *)
let counts_of_states (meta : Dataset.t) states ~candidates =
  let npreds = meta.Dataset.npreds in
  let sp = rescore_space meta candidates in
  let np = Array.length sp.preds in
  let n = np + Array.length sp.sites in
  let num_f = ref 0 and num_s = ref 0 in
  Array.iter
    (fun st ->
      let nf = Bitset.inter_count st.alive st.failing in
      num_f := !num_f + nf;
      num_s := !num_s + (Bitset.count st.alive - nf))
    states;
  (* cell k: alive runs, and failing alive runs, in which predicate
     [preds.(k)] was true (k < np) or site [sites.(k - np)] was observed *)
  let fail = Array.make n 0 and tru = Array.make n 0 in
  for k = 0 to n - 1 do
    Array.iter
      (fun st ->
        let v = st.view in
        let bits =
          if k < np then v.Snapshot.v_pred_bits sp.preds.(k)
          else v.Snapshot.v_site_bits sp.sites.(k - np)
        in
        fail.(k) <- fail.(k) + Rbitmap.inter_count3 bits st.alive st.failing;
        tru.(k) <- tru.(k) + Rbitmap.inter_count bits st.alive)
      states
  done;
  let f = Array.make npreds 0 and s = Array.make npreds 0 in
  let f_obs = Array.make npreds 0 and s_obs = Array.make npreds 0 in
  Array.iteri
    (fun k p ->
      let site = np + sp.slot.(k) in
      f.(p) <- fail.(k);
      s.(p) <- tru.(k) - fail.(k);
      f_obs.(p) <- fail.(site);
      s_obs.(p) <- tru.(site) - fail.(site))
    sp.preds;
  { Counts.npreds; f; s; f_obs; s_obs; num_f = !num_f; num_s = !num_s }

let alive_count states =
  Array.fold_left (fun acc st -> acc + Bitset.count st.alive) 0 states

let failing_count states =
  Array.fold_left (fun acc st -> acc + Bitset.inter_count st.alive st.failing) 0 states

let apply_discard discard states pred =
  Array.iter
    (fun st ->
      let bits = st.view.Snapshot.v_pred_bits pred in
      match discard with
      | Eliminate.Discard_all_true -> Rbitmap.diff_inplace st.alive bits
      | Eliminate.Discard_failing_true -> Rbitmap.diff_inter_inplace st.alive bits st.failing
      | Eliminate.Relabel_failing -> Rbitmap.diff_inter_inplace st.failing bits st.alive)
    states

(* The snapshot's runs as one fresh {!Eliminate.run_set}: every run alive
   with its ingested outcome. *)
let run_set (snap : Snapshot.t) =
  let states = fresh_states snap in
  {
    Eliminate.counts = (fun candidates -> counts_of_states snap.Snapshot.meta states ~candidates);
    runs = (fun () -> alive_count states);
    failures = (fun () -> failing_count states);
    discard = (fun discard pred -> apply_discard discard states pred);
  }

module Snap = struct
  let counts = Snapshot.counts

  let topk ?(k = 10) snap =
    Sbi_obs.Trace.with_span ~name:"triage.topk" ~args:(Printf.sprintf "k=%d" k) (fun () ->
        let retained = Prune.retained_scores (Snapshot.counts snap) in
        Sbi_util.Topk.top ~k
          ~compare:(fun a b -> Scores.compare_importance_desc b a)
          retained)

  (* Formula-parameterized top-k: same CI-pruned candidate set, ranked by
     an arbitrary registered formula.  Runs entirely off the snapshot's
     cached aggregate — switching formulas is a re-fold of the counter
     table, never a rescan.  With [formula = Formula.importance] the
     selected predicates and scores are bit-identical to {!topk}
     (property-tested): same candidates, and Ranking's comparator breaks
     ties exactly like [Scores.compare_importance_desc]. *)
  let topk_f ?(k = 10) ~formula snap =
    Sbi_obs.Trace.with_span ~name:"triage.topk"
      ~args:(Printf.sprintf "k=%d formula=%s" k formula.Sbi_sbfl.Formula.name)
      (fun () ->
        let counts = Snapshot.counts snap in
        let candidates = Prune.retained counts in
        Sbi_sbfl.Ranking.topk ~k ~candidates formula counts)

  let pred_score snap ~pred ~formula =
    let meta = snap.Snapshot.meta in
    if pred < 0 || pred >= meta.Dataset.npreds then
      invalid_arg (Printf.sprintf "Triage.pred_score: predicate %d out of range" pred);
    let counts = Snapshot.counts snap in
    (Sbi_sbfl.Ranking.score formula counts ~pred, Scores.score counts ~pred)

  let pred_detail snap ~pred =
    let meta = snap.Snapshot.meta in
    if pred < 0 || pred >= meta.Dataset.npreds then
      invalid_arg (Printf.sprintf "Triage.pred_detail: predicate %d out of range" pred);
    Scores.score (Snapshot.counts snap) ~pred

  let affinity snap ~selected ~others =
    Sbi_obs.Trace.with_span ~name:"triage.affinity" ~args:(Printf.sprintf "pred=%d" selected)
      (fun () -> Affinity.of_runs ~before:(Snapshot.counts snap) (run_set snap) ~selected ~others)

  let eliminate ?discard ?(max_selections = 40) ?candidates snap =
    Sbi_obs.Trace.with_span ~name:"triage.eliminate"
      ~args:(Printf.sprintf "max=%d" max_selections)
      (fun () ->
        Eliminate.run_on ?discard ~max_selections ?candidates ~initial:(Snapshot.counts snap)
          (run_set snap))

  let cooccurrence snap ~a ~b =
    let npreds = snap.Snapshot.meta.Dataset.npreds in
    if a < 0 || a >= npreds || b < 0 || b >= npreds then
      invalid_arg "Triage.cooccurrence: predicate out of range";
    Array.fold_left
      (fun acc (v : Snapshot.view) ->
        acc
        + Rbitmap.inter_count (v.Snapshot.v_pred_bits a)
            (Rbitmap.to_bitset (v.Snapshot.v_pred_bits b)))
      0 snap.Snapshot.views
end

(* --- index-level wrappers (snapshot fetched/cached on the index) --- *)

let counts idx = Snapshot.counts (Index.snapshot idx)
let topk ?k idx = Snap.topk ?k (Index.snapshot idx)
let topk_f ?k ~formula idx = Snap.topk_f ?k ~formula (Index.snapshot idx)
let pred_detail idx ~pred = Snap.pred_detail (Index.snapshot idx) ~pred
let pred_score idx ~pred ~formula = Snap.pred_score (Index.snapshot idx) ~pred ~formula
let affinity idx ~selected ~others = Snap.affinity (Index.snapshot idx) ~selected ~others

let eliminate ?discard ?max_selections ?candidates idx =
  Snap.eliminate ?discard ?max_selections ?candidates (Index.snapshot idx)

let cooccurrence idx ~a ~b = Snap.cooccurrence (Index.snapshot idx) ~a ~b

(* --- full analysis --- *)

type analysis = {
  counts : Counts.t;
  retained : int list;
  elimination : Eliminate.result;
}

let analyze ?discard ?max_selections (idx : Index.t) =
  let snap = Index.snapshot idx in
  let cts = Snapshot.counts snap in
  let retained = Prune.retained cts in
  let elimination = Snap.eliminate ?discard ?max_selections snap in
  { counts = cts; retained; elimination }
