open Sbi_runtime
open Sbi_core
module Bitset = Sbi_store.Bitset
module Rbitmap = Sbi_store.Rbitmap

(* --- snapshot-level queries ---

   Every read below runs against an epoch-stamped {!Snapshot}: the merged
   aggregate is computed once per epoch (not once per query), and the
   run-subset computations (affinity, iterative elimination) are word-level
   popcount kernels over per-view alive/failing masks instead of per-bit
   posting walks.  The integers produced are exactly those of
   [Counts.compute] on the corresponding materialized corpus, so scores and
   rankings stay bit-identical to [Sbi_core.Analysis]. *)

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

module Snap = struct
  let counts = Snapshot.counts

  let topk ?confidence ?(k = 10) snap =
    Sbi_obs.Trace.with_span ~name:"triage.topk" ~args:(Printf.sprintf "k=%d" k) (fun () ->
        let retained = Prune.retained_scores ?confidence (Snapshot.counts snap) in
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
  let topk_f ?confidence ?(k = 10) ~formula snap =
    Sbi_obs.Trace.with_span ~name:"triage.topk"
      ~args:(Printf.sprintf "k=%d formula=%s" k formula.Sbi_sbfl.Formula.name)
      (fun () ->
        let counts = Snapshot.counts snap in
        let candidates = Prune.retained ?confidence counts in
        Sbi_sbfl.Ranking.topk ~k ~candidates formula counts)

  let pred_score ?confidence snap ~pred ~formula =
    let meta = snap.Snapshot.meta in
    if pred < 0 || pred >= meta.Dataset.npreds then
      invalid_arg (Printf.sprintf "Triage.pred_score: predicate %d out of range" pred);
    let counts = Snapshot.counts snap in
    (Sbi_sbfl.Ranking.score formula counts ~pred, Scores.score ?confidence counts ~pred)

  let pred_detail ?confidence snap ~pred =
    let meta = snap.Snapshot.meta in
    if pred < 0 || pred >= meta.Dataset.npreds then
      invalid_arg (Printf.sprintf "Triage.pred_detail: predicate %d out of range" pred);
    Scores.score ?confidence (Snapshot.counts snap) ~pred

  let affinity ?(confidence = 0.95) snap ~selected ~others =
    Sbi_obs.Trace.with_span ~name:"triage.affinity" ~args:(Printf.sprintf "pred=%d" selected)
    @@ fun () ->
    let counts_before = Snapshot.counts snap in
    let states_without =
      Array.map
        (fun (v : Snapshot.view) ->
          let alive = Bitset.full v.Snapshot.v_nruns in
          Rbitmap.diff_inplace alive (v.Snapshot.v_pred_bits selected);
          { view = v; alive; failing = Bitset.copy (v.Snapshot.v_failing ()) })
        snap.Snapshot.views
    in
    let counts_after = counts_of_states snap.Snapshot.meta states_without ~candidates:others in
    let entries =
      List.filter_map
        (fun pred ->
          if pred = selected then None
          else begin
            let before = (Scores.score ~confidence counts_before ~pred).Scores.importance in
            let after = (Scores.score ~confidence counts_after ~pred).Scores.importance in
            Some
              {
                Affinity.pred;
                importance_before = before;
                importance_after = after;
                drop = before -. after;
              }
          end)
        others
    in
    List.sort
      (fun (a : Affinity.entry) (b : Affinity.entry) ->
        match Float.compare b.Affinity.drop a.Affinity.drop with
        | 0 -> Int.compare a.Affinity.pred b.Affinity.pred
        | n -> n)
      entries

  let eliminate ?(discard = Eliminate.Discard_all_true) ?(confidence = 0.95)
      ?(max_selections = 40) ?candidates snap =
    Sbi_obs.Trace.with_span ~name:"triage.eliminate"
      ~args:(Printf.sprintf "max=%d" max_selections)
    @@ fun () ->
    let meta = snap.Snapshot.meta in
    let states = fresh_states snap in
    let initial_counts = Snapshot.counts snap in
    let candidates =
      match candidates with
      | Some c -> c
      | None -> (
          match discard with
          | Eliminate.Discard_all_true -> Prune.retained ~confidence initial_counts
          | Eliminate.Discard_failing_true | Eliminate.Relabel_failing ->
              let acc = ref [] in
              for pred = initial_counts.Counts.npreds - 1 downto 0 do
                if initial_counts.Counts.f.(pred) > 0 then acc := pred :: !acc
              done;
              !acc)
    in
    let initial_scores = Hashtbl.create 64 in
    List.iter
      (fun pred ->
        Hashtbl.replace initial_scores pred (Scores.score ~confidence initial_counts ~pred))
      candidates;
    let rec loop acc candidates rank =
      let nfail = failing_count states in
      if nfail = 0 || candidates = [] || rank > max_selections then (List.rev acc, candidates)
      else begin
        let cts = counts_of_states meta states ~candidates in
        let best =
          List.fold_left
            (fun best pred ->
              if not (Prune.keep ~confidence cts ~pred) then best
              else begin
                let sc = Scores.score ~confidence cts ~pred in
                match best with
                | None -> Some sc
                | Some b -> if Scores.compare_importance_desc sc b < 0 then Some sc else Some b
              end)
            None candidates
        in
        match best with
        | None -> (List.rev acc, candidates)
        | Some sc when sc.Scores.importance <= 0. -> (List.rev acc, candidates)
        | Some sc ->
            let pred = sc.Scores.pred in
            let runs_before = alive_count states in
            apply_discard discard states pred;
            let selection =
              {
                Eliminate.rank;
                pred;
                initial = Hashtbl.find initial_scores pred;
                effective = sc;
                runs_before;
                failures_before = nfail;
                runs_discarded = runs_before - alive_count states;
              }
            in
            let candidates = List.filter (fun p -> p <> pred) candidates in
            loop (selection :: acc) candidates (rank + 1)
      end
    in
    let selections, candidates_left = loop [] candidates 1 in
    {
      Eliminate.selections;
      runs_remaining = alive_count states;
      failures_remaining = failing_count states;
      candidates_remaining = List.length candidates_left;
    }

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
let topk ?confidence ?k idx = Snap.topk ?confidence ?k (Index.snapshot idx)
let topk_f ?confidence ?k ~formula idx = Snap.topk_f ?confidence ?k ~formula (Index.snapshot idx)
let pred_detail ?confidence idx ~pred = Snap.pred_detail ?confidence (Index.snapshot idx) ~pred

let pred_score ?confidence idx ~pred ~formula =
  Snap.pred_score ?confidence (Index.snapshot idx) ~pred ~formula

let affinity ?confidence idx ~selected ~others =
  Snap.affinity ?confidence (Index.snapshot idx) ~selected ~others

let eliminate ?discard ?confidence ?max_selections ?candidates idx =
  Snap.eliminate ?discard ?confidence ?max_selections ?candidates (Index.snapshot idx)

let cooccurrence idx ~a ~b = Snap.cooccurrence (Index.snapshot idx) ~a ~b

(* --- full analysis --- *)

type analysis = {
  counts : Counts.t;
  retained : int list;
  elimination : Eliminate.result;
}

let analyze ?discard ?(confidence = 0.95) ?max_selections (idx : Index.t) =
  let snap = Index.snapshot idx in
  let cts = Snapshot.counts snap in
  let retained = Prune.retained ~confidence cts in
  let elimination = Snap.eliminate ?discard ~confidence ?max_selections ~candidates:retained snap in
  { counts = cts; retained; elimination }

let summary (idx : Index.t) (a : analysis) =
  {
    Analysis.runs = a.counts.Counts.num_f + a.counts.Counts.num_s;
    successful = a.counts.Counts.num_s;
    failing = a.counts.Counts.num_f;
    sites = idx.Index.meta.Dataset.nsites;
    initial_preds = idx.Index.meta.Dataset.npreds;
    retained_preds = List.length a.retained;
    selected_preds = List.length a.elimination.Eliminate.selections;
  }
