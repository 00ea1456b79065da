(* Tests for the statistical core: counts, scores, pruning (including the
   paper's §3.1 control-dependence example), ranking, iterative elimination
   (including a qcheck property for Lemma 3.1), affinity, thermometers, and
   the runs-needed analysis. *)
open Sbi_util
open Sbi_runtime
open Sbi_core

let mk_report ?(outcome = Report.Success) ?(sites = [||]) ?(preds = [||]) ?(bugs = [||]) id =
  {
    Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = Array.map (fun _ -> 1) preds;
    bugs;
    crash_sig = None;
  }

(* two sites, two preds each: pred i lives on site i/2 *)
let mk_ds runs =
  Dataset.of_tables ~nsites:2 ~npreds:4 ~pred_site:[| 0; 0; 1; 1 |] (Array.of_list runs)

let test_counts () =
  let ds =
    mk_ds
      [
        mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] 0;
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 1; 2 |] 1;
        mk_report ~sites:[| 0 |] ~preds:[| 0 |] 2;
        mk_report ~sites:[| 1 |] ~preds:[||] 3;
      ]
  in
  let c = Counts.compute ds in
  Alcotest.(check int) "num_f" 2 c.Counts.num_f;
  Alcotest.(check int) "num_s" 2 c.Counts.num_s;
  Alcotest.(check int) "F(p0)" 1 c.Counts.f.(0);
  Alcotest.(check int) "S(p0)" 1 c.Counts.s.(0);
  Alcotest.(check int) "F(p0 obs) = site0 failing obs" 2 c.Counts.f_obs.(0);
  Alcotest.(check int) "S(p0 obs)" 1 c.Counts.s_obs.(0);
  Alcotest.(check int) "F(p2)" 1 c.Counts.f.(2);
  Alcotest.(check int) "F(p2 obs) = site1 failing obs" 1 c.Counts.f_obs.(2);
  Alcotest.(check int) "S(p2 obs)" 1 c.Counts.s_obs.(2);
  Alcotest.(check bool) "p3 observed somewhere" true (Counts.observed_anywhere c 3);
  Alcotest.(check bool) "p3 never true" false (Counts.true_somewhere c 3)

let test_scores_formulas () =
  (* F(P)=8, S(P)=2, F(Pobs)=10, S(Pobs)=30, NumF=10 *)
  let runs =
    List.init 8 (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] i)
    @ List.init 2 (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] (8 + i))
    @ List.init 2 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 0 |] (10 + i))
    @ List.init 28 (fun i -> mk_report ~sites:[| 0 |] (12 + i))
  in
  let c = Counts.compute (mk_ds runs) in
  let sc = Scores.score c ~pred:0 in
  Alcotest.(check (float 1e-9)) "Failure = 8/10" 0.8 sc.Scores.failure;
  Alcotest.(check (float 1e-9)) "Context = 10/40" 0.25 sc.Scores.context;
  Alcotest.(check (float 1e-9)) "Increase = 0.55" 0.55 sc.Scores.increase;
  Alcotest.(check (float 1e-9)) "sensitivity = log 8 / log 10"
    (log 8. /. log 10.) sc.Scores.sensitivity;
  Alcotest.(check (float 1e-9)) "importance = harmonic mean"
    (Stats.harmonic_mean2 0.55 (log 8. /. log 10.))
    sc.Scores.importance;
  Alcotest.(check bool) "z positive" true (sc.Scores.z > 0.)

let test_scores_degenerate () =
  let c = Counts.compute (mk_ds [ mk_report 0 ]) in
  let sc = Scores.score c ~pred:0 in
  Alcotest.(check (float 1e-9)) "unobserved -> 0 failure" 0. sc.Scores.failure;
  Alcotest.(check (float 1e-9)) "unobserved -> 0 importance" 0. sc.Scores.importance

(* §3.1: the f == NULL / x == 0 example.  Site 0 carries "f == NULL"
   (branch), site 1 carries "x == 0" checked on the doomed path only.
   f==NULL true => crash; x==0 is always true at its site, and its site is
   only reached when already doomed.  Increase must keep f==NULL and prune
   x==0. *)
let test_prune_control_dependence () =
  let runs =
    (* 10 failing runs: f==NULL observed true, and the doomed-path site
       observed with x==0 true *)
    List.init 10 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0; 2 |] i)
    (* 30 successful runs: site 0 observed, f==NULL false (pred 1 true);
       site 1 never reached *)
    @ List.init 30 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 1 |] (10 + i))
  in
  let c = Counts.compute (mk_ds runs) in
  Alcotest.(check bool) "f==NULL retained" true (Prune.keep c ~pred:0);
  Alcotest.(check bool) "x==0 pruned (Increase = 0)" false (Prune.keep c ~pred:2);
  Alcotest.(check bool) "f!=NULL pruned" false (Prune.keep c ~pred:1);
  let sc = Scores.score c ~pred:2 in
  Alcotest.(check (float 1e-9)) "x==0 Failure = 1" 1. sc.Scores.failure;
  Alcotest.(check (float 1e-9)) "x==0 Context = 1" 1. sc.Scores.context;
  Alcotest.(check (float 1e-9)) "x==0 Increase = 0" 0. sc.Scores.increase

let test_prune_invariant () =
  (* a predicate true in every run (program invariant): Increase <= 0 *)
  let runs =
    List.init 5 (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] i)
    @ List.init 20 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 0 |] (5 + i))
  in
  let c = Counts.compute (mk_ds runs) in
  Alcotest.(check bool) "invariant pruned" false (Prune.keep c ~pred:0)

let test_prune_low_confidence () =
  (* one failing observation only: positive increase but wide CI *)
  let runs =
    [ mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] 0;
      mk_report ~sites:[| 0 |] 1 ]
  in
  let c = Counts.compute (mk_ds runs) in
  Alcotest.(check bool) "single observation pruned by CI" false (Prune.keep c ~pred:0)

let test_prune_unreached () =
  let runs = [ mk_report ~outcome:Report.Failure 0; mk_report 1 ] in
  let c = Counts.compute (mk_ds runs) in
  Alcotest.(check (list int)) "nothing retained" [] (Prune.retained c)

let test_rank_strategies () =
  (* p0: huge F, tiny increase; p2: tiny F, increase 1 *)
  let runs =
    List.init 50 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |] i)
    @ [ mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0; 2 |] 50 ]
    @ List.init 49 (fun i -> mk_report ~sites:[| 0; 1 |] ~preds:[| 0 |] (51 + i))
  in
  let c = Counts.compute (mk_ds runs) in
  let scores = [| Scores.score c ~pred:0; Scores.score c ~pred:2 |] in
  let by_f = Rank.sort Rank.By_failure_count scores in
  Alcotest.(check int) "by F: p0 first" 0 by_f.(0).Scores.pred;
  let by_inc = Rank.sort Rank.By_increase scores in
  Alcotest.(check int) "by Increase: p2 first" 2 by_inc.(0).Scores.pred;
  let top1 = Rank.top ~n:1 Rank.By_importance scores in
  Alcotest.(check int) "top n" 1 (List.length top1)

(* --- elimination --- *)

(* Synthetic multi-bug world: bug b (0..k-1) has predicate 2b true exactly
   in its failing runs (deterministic predictor); all sites always
   observed. *)
let synthetic_world ~nbugs ~runs_per_bug ~nsuccess =
  let nsites = nbugs in
  let npreds = 2 * nbugs in
  let pred_site = Array.init npreds (fun p -> p / 2) in
  let all_sites = Array.init nsites Fun.id in
  let runs = ref [] in
  let id = ref 0 in
  for b = 0 to nbugs - 1 do
    for _ = 1 to runs_per_bug do
      runs :=
        mk_report ~outcome:Report.Failure ~sites:all_sites ~preds:[| 2 * b |] ~bugs:[| b |] !id
        :: !runs;
      incr id
    done
  done;
  for _ = 1 to nsuccess do
    runs := mk_report ~sites:all_sites !id :: !runs;
    incr id
  done;
  Dataset.of_tables ~nsites ~npreds ~pred_site (Array.of_list (List.rev !runs))

let test_eliminate_covers_all_bugs () =
  let ds = synthetic_world ~nbugs:4 ~runs_per_bug:25 ~nsuccess:100 in
  let result = Eliminate.run ds in
  let selected = Eliminate.selected_preds result in
  Alcotest.(check int) "one predictor per bug" 4 (List.length selected);
  List.iter
    (fun b -> Alcotest.(check bool) "bug covered" true (List.mem (2 * b) selected))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int) "no failures left" 0 result.Eliminate.failures_remaining

let test_eliminate_order_by_importance () =
  (* bug 0 has 50 failing runs, bug 1 has 5: bug 0's predictor first *)
  let mk b n id0 =
    List.init n (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 2 * b |] ~bugs:[| b |]
          (id0 + i))
  in
  let runs = mk 0 50 0 @ mk 1 5 50 @ List.init 100 (fun i -> mk_report ~sites:[| 0; 1 |] (55 + i)) in
  let ds = Dataset.of_tables ~nsites:2 ~npreds:4 ~pred_site:[| 0; 0; 1; 1 |] (Array.of_list runs) in
  let result = Eliminate.run ds in
  match Eliminate.selected_preds result with
  | [ first; second ] ->
      Alcotest.(check int) "common bug first" 0 first;
      Alcotest.(check int) "rare bug second" 2 second
  | l -> Alcotest.failf "expected 2 selections, got %d" (List.length l)

let test_eliminate_redundant_collapse () =
  (* two logically identical predicates for one bug: only one selected *)
  let runs =
    List.init 30 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0; 2 |] i)
    @ List.init 60 (fun i -> mk_report ~sites:[| 0; 1 |] (30 + i))
  in
  let ds = mk_ds runs in
  let result = Eliminate.run ds in
  Alcotest.(check int) "one predicate selected" 1
    (List.length (Eliminate.selected_preds result))

let qcheck_lemma_3_1 =
  (* Lemma 3.1: elimination selects at least one predicate predicting at
     least one failure of every bug whose profile is covered by the
     candidate predicates. *)
  let gen = QCheck2.Gen.(pair (int_range 1 6) (int_range 5 40)) in
  QCheck2.Test.make ~name:"Lemma 3.1: every covered bug gets a predictor" ~count:30 gen
    (fun (nbugs, runs_per_bug) ->
      let ds = synthetic_world ~nbugs ~runs_per_bug ~nsuccess:60 in
      let result = Eliminate.run ds in
      let selected = Eliminate.selected_preds result in
      List.for_all
        (fun b ->
          List.exists
            (fun p ->
              Array.exists
                (fun (r : Report.t) ->
                  Report.outcome_is_failure r.Report.outcome
                  && Report.has_bug r b && Report.is_true r p)
                ds.Dataset.runs)
            selected)
        (List.init nbugs Fun.id))

let test_discard_proposals () =
  let ds = synthetic_world ~nbugs:2 ~runs_per_bug:20 ~nsuccess:50 in
  (* after selecting pred 0 under each proposal, check remaining runs *)
  let with_discard d =
    Eliminate.run ~discard:d ~max_selections:1 ~candidates:[ 0 ] ds
  in
  let r1 = with_discard Eliminate.Discard_all_true in
  (* pred 0 true only in bug-0 failing runs (20 of them) *)
  Alcotest.(check int) "proposal 1 removes 20 runs" (90 - 20) r1.Eliminate.runs_remaining;
  let r2 = with_discard Eliminate.Discard_failing_true in
  Alcotest.(check int) "proposal 2 removes failing only" (90 - 20) r2.Eliminate.runs_remaining;
  let r3 = with_discard Eliminate.Relabel_failing in
  Alcotest.(check int) "proposal 3 keeps all runs" 90 r3.Eliminate.runs_remaining;
  Alcotest.(check int) "proposal 3 relabels: 20 fewer failures" 20
    r3.Eliminate.failures_remaining

let test_discard_proposal_1_vs_2_successes () =
  (* make pred 0 true in successes too: proposal 1 removes them, 2 keeps *)
  let runs =
    List.init 20 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |] ~bugs:[| 0 |] i)
    @ List.init 10 (fun i -> mk_report ~sites:[| 0; 1 |] ~preds:[| 0 |] (20 + i))
    @ List.init 40 (fun i -> mk_report ~sites:[| 0; 1 |] (30 + i))
  in
  let ds = mk_ds runs in
  let r1 = Eliminate.run ~discard:Eliminate.Discard_all_true ~max_selections:1 ~candidates:[ 0 ] ds in
  Alcotest.(check int) "proposal 1: 30 runs removed" 40 r1.Eliminate.runs_remaining;
  let r2 =
    Eliminate.run ~discard:Eliminate.Discard_failing_true ~max_selections:1 ~candidates:[ 0 ] ds
  in
  Alcotest.(check int) "proposal 2: 20 runs removed" 50 r2.Eliminate.runs_remaining

let test_complementary_predicates_proposal_3 () =
  (* §5: P and ¬P are the best predictors of *different* bugs.  Initially
     Increase(¬P) < 0 — it is overshadowed by P's dominant bug — so under
     proposal (1) it is pruned for good.  Under proposal (3), once P is
     selected and its failing runs relabelled, ¬P's Increase turns
     confidently positive and it is selected too. *)
  let runs =
    (* bug A: 300 failing runs with P (pred 0) true *)
    List.init 300 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] ~bugs:[| 0 |] i)
    (* bug B: 40 failing runs with ¬P (pred 1) true *)
    @ List.init 40 (fun i ->
          mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 1 |] ~bugs:[| 1 |]
            (300 + i))
    (* successes: 30 with P, 70 with ¬P *)
    @ List.init 30 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 0 |] (340 + i))
    @ List.init 70 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 1 |] (370 + i))
  in
  let ds = mk_ds runs in
  (* sanity: ¬P is pruned on the initial dataset *)
  let c0 = Counts.compute ds in
  Alcotest.(check bool) "not-P initially pruned" false (Prune.keep c0 ~pred:1);
  let r1 = Eliminate.run ~discard:Eliminate.Discard_all_true ds in
  Alcotest.(check (list int)) "proposal 1 finds only P" [ 0 ] (Eliminate.selected_preds r1);
  let r3 = Eliminate.run ~discard:Eliminate.Relabel_failing ds in
  Alcotest.(check (list int)) "proposal 3 finds P then not-P" [ 0; 1 ]
    (Eliminate.selected_preds r3);
  Alcotest.(check int) "proposal 3 covers all failures" 0 r3.Eliminate.failures_remaining

let test_max_selections () =
  let ds = synthetic_world ~nbugs:5 ~runs_per_bug:20 ~nsuccess:50 in
  let r = Eliminate.run ~max_selections:2 ds in
  Alcotest.(check int) "stops at max" 2 (List.length r.Eliminate.selections)

(* --- affinity --- *)

let test_affinity () =
  (* pred 0 and pred 2 predict the same bug; pred 4/6 a different one *)
  let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3 |] in
  let all_sites = [| 0; 1; 2; 3 |] in
  let runs =
    List.init 30 (fun i ->
        mk_report ~outcome:Report.Failure ~sites:all_sites ~preds:[| 0; 2 |] i)
    @ List.init 30 (fun i ->
          mk_report ~outcome:Report.Failure ~sites:all_sites ~preds:[| 4; 6 |] (30 + i))
    @ List.init 60 (fun i -> mk_report ~sites:all_sites (60 + i))
  in
  let ds = Dataset.of_tables ~nsites:4 ~npreds:8 ~pred_site (Array.of_list runs) in
  let entries = Affinity.list ds ~selected:0 ~others:[ 2; 4; 6 ] in
  (match entries with
  | first :: _ ->
      Alcotest.(check int) "pred 2 most affected by selecting pred 0" 2
        first.Affinity.pred;
      Alcotest.(check bool) "its importance drops to 0" true
        (first.Affinity.importance_after < 1e-9)
  | [] -> Alcotest.fail "no affinity entries");
  match Affinity.top_affine entries with
  | Some 2 -> ()
  | _ -> Alcotest.fail "top affine should be pred 2"

(* --- thermometer --- *)

let score_of ~f ~s ~f_obs ~s_obs ~num_f =
  let runs =
    List.init f (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] i)
    @ List.init (f_obs - f) (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] (f + i))
    @ List.init (num_f - f_obs) (fun i -> mk_report ~outcome:Report.Failure (f_obs + i))
    @ List.init s (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 0 |] (num_f + i))
    @ List.init (s_obs - s) (fun i -> mk_report ~sites:[| 0 |] (num_f + s + i))
  in
  Scores.score (Counts.compute (mk_ds runs)) ~pred:0

let test_thermometer_bands () =
  let sc = score_of ~f:50 ~s:5 ~f_obs:60 ~s_obs:100 ~num_f:80 in
  let th = Thermometer.render_ascii ~max_width:20 ~max_fs:55 sc in
  Alcotest.(check bool) "starts with [" true (th.[0] = '[');
  Alcotest.(check bool) "ends with ]" true (th.[String.length th - 1] = ']');
  Alcotest.(check int) "width + brackets" 22 (String.length th);
  Alcotest.(check bool) "has context band" true (String.contains th '#');
  Alcotest.(check bool) "has increase band" true (String.contains th '=');
  (* unicode render has same display width *)
  let uth = Thermometer.render ~max_width:20 ~max_fs:55 sc in
  Alcotest.(check bool) "unicode render non-empty" true (String.length uth > 20)

let test_thermometer_log_scale () =
  let big = score_of ~f:100 ~s:0 ~f_obs:100 ~s_obs:10 ~num_f:100 in
  let small = score_of ~f:3 ~s:0 ~f_obs:3 ~s_obs:10 ~num_f:100 in
  let ink th = String.fold_left (fun acc c -> if c = ' ' then acc else acc + 1) 0 th in
  Alcotest.(check bool) "bigger F+S, longer thermometer" true
    (ink (Thermometer.render_ascii ~max_fs:100 big)
    > ink (Thermometer.render_ascii ~max_fs:100 small))

let test_thermometer_zero () =
  let sc = score_of ~f:0 ~s:0 ~f_obs:1 ~s_obs:1 ~num_f:2 in
  let th = Thermometer.render_ascii ~max_width:10 ~max_fs:100 sc in
  Alcotest.(check string) "all padding" "[          ]" th

(* --- runs needed --- *)

let test_runs_needed () =
  (* deterministic predictor for a bug occurring steadily: importance
     stabilizes early *)
  let runs =
    List.concat
      (List.init 100 (fun i ->
           [
             mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |] (3 * i);
             mk_report ~sites:[| 0; 1 |] ((3 * i) + 1);
             mk_report ~sites:[| 0; 1 |] ((3 * i) + 2);
           ]))
  in
  let ds = mk_ds runs in
  match Runs_needed.min_runs ds ~pred:0 ~grid:[ 30; 60; 150 ] with
  | Some ans ->
      Alcotest.(check int) "stabilizes at the first grid point" 30 ans.Runs_needed.min_runs;
      Alcotest.(check int) "F at min" 10 ans.Runs_needed.f_at_min;
      Alcotest.(check bool) "full importance positive" true (ans.Runs_needed.full_importance > 0.)
  | None -> Alcotest.fail "expected an answer"

let test_runs_needed_rare_bug () =
  (* the predictor's failures only appear in the last third of the runs:
     early prefixes can't satisfy the threshold *)
  let quiet =
    List.init 200 (fun i -> mk_report ~sites:[| 0; 1 |] i)
  in
  let active =
    List.concat
      (List.init 40 (fun i ->
           [
             mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |] (200 + (2 * i));
             mk_report ~sites:[| 0; 1 |] (201 + (2 * i));
           ]))
  in
  let ds = mk_ds (quiet @ active) in
  match Runs_needed.min_runs ds ~pred:0 ~grid:[ 100; 200; 250 ] with
  | Some ans ->
      Alcotest.(check bool) "needs to see the active region" true
        (ans.Runs_needed.min_runs >= 250)
  | None -> Alcotest.fail "expected an answer at the full dataset"

let test_curve () =
  let ds = synthetic_world ~nbugs:1 ~runs_per_bug:30 ~nsuccess:30 in
  let curve = Runs_needed.curve ds ~pred:0 ~grid:[ 20; 40; 1000 ] in
  (* grid points beyond the dataset are dropped; the full size is appended *)
  Alcotest.(check (list int)) "grid clipped and completed" [ 20; 40; 60 ]
    (List.map fst curve);
  List.iter
    (fun (_, imp) -> Alcotest.(check bool) "importance in [0,1]" true (imp >= 0. && imp <= 1.))
    curve;
  match List.rev curve with
  | (n, imp) :: _ ->
      Alcotest.(check int) "last point is the full dataset" 60 n;
      Alcotest.(check (float 1e-9)) "matches importance_at" imp
        (Runs_needed.importance_at ds ~pred:0 ~n:60)
  | [] -> Alcotest.fail "empty curve"

let test_importance_at_prefix () =
  let ds = synthetic_world ~nbugs:1 ~runs_per_bug:20 ~nsuccess:20 in
  let full = Runs_needed.importance_at ds ~pred:0 ~n:(Dataset.nruns ds) in
  Alcotest.(check bool) "positive" true (full > 0.)

(* --- analysis pipeline --- *)

let test_analysis_summary () =
  let ds = synthetic_world ~nbugs:3 ~runs_per_bug:20 ~nsuccess:60 in
  let a = Analysis.analyze ds in
  let s = Analysis.summary a in
  Alcotest.(check int) "runs" 120 s.Analysis.runs;
  Alcotest.(check int) "failing" 60 s.Analysis.failing;
  Alcotest.(check int) "successful" 60 s.Analysis.successful;
  Alcotest.(check int) "sites" 3 s.Analysis.sites;
  Alcotest.(check int) "initial preds" 6 s.Analysis.initial_preds;
  Alcotest.(check int) "retained = 3 (one per bug)" 3 s.Analysis.retained_preds;
  Alcotest.(check int) "selected = 3" 3 s.Analysis.selected_preds

(* --- the run-set contract --- *)

(* A random dataset whose failures follow one to three "bug" predicates,
   so elimination has something to select. *)
let random_dataset st =
  let nsites = 3 + Random.State.int st 6 in
  let npreds = 2 * nsites in
  let pred_site = Array.init npreds (fun p -> p / 2) in
  let bugs = List.init (1 + Random.State.int st 3) (fun _ -> Random.State.int st npreds) in
  let chance p = Random.State.float st 1. < p in
  let runs =
    Array.init (20 + Random.State.int st 150) (fun id ->
        let sites = List.filter (fun _ -> chance 0.7) (List.init nsites Fun.id) in
        let preds =
          List.concat_map (fun s -> List.filter (fun _ -> chance 0.5) [ 2 * s; (2 * s) + 1 ]) sites
        in
        let fails = List.exists (fun p -> List.mem p bugs && chance 0.9) preds || chance 0.05 in
        mk_report
          ~outcome:(if fails then Report.Failure else Report.Success)
          ~sites:(Array.of_list sites) ~preds:(Array.of_list preds) id)
  in
  Dataset.of_tables ~nsites ~npreds ~pred_site runs

(* The dataset's run set, except that [counts cands] gives every predicate
   outside [cands] a cell that passes [Prune.keep] with Importance 1 once
   two failing runs remain — above any real predicate, whose Context is
   positive.  Whatever reads a cell it did not ask for picks a wrong
   predicate. *)
let poisoned ds =
  let rs = Eliminate.dataset_runs ds in
  {
    rs with
    Eliminate.counts =
      (fun cands ->
        let c = rs.Eliminate.counts cands in
        for p = 0 to c.Counts.npreds - 1 do
          if not (List.mem p cands) then begin
            c.Counts.f.(p) <- c.Counts.num_f;
            c.Counts.s.(p) <- 0;
            c.Counts.f_obs.(p) <- 0;
            c.Counts.s_obs.(p) <- 1
          end
        done;
        c);
  }

let fbits = Int64.bits_of_float

let score_bits (sc : Scores.t) =
  let ci (i : Stats.interval) = [ fbits i.Stats.lo; fbits i.Stats.hi ] in
  ( [ sc.Scores.pred; sc.Scores.f; sc.Scores.s; sc.Scores.f_obs; sc.Scores.s_obs ],
    List.map fbits
      [ sc.Scores.failure; sc.Scores.context; sc.Scores.increase; sc.Scores.z;
        sc.Scores.sensitivity; sc.Scores.importance ]
    @ ci sc.Scores.increase_ci @ ci sc.Scores.importance_ci )

let elimination_bits (r : Eliminate.result) =
  ( List.map
      (fun (s : Eliminate.selection) ->
        ( [ s.Eliminate.rank; s.Eliminate.pred; s.Eliminate.runs_before;
            s.Eliminate.failures_before; s.Eliminate.runs_discarded ],
          score_bits s.Eliminate.initial,
          score_bits s.Eliminate.effective ))
      r.Eliminate.selections,
    [ r.Eliminate.runs_remaining; r.Eliminate.failures_remaining;
      r.Eliminate.candidates_remaining ] )

let affinity_bits entries =
  List.map
    (fun (e : Affinity.entry) ->
      ( e.Affinity.pred,
        List.map fbits
          [ e.Affinity.importance_before; e.Affinity.importance_after; e.Affinity.drop ] ))
    entries

(* [counts cands] need only be exact at [cands]: elimination and affinity
   over the poisoned run set equal their dataset answers, bit for bit,
   under all three discard proposals and for random candidate sets. *)
let qcheck_candidates_only_contract =
  QCheck2.Test.make ~name:"run set: elimination and affinity read only the candidates' cells"
    ~count:40
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x5e7 |] in
      let ds = random_dataset st in
      let subset () =
        List.filter (fun _ -> Random.State.bool st) (List.init ds.Dataset.npreds Fun.id)
      in
      let same_elim a b = compare a b = 0 && elimination_bits a = elimination_bits b in
      let same_aff a b = compare a b = 0 && affinity_bits a = affinity_bits b in
      List.for_all
        (fun discard ->
          let candidates = if Random.State.int st 4 = 0 then None else Some (subset ()) in
          same_elim
            (Eliminate.run_on ~discard ?candidates ~initial:(Counts.compute ds) (poisoned ds))
            (Eliminate.run ~discard ?candidates ds))
        [ Eliminate.Discard_all_true; Eliminate.Discard_failing_true; Eliminate.Relabel_failing ]
      &&
      let selected = Random.State.int st ds.Dataset.npreds and others = subset () in
      same_aff
        (Affinity.of_runs ~before:(Counts.compute ds) (poisoned ds) ~selected ~others)
        (Affinity.list ds ~selected ~others))

let suite =
  [
    Alcotest.test_case "counts" `Quick test_counts;
    Alcotest.test_case "score formulas" `Quick test_scores_formulas;
    Alcotest.test_case "degenerate scores" `Quick test_scores_degenerate;
    Alcotest.test_case "prune: control dependence (paper §3.1)" `Quick test_prune_control_dependence;
    Alcotest.test_case "prune: invariants" `Quick test_prune_invariant;
    Alcotest.test_case "prune: low confidence" `Quick test_prune_low_confidence;
    Alcotest.test_case "prune: unreached" `Quick test_prune_unreached;
    Alcotest.test_case "ranking strategies" `Quick test_rank_strategies;
    Alcotest.test_case "elimination covers all bugs" `Quick test_eliminate_covers_all_bugs;
    Alcotest.test_case "elimination orders by importance" `Quick test_eliminate_order_by_importance;
    Alcotest.test_case "elimination collapses redundancy" `Quick test_eliminate_redundant_collapse;
    QCheck_alcotest.to_alcotest qcheck_lemma_3_1;
    Alcotest.test_case "discard proposals semantics" `Quick test_discard_proposals;
    Alcotest.test_case "proposal 1 vs 2 on successes" `Quick test_discard_proposal_1_vs_2_successes;
    Alcotest.test_case "complementary predicates under proposal 3 (§5)" `Quick test_complementary_predicates_proposal_3;
    Alcotest.test_case "max selections cap" `Quick test_max_selections;
    Alcotest.test_case "affinity lists" `Quick test_affinity;
    Alcotest.test_case "thermometer bands" `Quick test_thermometer_bands;
    Alcotest.test_case "thermometer log scale" `Quick test_thermometer_log_scale;
    Alcotest.test_case "thermometer zero data" `Quick test_thermometer_zero;
    Alcotest.test_case "runs needed: stable predictor" `Quick test_runs_needed;
    Alcotest.test_case "runs needed: late bug" `Quick test_runs_needed_rare_bug;
    Alcotest.test_case "importance curve" `Quick test_curve;
    Alcotest.test_case "importance at prefix" `Quick test_importance_at_prefix;
    Alcotest.test_case "analysis summary" `Quick test_analysis_summary;
    QCheck_alcotest.to_alcotest qcheck_candidates_only_contract;
  ]
