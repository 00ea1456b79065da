(* End-to-end experiment tests on reduced run counts: the harness, the
   table renderers, and the headline result — elimination isolates the
   seeded bugs of the MOSS analogue. *)
open Sbi_experiments
open Sbi_core

let contains hay needle =
  let hl = String.length hay and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let tiny_config = { Harness.seed = 42; nruns = Some 400; sampling = Harness.Adaptive 100 }

(* Collected once, shared by the tests below. *)
let moss_bundle = lazy (Harness.collect_study ~config:tiny_config Sbi_corpus.Corpus.mossim)
let moss_analysis = lazy (Harness.analyze (Lazy.force moss_bundle))

let test_bundle_shape () =
  let b = Lazy.force moss_bundle in
  Alcotest.(check int) "400 runs" 400 (Sbi_runtime.Dataset.nruns b.Harness.dataset);
  Alcotest.(check bool) "has failures" true
    (Sbi_runtime.Dataset.num_failures b.Harness.dataset > 50);
  Alcotest.(check bool) "has successes" true
    (Sbi_runtime.Dataset.num_successes b.Harness.dataset > 100);
  Alcotest.(check bool) "thousands of predicates" true
    (b.Harness.dataset.Sbi_runtime.Dataset.npreds > 2000);
  match b.Harness.plan with
  | Sbi_instrument.Sampler.Per_site rates ->
      Alcotest.(check bool) "adaptive rates include 1.0 and low rates" true
        (Array.exists (fun r -> r = 1.0) rates && Array.exists (fun r -> r < 0.2) rates)
  | _ -> Alcotest.fail "adaptive sampling must yield per-site rates"

let test_pruning_reduction () =
  let a = Lazy.force moss_analysis in
  let s = Analysis.summary a in
  (* the paper reports 2-4 orders of magnitude; at this scale expect >= 80% *)
  Alcotest.(check bool) "pruning reduces predicates by >= 80%" true
    (float_of_int s.Analysis.retained_preds < 0.2 *. float_of_int s.Analysis.initial_preds);
  Alcotest.(check bool) "elimination reduces further" true
    (s.Analysis.selected_preds < s.Analysis.retained_preds)

let test_elimination_isolates_bugs () =
  let b = Lazy.force moss_bundle in
  let a = Lazy.force moss_analysis in
  let selections = a.Analysis.elimination.Eliminate.selections in
  Alcotest.(check bool) "selected at least 3 predictors" true (List.length selections >= 3);
  let covered =
    List.sort_uniq compare
      (List.filter_map
         (fun (s : Eliminate.selection) -> Harness.dominant_bug b ~pred:s.Eliminate.pred)
         selections)
  in
  (* at 400 runs the common bugs must be isolated (rare ones need more runs) *)
  Alcotest.(check bool)
    (Printf.sprintf "covers >= 3 distinct bugs (got %s)"
       (String.concat "," (List.map string_of_int covered)))
    true
    (List.length covered >= 3);
  Alcotest.(check bool) "dominant bug 5 covered" true (List.mem 5 covered)

let test_selection_scores_sane () =
  let a = Lazy.force moss_analysis in
  List.iter
    (fun (sel : Eliminate.selection) ->
      Alcotest.(check bool) "positive importance at selection" true
        (sel.Eliminate.effective.Scores.importance > 0.);
      Alcotest.(check bool) "F > 0" true (sel.Eliminate.effective.Scores.f > 0);
      Alcotest.(check bool) "increase in (0,1]" true
        (sel.Eliminate.effective.Scores.increase > 0.
        && sel.Eliminate.effective.Scores.increase <= 1.))
    a.Analysis.elimination.Eliminate.selections

let test_assign_selections () =
  let b = Lazy.force moss_bundle in
  let a = Lazy.force moss_analysis in
  let per_bug = Harness.assign_selections_to_bugs b a.Analysis.elimination.Eliminate.selections in
  List.iter
    (fun (bug, (sel : Eliminate.selection)) ->
      match Harness.dominant_bug b ~pred:sel.Eliminate.pred with
      | Some d -> Alcotest.(check int) "assigned to its dominant bug" bug d
      | None -> Alcotest.fail "assigned selection has no failing coverage")
    per_bug;
  let bugs = List.map fst per_bug in
  Alcotest.(check bool) "bug list sorted distinct" true
    (List.sort_uniq compare bugs = bugs)

let test_table1_renders () =
  let out = Table1.render ~top:5 (Lazy.force moss_bundle) in
  Alcotest.(check bool) "has (a)" true (contains out "Table 1(a)");
  Alcotest.(check bool) "has (b)" true (contains out "Table 1(b)");
  Alcotest.(check bool) "has (c)" true (contains out "Table 1(c)");
  Alcotest.(check bool) "has thermometer legend" true (contains out "thermometer");
  Alcotest.(check bool) "has predicate column" true (contains out "Predicate")

let test_table1_shape () =
  (* (a) top row has larger F than (b) top row; (b) top row has larger
     Increase than (a) top row — the paper's super-bug vs sub-bug contrast *)
  let b = Lazy.force moss_bundle in
  let counts = Counts.compute b.Harness.dataset in
  let retained = Prune.retained_scores counts in
  let top strategy =
    match Rank.top ~n:1 strategy retained with
    | [ s ] -> s
    | _ -> Alcotest.fail "no retained predicates"
  in
  let by_f = top Rank.By_failure_count in
  let by_inc = top Rank.By_increase in
  Alcotest.(check bool) "F-ranked top has more failures" true
    (by_f.Scores.f >= by_inc.Scores.f);
  Alcotest.(check bool) "Increase-ranked top has higher increase" true
    (by_inc.Scores.increase >= by_f.Scores.increase)

let test_table3_renders () =
  let out = Table3.render (Lazy.force moss_bundle) in
  Alcotest.(check bool) "title" true (contains out "Table 3");
  Alcotest.(check bool) "ground truth columns" true (contains out "#5");
  Alcotest.(check bool) "ground truth footer" true (contains out "Ground truth")

let test_table2_renders () =
  let b = Lazy.force moss_bundle in
  let out = Table2.render [ (b, Lazy.force moss_analysis) ] in
  Alcotest.(check bool) "title" true (contains out "Table 2");
  Alcotest.(check bool) "study row" true (contains out "mossim");
  Alcotest.(check bool) "LoC column" true (contains out "LoC")

let test_table8_renders () =
  let b = Lazy.force moss_bundle in
  let out = Table8.render [ (b, Lazy.force moss_analysis) ] in
  Alcotest.(check bool) "title" true (contains out "Table 8");
  Alcotest.(check bool) "has N column" true (contains out "N")

let test_table9_renders () =
  let out = Table9.render ~top:5 (Lazy.force moss_bundle) in
  Alcotest.(check bool) "title" true (contains out "Table 9");
  Alcotest.(check bool) "coefficients" true (contains out "Coefficient");
  Alcotest.(check bool) "nonzero summary" true (contains out "nonzero weights")

let test_predictor_table_renders () =
  let out = Predictor_table.render ~title:"Table X: test" (Lazy.force moss_bundle) in
  Alcotest.(check bool) "title" true (contains out "Table X");
  Alcotest.(check bool) "effective column" true (contains out "Effective")

let test_ablation () =
  let rows = Ablation.compare_discards (Lazy.force moss_bundle) in
  Alcotest.(check int) "three proposals" 3 (List.length rows);
  List.iter
    (fun (r : Ablation.row) ->
      Alcotest.(check bool) "each proposal selects something" true (r.Ablation.selections > 0))
    rows;
  let out = Ablation.render (Lazy.force moss_bundle) in
  Alcotest.(check bool) "renders" true (contains out "Proposal")

let test_stack_study () =
  let b = Lazy.force moss_bundle in
  let verdicts = Stack_study.study_verdicts b in
  Alcotest.(check bool) "some bugs manifested" true (List.length verdicts >= 3);
  List.iter
    (fun (v : Stack_study.verdict) ->
      Alcotest.(check bool) "precision in [0,1]" true
        (v.Stack_study.best_precision >= 0. && v.Stack_study.best_precision <= 1.);
      Alcotest.(check bool) "recall in [0,1]" true
        (v.Stack_study.best_recall >= 0. && v.Stack_study.best_recall <= 1.))
    verdicts;
  let out = Stack_study.render [ (b, Lazy.force moss_analysis) ] in
  Alcotest.(check bool) "renders summary" true (contains out "stack useful")

let test_curves () =
  let out = Curves.render (Lazy.force moss_bundle) in
  Alcotest.(check bool) "has axis" true (contains out "(N runs)");
  Alcotest.(check bool) "has legend" true (contains out "bug #");
  Alcotest.(check bool) "plots at least two curves" true
    (contains out "a = " && contains out "b = ")

let test_runs_needed_on_bundle () =
  let b = Lazy.force moss_bundle in
  let a = Lazy.force moss_analysis in
  match a.Analysis.elimination.Eliminate.selections with
  | sel :: _ -> (
      match Runs_needed.min_runs b.Harness.dataset ~pred:sel.Eliminate.pred with
      | Some ans ->
          Alcotest.(check bool) "min runs <= dataset size" true
            (ans.Runs_needed.min_runs <= Sbi_runtime.Dataset.nruns b.Harness.dataset)
      | None -> Alcotest.fail "top predictor must stabilize within the dataset")
  | [] -> Alcotest.fail "no selections"

let test_cooccurrence_consistency () =
  let b = Lazy.force moss_bundle in
  let a = Lazy.force moss_analysis in
  List.iter
    (fun (sel : Eliminate.selection) ->
      let co = Harness.cooccurrence b ~pred:sel.Eliminate.pred in
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 co in
      (* co-occurrence counts failing runs; each counted once per bug it
         exhibits, so the sum is >= F(P) restricted to bug-bearing runs *)
      Alcotest.(check bool) "coverage consistent with F" true
        (total >= 0 && List.for_all (fun (_, n) -> n <= sel.Eliminate.initial.Scores.f) co))
    a.Analysis.elimination.Eliminate.selections

let rhythm_bundle =
  lazy (Harness.collect_study ~config:tiny_config Sbi_corpus.Corpus.rhythmim)

let test_static_followup () =
  let b = Lazy.force rhythm_bundle in
  let f = Static_followup.investigate b in
  Alcotest.(check bool) "disposed refs implicated" true
    (List.mem "timer_priv" f.Static_followup.implicated
    || List.mem "view_priv" f.Static_followup.implicated);
  Alcotest.(check bool) "scan finds instances" true
    (List.length f.Static_followup.uses >= 2);
  let out = Static_followup.render b in
  Alcotest.(check bool) "renders" true (contains out "dispose-then-use")

let test_html_report () =
  let b = Lazy.force moss_bundle in
  let html = Html_report.render b in
  Alcotest.(check bool) "is a document" true (contains html "<!DOCTYPE html>");
  Alcotest.(check bool) "has thermometers" true (contains html "class=\"therm\"");
  Alcotest.(check bool) "has affinity details" true (contains html "<details>");
  Alcotest.(check bool) "has ground truth" true (contains html "Ground truth");
  Alcotest.(check bool) "escapes predicates" true (not (contains html "<= match"));
  let path = Filename.temp_file "sbi_report" ".html" in
  Html_report.write ~path b;
  let size = (Unix.stat path).Unix.st_size in
  Sys.remove path;
  Alcotest.(check bool) "written to disk" true (size > 2000)

(* Cases whose names hold a number (the table cases) are told apart in the
   runner's output partly by their position, so they keep positions 8-13. *)
let suite =
  [
    Alcotest.test_case "bundle shape and adaptive plan" `Slow test_bundle_shape;
    Alcotest.test_case "static follow-up (§1)" `Slow test_static_followup;
    Alcotest.test_case "html report" `Slow test_html_report;
    Alcotest.test_case "pruning reduction" `Slow test_pruning_reduction;
    Alcotest.test_case "elimination isolates bugs" `Slow test_elimination_isolates_bugs;
    Alcotest.test_case "selection scores sane" `Slow test_selection_scores_sane;
    Alcotest.test_case "per-bug assignment" `Slow test_assign_selections;
    Alcotest.test_case "discard-proposal ablation" `Slow test_ablation;
    Alcotest.test_case "table 1 renders" `Slow test_table1_renders;
    Alcotest.test_case "table 1 super/sub-bug contrast" `Slow test_table1_shape;
    Alcotest.test_case "table 3 renders" `Slow test_table3_renders;
    Alcotest.test_case "table 2 renders" `Slow test_table2_renders;
    Alcotest.test_case "table 8 renders" `Slow test_table8_renders;
    Alcotest.test_case "table 9 renders" `Slow test_table9_renders;
    Alcotest.test_case "predictor table renders" `Slow test_predictor_table_renders;
    Alcotest.test_case "stack study" `Slow test_stack_study;
    Alcotest.test_case "convergence curves" `Slow test_curves;
    Alcotest.test_case "runs-needed on real data" `Slow test_runs_needed_on_bundle;
    Alcotest.test_case "co-occurrence consistency" `Slow test_cooccurrence_consistency;
  ]
