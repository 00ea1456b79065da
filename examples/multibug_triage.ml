(* Multi-bug triage: the paper's headline scenario.

   The MOSS-analogue corpus program carries nine seeded bugs that occur at
   rates differing by orders of magnitude, overlap in runs, and include a
   non-crashing wrong-output bug.  This example reproduces the §4.1
   controlled experiment at reduced scale: collect a monitored population
   with non-uniform sampling, run iterative elimination, and check each
   selected predictor against the recorded ground truth.

   Run with:  dune exec examples/multibug_triage.exe
   (takes ~30s: it trains sampling rates and interprets ~1100 runs) *)

open Sbi_experiments
open Sbi_core

let config = { Harness.seed = 7; nruns = Some 1000; sampling = Harness.Adaptive 150 }

let () =
  let study = Sbi_corpus.Corpus.mossim in
  Printf.printf "subject: %s (%d LoC, %d seeded bugs)\n%!" study.Sbi_corpus.Study.name
    (Sbi_corpus.Study.loc_count study)
    (List.length study.Sbi_corpus.Study.bugs);
  Printf.printf "collecting %d monitored runs (adaptive sampling)...\n%!" 1000;
  let bundle = Harness.collect_study ~config study in
  let ds = bundle.Harness.dataset in
  Printf.printf "failing runs: %d of %d\n" (Sbi_runtime.Dataset.num_failures ds)
    (Sbi_runtime.Dataset.nruns ds);
  print_endline "\nground-truth bug frequencies (known only because this is a controlled experiment):";
  List.iter
    (fun b ->
      Printf.printf "  bug #%d: %4d failing runs — %s\n" b
        (Sbi_runtime.Dataset.runs_with_bug ds b)
        (Sbi_corpus.Study.bug_name study b))
    (Sbi_runtime.Dataset.bug_ids ds);

  let analysis = Harness.analyze bundle in
  let selections = analysis.Analysis.elimination.Eliminate.selections in
  Printf.printf "\nelimination selected %d predictors:\n" (List.length selections);
  List.iter
    (fun (sel : Eliminate.selection) ->
      let verdict =
        match Harness.dominant_bug bundle ~pred:sel.Eliminate.pred with
        | Some b -> Printf.sprintf "points at bug #%d (%s)" b (Sbi_corpus.Study.bug_name study b)
        | None -> "no dominant bug"
      in
      Printf.printf "  %d. [imp %.3f, F=%-3d] %s\n       -> %s\n" sel.Eliminate.rank
        sel.Eliminate.effective.Scores.importance sel.Eliminate.effective.Scores.f
        (Harness.describe bundle ~pred:sel.Eliminate.pred)
        verdict)
    selections;

  (* Affinity browsing, as in the paper's interactive tool: for the top
     predictor, which other retained predicates deflate when its runs are
     removed?  High-affinity entries are predictors of the same bug. *)
  (match selections with
  | top :: _ ->
      Printf.printf "\naffinity list of predictor 1 (same-bug companions first):\n";
      let entries = Analysis.affinity_for analysis ~pred:top.Eliminate.pred in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: r -> x :: take (k - 1) r
      in
      List.iter
        (fun (e : Affinity.entry) ->
          Printf.printf "  drop %.3f  %s\n" e.Affinity.drop
            (Harness.describe bundle ~pred:e.Affinity.pred))
        (take 5 entries)
  | [] -> ());

  print_endline "\nfull Table-3-style report:";
  print_endline (Table3.render bundle)
