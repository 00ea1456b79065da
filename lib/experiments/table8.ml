open Sbi_util
open Sbi_core

let render rows =
  let tab =
    Texttab.create ~title:"Table 8: minimum number of runs needed"
      [
        ("Study", Texttab.Left);
        ("Bug", Texttab.Right);
        ("F(P)", Texttab.Right);
        ("N", Texttab.Right);
        ("Predicate", Texttab.Left);
      ]
  in
  List.iter
    (fun ((bundle : Harness.bundle), analysis) ->
      let selections = analysis.Analysis.elimination.Eliminate.selections in
      let per_bug = Harness.assign_selections_to_bugs bundle selections in
      List.iter
        (fun (bug, (sel : Eliminate.selection)) ->
          let pred = sel.Eliminate.pred in
          match Runs_needed.min_runs bundle.Harness.dataset ~pred with
          | Some ans ->
              Texttab.add_row tab
                [
                  bundle.Harness.study.Sbi_corpus.Study.name;
                  Printf.sprintf "#%d" bug;
                  string_of_int ans.Runs_needed.f_at_min;
                  string_of_int ans.Runs_needed.min_runs;
                  Harness.describe bundle ~pred;
                ]
          | None ->
              Texttab.add_row tab
                [
                  bundle.Harness.study.Sbi_corpus.Study.name;
                  Printf.sprintf "#%d" bug;
                  "-";
                  "> dataset";
                  Harness.describe bundle ~pred;
                ])
        per_bug;
      Texttab.add_rule tab)
    rows;
  Texttab.render tab

let run ?(config = Harness.default_config) () =
  let rows =
    List.map
      (fun study ->
        let bundle = Harness.collect_study ~config study in
        (bundle, Harness.analyze bundle))
      Sbi_corpus.Corpus.all
  in
  render rows
