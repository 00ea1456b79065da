open Sbi_util
open Sbi_core

type row = {
  discard : Eliminate.discard;
  selections : int;
  bugs_covered : int list;
  first_preds : string list;
}

let compare_discards (bundle : Harness.bundle) =
  List.map
    (fun discard ->
      let result = Eliminate.run ~discard bundle.Harness.dataset in
      let selections = result.Eliminate.selections in
      let bugs =
        List.sort_uniq compare
          (List.filter_map
             (fun (s : Eliminate.selection) -> Harness.dominant_bug bundle ~pred:s.Eliminate.pred)
             selections)
      in
      let rec take k = function
        | [] -> []
        | _ when k = 0 -> []
        | x :: rest -> x :: take (k - 1) rest
      in
      {
        discard;
        selections = List.length selections;
        bugs_covered = bugs;
        first_preds =
          take 3
            (List.map
               (fun (s : Eliminate.selection) -> Harness.describe bundle ~pred:s.Eliminate.pred)
               selections);
      })
    [ Eliminate.Discard_all_true; Eliminate.Discard_failing_true; Eliminate.Relabel_failing ]

let render bundle =
  let rows = compare_discards bundle in
  let tab =
    Texttab.create ~title:"Ablation: §5 run-discard proposals on the same dataset"
      [
        ("Proposal", Texttab.Left);
        ("Selections", Texttab.Right);
        ("Bugs covered", Texttab.Left);
        ("Top predicates", Texttab.Left);
      ]
  in
  List.iter
    (fun r ->
      Texttab.add_row tab
        [
          Eliminate.discard_to_string r.discard;
          string_of_int r.selections;
          String.concat "," (List.map (fun b -> "#" ^ string_of_int b) r.bugs_covered);
          String.concat " | " r.first_preds;
        ])
    rows;
  Texttab.render tab

let run ?(config = Harness.default_config) () =
  render (Harness.collect_study ~config Sbi_corpus.Corpus.mossim)
