open Sbi_core

let render ?(top = 8) (bundle : Harness.bundle) =
  let counts = Counts.compute bundle.Harness.dataset in
  let retained = Prune.retained_scores counts in
  let remaining = Array.length retained - top in
  let sub strategy label =
    let rows = Rank.top ~n:top strategy retained in
    Render.score_table
      ~title:(Printf.sprintf "Table 1(%s): sort %s" label (Rank.strategy_to_string strategy))
      ~transform:bundle.Harness.transform rows
    ^ (if remaining > 0 then Printf.sprintf "... %d additional predicates follow ...\n" remaining
       else "")
  in
  String.concat "\n"
    [
      sub Rank.By_failure_count "a";
      sub Rank.By_increase "b";
      sub Rank.By_importance "c";
    ]

let run ?(config = Harness.default_config) ?top () =
  let bundle = Harness.collect_study ~config Sbi_corpus.Corpus.mossim in
  render ?top bundle
