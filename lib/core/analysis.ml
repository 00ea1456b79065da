open Sbi_runtime

type t = {
  dataset : Dataset.t;
  counts : Counts.t;
  retained : int list;
  elimination : Eliminate.result;
}

let analyze ?discard ?max_selections ds =
  let counts = Counts.compute ds in
  let retained = Prune.retained counts in
  let elimination = Eliminate.run ?discard ?max_selections ds in
  { dataset = ds; counts; retained; elimination }

type summary = {
  runs : int;
  successful : int;
  failing : int;
  sites : int;
  initial_preds : int;
  retained_preds : int;
  selected_preds : int;
}

let summary t =
  {
    runs = Dataset.nruns t.dataset;
    successful = Dataset.num_successes t.dataset;
    failing = Dataset.num_failures t.dataset;
    sites = t.dataset.Dataset.nsites;
    initial_preds = t.dataset.Dataset.npreds;
    retained_preds = List.length t.retained;
    selected_preds = List.length t.elimination.Eliminate.selections;
  }

let selected_scores t = t.elimination.Eliminate.selections

let affinity_for t ~pred = Affinity.list t.dataset ~selected:pred ~others:t.retained
