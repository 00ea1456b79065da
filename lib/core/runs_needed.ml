open Sbi_runtime

let default_grid =
  let small = List.init 10 (fun i -> (i + 1) * 100) in
  let large = List.init 24 (fun i -> (i + 2) * 1000) in
  small @ large

let importance_at ds ~pred ~n =
  let counts = Counts.compute (Dataset.sub ds n) in
  (Scores.score counts ~pred).Scores.importance

let curve ?(grid = default_grid) ds ~pred =
  let total = Dataset.nruns ds in
  let grid = List.filter (fun n -> n < total) (List.sort_uniq Int.compare grid) @ [ total ] in
  List.map (fun n -> (n, importance_at ds ~pred ~n)) grid

type answer = {
  pred : int;
  min_runs : int;
  f_at_min : int;
  full_importance : float;
}

let f_at ds ~pred ~n =
  let counts = Counts.compute (Dataset.sub ds n) in
  counts.Counts.f.(pred)

let min_runs ?(threshold = 0.2) ?(grid = default_grid) ds ~pred =
  let total = Dataset.nruns ds in
  let full = importance_at ds ~pred ~n:total in
  let grid = List.filter (fun n -> n < total) (List.sort_uniq Int.compare grid) @ [ total ] in
  let rec go = function
    | [] -> None
    | n :: rest ->
        let imp = importance_at ds ~pred ~n in
        if full -. imp < threshold && imp > 0. then
          Some { pred; min_runs = n; f_at_min = f_at ds ~pred ~n; full_importance = full }
        else go rest
  in
  go grid
