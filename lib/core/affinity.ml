type entry = {
  pred : int;
  importance_before : float;
  importance_after : float;
  drop : float;
}

let of_runs ~before (rs : Eliminate.run_set) ~selected ~others =
  rs.Eliminate.discard Eliminate.Discard_all_true selected;
  let after = rs.Eliminate.counts others in
  let entries =
    List.filter_map
      (fun pred ->
        if pred = selected then None
        else begin
          let importance_before = (Scores.score before ~pred).Scores.importance in
          let importance_after = (Scores.score after ~pred).Scores.importance in
          let drop = importance_before -. importance_after in
          Some { pred; importance_before; importance_after; drop }
        end)
      others
  in
  List.sort
    (fun a b ->
      match Float.compare b.drop a.drop with 0 -> Int.compare a.pred b.pred | n -> n)
    entries

let list ds ~selected ~others =
  of_runs ~before:(Counts.compute ds) (Eliminate.dataset_runs ds) ~selected ~others

let top_affine = function
  | { drop; pred; _ } :: _ when drop > 0. -> Some pred
  | _ -> None
