open Sbi_util

let keep (c : Counts.t) ~pred =
  let f = c.Counts.f.(pred) in
  if f = 0 then false
  else begin
    let ci =
      Stats.increase_ci ~f ~s:c.Counts.s.(pred) ~f_obs:c.Counts.f_obs.(pred)
        ~s_obs:c.Counts.s_obs.(pred) ()
    in
    ci.Stats.lo > 0.
  end

let retained c =
  let acc = ref [] in
  for pred = c.Counts.npreds - 1 downto 0 do
    if keep c ~pred then acc := pred :: !acc
  done;
  !acc

let retained_scores c = Array.of_list (List.map (fun pred -> Scores.score c ~pred) (retained c))
