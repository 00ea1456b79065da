let rates_of_counts ?(target = 100) ?(min_rate = 0.01) ~runs ~visits () =
  if runs <= 0 then invalid_arg "Adaptive.rates_of_counts: runs must be positive";
  Array.map
    (fun total ->
      if total <= 0 then 1.0
      else begin
        let mean_per_run = float_of_int total /. float_of_int runs in
        let rate = float_of_int target /. mean_per_run in
        if rate >= 1.0 then 1.0 else if rate < min_rate then min_rate else rate
      end)
    visits

let count_visits (t : Transform.t) ~run ~ntrain =
  let visits = Array.make (Transform.num_sites t) 0 in
  let hooks =
    Observe.hooks t
      ~visit:(fun site ->
        visits.(site) <- visits.(site) + 1;
        false)
      ~record:(fun _ _ -> ())
  in
  for _ = 1 to ntrain do
    ignore (run hooks)
  done;
  visits

let train t ~run ~ntrain =
  let visits = count_visits t ~run ~ntrain in
  Sampler.Per_site (rates_of_counts ~runs:ntrain ~visits ())
