type plan =
  | Always
  | Uniform of float
  | Per_site of float array

let plan_rate plan site =
  match plan with
  | Always -> 1.
  | Uniform r -> r
  | Per_site rates -> if site < Array.length rates then rates.(site) else 0.

type t = {
  plan : plan;
  nsites : int;
  countdown : int array;  (* visits remaining until next sample; -1 = never *)
  rate : float array;  (* plan_rate per site *)
  log_q : float array;  (* log (1 - rate) per site, for Prng.geometric_log *)
  rng : Sbi_util.Prng.t;
}

let draw_countdown t site =
  let rate = t.rate.(site) in
  if rate >= 1. then 1
  else if rate <= 0. then -1
  else Sbi_util.Prng.geometric_log t.rng t.log_q site

let create ?(seed = 0x5eed) ~nsites plan =
  let rate = Array.init (max nsites 1) (plan_rate plan) in
  let t =
    {
      plan;
      nsites;
      countdown = Array.make (max nsites 1) 1;
      rate;
      log_q = Array.map (fun r -> log (1. -. r)) rate;
      rng = Sbi_util.Prng.create seed;
    }
  in
  for site = 0 to nsites - 1 do
    t.countdown.(site) <- draw_countdown t site
  done;
  t

let reseed t seed = Sbi_util.Prng.reseed t.rng seed

let begin_run t =
  for site = 0 to t.nsites - 1 do
    t.countdown.(site) <- draw_countdown t site
  done

let should_sample t site =
  let c = t.countdown.(site) in
  if c < 0 then false
  else if c <= 1 then begin
    t.countdown.(site) <- draw_countdown t site;
    true
  end
  else begin
    t.countdown.(site) <- c - 1;
    false
  end

let observed_rate t site = plan_rate t.plan site
