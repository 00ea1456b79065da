open Sbi_util

type t = {
  pred : int;
  f : int;
  s : int;
  f_obs : int;
  s_obs : int;
  failure : float;
  context : float;
  increase : float;
  increase_ci : Stats.interval;
  z : float;
  sensitivity : float;
  importance : float;
  importance_ci : Stats.interval;
}

let ratio num den = if den = 0 then 0. else float_of_int num /. float_of_int den

let sensitivity_stderr ~f ~num_f =
  (* Delta method through x -> log x / log NumF with Var(F) from a binomial
     F ~ B(NumF, F/NumF). *)
  if f <= 0 || num_f <= 1 then 0.
  else begin
    let ff = float_of_int f in
    let nf = float_of_int num_f in
    let var_f = ff *. (1. -. (ff /. nf)) in
    sqrt var_f /. (ff *. log nf)
  end

let score (c : Counts.t) ~pred =
  let f = c.Counts.f.(pred) in
  let s = c.Counts.s.(pred) in
  let f_obs = c.Counts.f_obs.(pred) in
  let s_obs = c.Counts.s_obs.(pred) in
  let failure = ratio f (f + s) in
  let context = ratio f_obs (f_obs + s_obs) in
  let increase = if f + s = 0 || f_obs + s_obs = 0 then 0. else failure -. context in
  let increase_ci = Stats.increase_ci ~f ~s ~f_obs ~s_obs () in
  let z = Stats.two_proportion_z ~f ~s ~f_obs ~s_obs in
  let sensitivity = Stats.log_ratio f c.Counts.num_f in
  let importance = Stats.harmonic_mean2 increase sensitivity in
  let importance_ci =
    Stats.importance_ci ~increase
      ~increase_stderr:(Stats.increase_stderr ~f ~s ~f_obs ~s_obs)
      ~sensitivity
      ~sensitivity_stderr:(sensitivity_stderr ~f ~num_f:c.Counts.num_f)
      ()
  in
  {
    pred;
    f;
    s;
    f_obs;
    s_obs;
    failure;
    context;
    increase;
    increase_ci;
    z;
    sensitivity;
    importance;
    importance_ci;
  }

let score_all c = Array.init c.Counts.npreds (fun pred -> score c ~pred)

let compare_importance_desc a b =
  match Float.compare b.importance a.importance with
  | 0 -> ( match Int.compare b.f a.f with 0 -> Int.compare a.pred b.pred | n -> n)
  | n -> n
