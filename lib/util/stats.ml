let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let sorted_copy xs =
  let ys = Array.copy xs in
  Array.sort compare ys;
  ys

let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let ys = sorted_copy xs in
    let p = if p < 0. then 0. else if p > 100. then 100. else p in
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then ys.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (ys.(lo) *. (1. -. frac)) +. (ys.(hi) *. frac)
    end
  end

let median xs = percentile xs 50.

(* Abramowitz & Stegun 7.1.26. *)
let erf x =
  let sign = if x < 0. then -1. else 1. in
  let x = abs_float x in
  let a1 = 0.254829592
  and a2 = -0.284496736
  and a3 = 1.421413741
  and a4 = -1.453152027
  and a5 = 1.061405429
  and p = 0.3275911 in
  let t = 1. /. (1. +. (p *. x)) in
  let poly = ((((((((a5 *. t) +. a4) *. t) +. a3) *. t) +. a2) *. t) +. a1) *. t in
  let y = 1. -. (poly *. exp (-.x *. x)) in
  sign *. y

let normal_cdf x = 0.5 *. (1. +. erf (x /. sqrt 2.))

(* Acklam's inverse normal CDF approximation. *)
let normal_quantile p =
  if p <= 0. || p >= 1. then invalid_arg "Stats.normal_quantile: p must be in (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let p_high = 1. -. p_low in
  if p < p_low then begin
    let q = sqrt (-2. *. log p) in
    (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5)
    |> fun num ->
    num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.)
  end
  else if p <= p_high then begin
    let q = p -. 0.5 in
    let r = q *. q in
    let num =
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
    in
    let den = ((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1. in
    num /. den
  end
  else begin
    let q = sqrt (-2. *. log (1. -. p)) in
    let num = ((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5) in
    let den = (((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1. in
    -.num /. den
  end

(* The paper's 95% (§3.2) is the only confidence level, so its
   two-sided critical value is evaluated once, here, not per interval. *)
let z_95 = normal_quantile (1. -. ((1. -. 0.95) /. 2.))

type interval = { lo : float; hi : float }

let interval_width { lo; hi } = hi -. lo
let interval_contains { lo; hi } x = lo <= x && x <= hi

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let proportion_ci ~successes ~trials () =
  if trials <= 0 then { lo = 0.; hi = 1. }
  else begin
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let z2 = z_95 *. z_95 in
    let denom = 1. +. (z2 /. n) in
    let centre = (p +. (z2 /. (2. *. n))) /. denom in
    let half =
      z_95 *. sqrt ((p *. (1. -. p) /. n) +. (z2 /. (4. *. n *. n))) /. denom
    in
    { lo = clamp 0. 1. (centre -. half); hi = clamp 0. 1. (centre +. half) }
  end

let wald_proportion_ci ~successes ~trials () =
  if trials <= 0 then { lo = 0.; hi = 1. }
  else begin
    let n = float_of_int trials in
    let p = float_of_int successes /. n in
    let half = z_95 *. sqrt (p *. (1. -. p) /. n) in
    { lo = clamp 0. 1. (p -. half); hi = clamp 0. 1. (p +. half) }
  end

let increase_stderr ~f ~s ~f_obs ~s_obs =
  let n_true = f + s in
  let n_obs = f_obs + s_obs in
  if n_true = 0 || n_obs = 0 then infinity
  else begin
    let p_fail = float_of_int f /. float_of_int n_true in
    let p_ctx = float_of_int f_obs /. float_of_int n_obs in
    let v_fail = p_fail *. (1. -. p_fail) /. float_of_int n_true in
    let v_ctx = p_ctx *. (1. -. p_ctx) /. float_of_int n_obs in
    sqrt (v_fail +. v_ctx)
  end

let increase_ci ~f ~s ~f_obs ~s_obs () =
  let n_true = f + s in
  let n_obs = f_obs + s_obs in
  if n_true = 0 || n_obs = 0 then { lo = -1.; hi = 1. }
  else begin
    let inc =
      (float_of_int f /. float_of_int n_true)
      -. (float_of_int f_obs /. float_of_int n_obs)
    in
    let se = increase_stderr ~f ~s ~f_obs ~s_obs in
    { lo = clamp (-1.) 1. (inc -. (z_95 *. se)); hi = clamp (-1.) 1. (inc +. (z_95 *. se)) }
  end

let two_proportion_z ~f ~s ~f_obs ~s_obs =
  (* §3.2: heads probabilities p_f = F(P)/F(P observed), p_s = S(P)/S(P
     observed), tested with a pooled-variance Z statistic. *)
  if f_obs = 0 || s_obs = 0 then 0.
  else begin
    let pf = float_of_int f /. float_of_int f_obs in
    let ps = float_of_int s /. float_of_int s_obs in
    let pooled = float_of_int (f + s) /. float_of_int (f_obs + s_obs) in
    let var =
      pooled *. (1. -. pooled)
      *. ((1. /. float_of_int f_obs) +. (1. /. float_of_int s_obs))
    in
    if var <= 0. then 0. else (pf -. ps) /. sqrt var
  end

let harmonic_mean2 x y = if x <= 0. || y <= 0. then 0. else 2. /. ((1. /. x) +. (1. /. y))

let importance_ci ~increase ~increase_stderr ~sensitivity
    ~sensitivity_stderr () =
  let h = harmonic_mean2 increase sensitivity in
  if h <= 0. then { lo = 0.; hi = 0. }
  else begin
    (* H(x,y) = 2xy/(x+y); dH/dx = 2y^2/(x+y)^2, dH/dy = 2x^2/(x+y)^2. *)
    let x = increase and y = sensitivity in
    let denom = (x +. y) *. (x +. y) in
    let dx = 2. *. y *. y /. denom in
    let dy = 2. *. x *. x /. denom in
    let var =
      (dx *. dx *. increase_stderr *. increase_stderr)
      +. (dy *. dy *. sensitivity_stderr *. sensitivity_stderr)
    in
    let half = z_95 *. sqrt var in
    { lo = clamp 0. 1. (h -. half); hi = clamp 0. 1. (h +. half) }
  end

let log_ratio f num_f =
  if f <= 0 || num_f <= 1 then 0.
  else if f >= num_f then 1.
  else log (float_of_int f) /. log (float_of_int num_f)
