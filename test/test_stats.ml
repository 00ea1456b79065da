(* Unit and property tests for Sbi_util.Stats, including the paper's §3.2
   equivalence between Increase(P) > 0 and p_f(P) > p_s(P). *)
open Sbi_util

let feq ?(eps = 1e-6) a b = abs_float (a -. b) < eps

let test_mean_variance () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "mean empty" 0. (Stats.mean [||]);
  Alcotest.(check (float 1e-9)) "variance" (5. /. 3.) (Stats.variance [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "variance singleton" 0. (Stats.variance [| 42. |]);
  Alcotest.(check (float 1e-9)) "stddev" (sqrt (5. /. 3.)) (Stats.stddev [| 1.; 2.; 3.; 4. |])

let test_median_percentile () =
  Alcotest.(check (float 1e-9)) "median odd" 3. (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.(check (float 1e-9)) "p0" 1. (Stats.percentile [| 1.; 2.; 3. |] 0.);
  Alcotest.(check (float 1e-9)) "p100" 3. (Stats.percentile [| 1.; 2.; 3. |] 100.);
  Alcotest.(check (float 1e-9)) "p50 interpolated" 2. (Stats.percentile [| 1.; 2.; 3. |] 50.)

let test_erf_known_values () =
  (* Abramowitz-Stegun approximation has |error| <= 1.5e-7 *)
  Alcotest.(check bool) "erf(0) = 0" true (feq (Stats.erf 0.) 0.);
  Alcotest.(check bool) "erf(1) ~ 0.8427" true (feq ~eps:1e-5 (Stats.erf 1.) 0.842700793);
  Alcotest.(check bool) "erf(-1) ~ -0.8427" true (feq ~eps:1e-5 (Stats.erf (-1.)) (-0.842700793));
  Alcotest.(check bool) "erf(2) ~ 0.9953" true (feq ~eps:1e-5 (Stats.erf 2.) 0.995322265)

let test_normal_cdf () =
  Alcotest.(check bool) "Phi(0) = 0.5" true (feq (Stats.normal_cdf 0.) 0.5);
  Alcotest.(check bool) "Phi(1.96) ~ 0.975" true
    (feq ~eps:1e-4 (Stats.normal_cdf 1.959964) 0.975);
  Alcotest.(check bool) "Phi(-1.96) ~ 0.025" true
    (feq ~eps:1e-4 (Stats.normal_cdf (-1.959964)) 0.025)

let test_normal_quantile () =
  Alcotest.(check bool) "q(0.5) = 0" true (feq ~eps:1e-8 (Stats.normal_quantile 0.5) 0.);
  Alcotest.(check bool) "q(0.975) ~ 1.96" true
    (feq ~eps:1e-6 (Stats.normal_quantile 0.975) 1.959963985);
  Alcotest.(check bool) "q(0.025) ~ -1.96" true
    (feq ~eps:1e-6 (Stats.normal_quantile 0.025) (-1.959963985));
  (* every interval's critical value: pinned to the quantile's bits, so
     interval bounds cannot drift from the evaluated 95% quantile *)
  Alcotest.(check int64) "z_95 = q(0.975), bit for bit"
    (Int64.bits_of_float (Stats.normal_quantile 0.975))
    (Int64.bits_of_float Stats.z_95);
  Alcotest.check_raises "q(0) rejected"
    (Invalid_argument "Stats.normal_quantile: p must be in (0,1)") (fun () ->
      ignore (Stats.normal_quantile 0.))

let qcheck_quantile_inverts_cdf =
  QCheck2.Test.make ~name:"normal_quantile inverts normal_cdf" ~count:200
    QCheck2.Gen.(float_range 0.01 0.99)
    (fun p -> feq ~eps:1e-4 (Stats.normal_cdf (Stats.normal_quantile p)) p)

let test_wilson_interval () =
  let ci = Stats.proportion_ci ~successes:50 ~trials:100 () in
  Alcotest.(check bool) "contains point" true (Stats.interval_contains ci 0.5);
  Alcotest.(check bool) "roughly symmetric" true
    (feq ~eps:1e-3 (0.5 -. ci.Stats.lo) (ci.Stats.hi -. 0.5));
  let empty = Stats.proportion_ci ~successes:0 ~trials:0 () in
  Alcotest.(check (float 1e-9)) "no data lo" 0. empty.Stats.lo;
  Alcotest.(check (float 1e-9)) "no data hi" 1. empty.Stats.hi;
  (* extreme proportion: Wilson never leaves [0,1] and never collapses *)
  let extreme = Stats.proportion_ci ~successes:1 ~trials:1000 () in
  Alcotest.(check bool) "lo >= 0" true (extreme.Stats.lo >= 0.);
  Alcotest.(check bool) "hi > lo" true (extreme.Stats.hi > extreme.Stats.lo)

let test_wald_interval () =
  let ci = Stats.wald_proportion_ci ~successes:500 ~trials:1000 () in
  (* half-width = 1.96 * sqrt(0.25/1000) ~ 0.031 *)
  Alcotest.(check bool) "half-width" true (feq ~eps:1e-3 (Stats.interval_width ci /. 2.) 0.031)

let test_interval_narrows_with_n () =
  let w n = Stats.interval_width (Stats.proportion_ci ~successes:(n / 2) ~trials:n ()) in
  Alcotest.(check bool) "more data, narrower CI" true (w 10_000 < w 100 && w 100 < w 10)

(* §3.2: Increase(P) > 0 iff p_f(P) > p_s(P).  The paper proves the algebraic
   identity ad > bc; we check it on random counts. *)
let qcheck_increase_iff_heads =
  let gen =
    QCheck2.Gen.(
      bind (pair (int_range 0 50) (int_range 0 50)) (fun (f, s) ->
          map2
            (fun fo so -> (f, s, f + fo, s + so))
            (int_range 0 100) (int_range 0 100)))
  in
  QCheck2.Test.make ~name:"Increase(P) > 0 iff p_f > p_s (paper §3.2)" ~count:1000 gen
    (fun (f, s, f_obs, s_obs) ->
      QCheck2.assume (f + s > 0 && f_obs > 0 && s_obs > 0);
      let failure = float_of_int f /. float_of_int (f + s) in
      let context = float_of_int f_obs /. float_of_int (f_obs + s_obs) in
      let increase = failure -. context in
      let pf = float_of_int f /. float_of_int f_obs in
      let ps = float_of_int s /. float_of_int s_obs in
      increase > 0. = (pf > ps))

let test_two_proportion_z_sign () =
  (* strong positive association *)
  let z = Stats.two_proportion_z ~f:40 ~s:2 ~f_obs:50 ~s_obs:50 in
  Alcotest.(check bool) "positive z" true (z > 3.);
  (* no association *)
  let z0 = Stats.two_proportion_z ~f:25 ~s:25 ~f_obs:50 ~s_obs:50 in
  Alcotest.(check bool) "zero z" true (feq z0 0.);
  (* degenerate *)
  Alcotest.(check (float 1e-9)) "empty denominator" 0.
    (Stats.two_proportion_z ~f:1 ~s:1 ~f_obs:0 ~s_obs:10)

let test_increase_ci () =
  let ci = Stats.increase_ci ~f:90 ~s:10 ~f_obs:100 ~s_obs:900 () in
  (* increase = 0.9 - 0.1 = 0.8, should comfortably exclude 0 *)
  Alcotest.(check bool) "lower bound above 0" true (ci.Stats.lo > 0.5);
  let vague = Stats.increase_ci ~f:1 ~s:0 ~f_obs:1 ~s_obs:1 () in
  Alcotest.(check bool) "tiny data -> wide CI" true (Stats.interval_width vague > 0.3)

let test_harmonic_mean () =
  Alcotest.(check (float 1e-9)) "H(x,x) = x" 0.6 (Stats.harmonic_mean2 0.6 0.6);
  Alcotest.(check (float 1e-9)) "H(1,1) = 1" 1. (Stats.harmonic_mean2 1. 1.);
  Alcotest.(check (float 1e-9)) "H with 0 is 0" 0. (Stats.harmonic_mean2 0. 0.9);
  Alcotest.(check (float 1e-9)) "H with negative is 0" 0. (Stats.harmonic_mean2 (-0.1) 0.9);
  Alcotest.(check bool) "H <= min is false; H <= both components" true
    (Stats.harmonic_mean2 0.2 0.8 <= 0.8 && Stats.harmonic_mean2 0.2 0.8 >= 0.2 *. 0.8)

let qcheck_harmonic_bounds =
  QCheck2.Test.make ~name:"harmonic mean bounded by min and max" ~count:500
    QCheck2.Gen.(pair (float_range 0.001 1.) (float_range 0.001 1.))
    (fun (x, y) ->
      let h = Stats.harmonic_mean2 x y in
      h >= min x y -. 1e-9 && h <= max x y +. 1e-9)

let test_importance_ci () =
  let ci =
    Stats.importance_ci ~increase:0.8 ~increase_stderr:0.02 ~sensitivity:0.6
      ~sensitivity_stderr:0.05 ()
  in
  let h = Stats.harmonic_mean2 0.8 0.6 in
  Alcotest.(check bool) "contains harmonic mean" true (Stats.interval_contains ci h);
  Alcotest.(check bool) "nontrivial width" true (Stats.interval_width ci > 0.);
  let zero = Stats.importance_ci ~increase:0. ~increase_stderr:0.1 ~sensitivity:0.5 ~sensitivity_stderr:0.1 () in
  Alcotest.(check (float 1e-9)) "zero importance -> zero interval" 0. zero.Stats.hi

let test_log_ratio () =
  Alcotest.(check (float 1e-9)) "f=0" 0. (Stats.log_ratio 0 100);
  Alcotest.(check (float 1e-9)) "numf<=1" 0. (Stats.log_ratio 5 1);
  Alcotest.(check (float 1e-9)) "f=numf" 1. (Stats.log_ratio 100 100);
  Alcotest.(check (float 1e-9)) "f beyond numf clamps" 1. (Stats.log_ratio 200 100);
  Alcotest.(check (float 1e-9)) "log10(10)/log10(100)" 0.5 (Stats.log_ratio 10 100)

(* Monte-Carlo calibration: a 95% interval must cover the true parameter in
   roughly 95% of repeated experiments. *)
let test_wilson_coverage () =
  let rng = Prng.create 2027 in
  let trials = 2000 in
  let n = 60 in
  let p_true = 0.23 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let successes = ref 0 in
    for _ = 1 to n do
      if Prng.bernoulli rng p_true then incr successes
    done;
    let ci = Stats.proportion_ci ~successes:!successes ~trials:n () in
    if Stats.interval_contains ci p_true then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "Wilson coverage %.3f within [0.92, 0.99]" coverage)
    true
    (coverage >= 0.92 && coverage <= 0.99)

let test_increase_ci_coverage () =
  (* two independent binomials standing in for Failure and Context *)
  let rng = Prng.create 4099 in
  let trials = 2000 in
  let n1 = 80 and p1 = 0.6 in
  let n2 = 200 and p2 = 0.35 in
  let true_increase = p1 -. p2 in
  let covered = ref 0 in
  for _ = 1 to trials do
    let draw n p =
      let c = ref 0 in
      for _ = 1 to n do
        if Prng.bernoulli rng p then incr c
      done;
      !c
    in
    let f = draw n1 p1 in
    let s = n1 - f in
    let f_obs = draw n2 p2 in
    let s_obs = n2 - f_obs in
    let ci = Stats.increase_ci ~f ~s ~f_obs ~s_obs () in
    if Stats.interval_contains ci true_increase then incr covered
  done;
  let coverage = float_of_int !covered /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "Increase CI coverage %.3f within [0.92, 0.99]" coverage)
    true
    (coverage >= 0.92 && coverage <= 0.99)

let test_clamp () =
  Alcotest.(check (float 1e-9)) "below" 0. (Stats.clamp 0. 1. (-5.));
  Alcotest.(check (float 1e-9)) "above" 1. (Stats.clamp 0. 1. 7.);
  Alcotest.(check (float 1e-9)) "inside" 0.3 (Stats.clamp 0. 1. 0.3)

let suite =
  [
    Alcotest.test_case "mean and variance" `Quick test_mean_variance;
    Alcotest.test_case "median and percentile" `Quick test_median_percentile;
    Alcotest.test_case "erf known values" `Quick test_erf_known_values;
    Alcotest.test_case "normal cdf" `Quick test_normal_cdf;
    Alcotest.test_case "normal quantile" `Quick test_normal_quantile;
    QCheck_alcotest.to_alcotest qcheck_quantile_inverts_cdf;
    Alcotest.test_case "Wilson interval" `Quick test_wilson_interval;
    Alcotest.test_case "Wald interval" `Quick test_wald_interval;
    Alcotest.test_case "CI narrows with n" `Quick test_interval_narrows_with_n;
    QCheck_alcotest.to_alcotest qcheck_increase_iff_heads;
    Alcotest.test_case "two-proportion z sign" `Quick test_two_proportion_z_sign;
    Alcotest.test_case "increase CI" `Quick test_increase_ci;
    Alcotest.test_case "harmonic mean" `Quick test_harmonic_mean;
    QCheck_alcotest.to_alcotest qcheck_harmonic_bounds;
    Alcotest.test_case "importance delta-method CI" `Quick test_importance_ci;
    Alcotest.test_case "log ratio sensitivity" `Quick test_log_ratio;
    Alcotest.test_case "Wilson CI calibration (Monte Carlo)" `Slow test_wilson_coverage;
    Alcotest.test_case "Increase CI calibration (Monte Carlo)" `Slow test_increase_ci_coverage;
    Alcotest.test_case "clamp" `Quick test_clamp;
  ]
