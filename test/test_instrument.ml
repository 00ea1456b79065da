(* Tests for the instrumentation layer: site/predicate construction, the
   source-to-source planner, the Bernoulli sampler, and adaptive rates. *)
open Sbi_lang
open Sbi_instrument

let instr ?config src = Transform.instrument ?config (Check.check_string src)

let sites_by_scheme t scheme =
  Array.to_list t.Transform.sites
  |> List.filter (fun (s : Site.t) -> s.Site.scheme = scheme)

(* --- schemes on a known snippet --- *)

let test_branch_sites () =
  let t =
    instr
      "int main() { int x = 1; if (x > 0) { } while (x < 5) { x = x + 1; } for (int i = 0; i < 2; i = i + 1) { } return x; }"
  in
  Alcotest.(check int) "3 branch sites (if, while, for)" 3
    (List.length (sites_by_scheme t Site.Branches));
  List.iter
    (fun (s : Site.t) -> Alcotest.(check int) "2 preds per branch" 2 s.Site.num_preds)
    (sites_by_scheme t Site.Branches)

let test_returns_sites () =
  let t =
    instr
      "int f() { return 1; } void g() { } int main() { int x = f(); f(); g(); return x; }"
  in
  (* x = f() -> one returns site; statement f() -> one returns site; g() is
     void -> none; 'return 1'/'return x' are not call sites *)
  Alcotest.(check int) "2 returns sites" 2 (List.length (sites_by_scheme t Site.Returns));
  List.iter
    (fun (s : Site.t) -> Alcotest.(check int) "6 preds per returns site" 6 s.Site.num_preds)
    (sites_by_scheme t Site.Returns)

let test_pairs_partners () =
  let config = { Transform.default_config with Transform.max_consts_per_func = 0 } in
  let t =
    instr ~config
      "int g1 = 0; int main() { int a = 1; int b = a; string s = \"x\"; b = a; return b; }"
  in
  (* decl a: partners = {g1}; decl b: partners = {a, g1};
     decl s: not int, none; assign b: partners = {a, g1} + old = 3 *)
  let pair_sites = sites_by_scheme t Site.Scalar_pairs in
  Alcotest.(check int) "1 + 2 + 3 pair sites" 6 (List.length pair_sites);
  let old_sites =
    List.filter (fun (s : Site.t) -> s.Site.partner = Some Site.P_old) pair_sites
  in
  Alcotest.(check int) "one old-value site (reassignment only)" 1 (List.length old_sites)

let test_pairs_exclude_self_and_shadowing () =
  let config =
    { Transform.default_config with Transform.max_consts_per_func = 0; pairs_include_old = false }
  in
  let t = instr ~config "int x = 0; int main() { int x = 1; x = 2; return x; }" in
  (* local x shadows global x; assignment to local x has NO partners *)
  Alcotest.(check int) "no partners under shadowing" 0
    (List.length (sites_by_scheme t Site.Scalar_pairs))

let test_pairs_scope_exit () =
  let config =
    { Transform.default_config with Transform.max_consts_per_func = 0; pairs_include_old = false; pairs_include_globals = false }
  in
  let t =
    instr ~config "int main() { { int y = 1; y = y; } int z = 0; z = 1; return z; }"
  in
  (* y's partner set empty; z = 1: y out of scope -> no partners *)
  Alcotest.(check int) "out-of-scope variables are not partners" 0
    (List.length (sites_by_scheme t Site.Scalar_pairs))

let test_const_pool () =
  let config =
    { Transform.default_config with Transform.max_consts_per_func = 2; pairs_include_old = false; pairs_include_globals = false }
  in
  let t = instr ~config "int main() { int a = 10; a = 20; a = 30; return a; }" in
  let consts =
    List.filter_map
      (fun (s : Site.t) -> match s.Site.partner with Some (Site.P_const c) -> Some c | _ -> None)
      (sites_by_scheme t Site.Scalar_pairs)
  in
  (* pool capped at first 2 literals {10, 20}; three int assignments *)
  Alcotest.(check int) "2 consts x 3 assignments" 6 (List.length consts);
  Alcotest.(check bool) "pool is {10,20}" true
    (List.for_all (fun c -> c = 10 || c = 20) consts)

let test_pred_ids_dense () =
  let t = instr "int main() { int x = 1; if (x > 0) { x = 2; } return x; }" in
  Alcotest.(check int) "pred table matches sites" (Transform.num_preds t)
    (Array.fold_left (fun acc (s : Site.t) -> acc + s.Site.num_preds) 0 t.Transform.sites);
  Array.iteri
    (fun i (p : Site.predicate) -> Alcotest.(check int) "dense ids" i p.Site.pred_id)
    t.Transform.preds

let test_predicate_texts () =
  let t = instr "int main() { int x = 1; if (x > 0) { } return x; }" in
  let texts = Array.to_list (Array.map (fun (p : Site.predicate) -> p.Site.pred_text) t.Transform.preds) in
  Alcotest.(check bool) "branch TRUE text" true (List.mem "x > 0 is TRUE" texts);
  Alcotest.(check bool) "branch FALSE text" true (List.mem "x > 0 is FALSE" texts)

(* bit i of a truth mask is the site's predicate i *)
let decode mask n = Array.init n (fun i -> mask land (1 lsl i) <> 0)

let test_eval_vectors () =
  Alcotest.(check (array bool)) "branch true" [| true; false |] (decode (Site.branch_mask true) 2);
  Alcotest.(check (array bool)) "branch false" [| false; true |] (decode (Site.branch_mask false) 2);
  Alcotest.(check (array bool)) "sextet x<y" [| true; true; false; false; false; true |]
    (decode (Site.sextet_mask 1 2) 6);
  Alcotest.(check (array bool)) "sextet x=y" [| false; true; false; true; true; false |]
    (decode (Site.sextet_mask 2 2) 6);
  Alcotest.(check (array bool)) "sextet x>y" [| false; false; true; true; false; true |]
    (decode (Site.sextet_mask 3 2) 6)

let qcheck_masks =
  let extreme = QCheck2.Gen.(oneof [ oneofl [ min_int; max_int; 0; -1; 1 ]; int ]) in
  QCheck2.Test.make ~name:"truth masks decode to the predicates' truths" ~count:1000
    ~print:QCheck2.Print.(triple int int bool)
    QCheck2.Gen.(triple extreme extreme bool)
    (fun (x, y, c) ->
      decode (Site.sextet_mask x y) 6 = [| x < y; x <= y; x > y; x >= y; x = y; x <> y |]
      && Site.sextet_mask x y < 64
      && decode (Site.branch_mask c) 2 = [| c; not c |]
      && Site.branch_mask c < 4)

let test_disabled_schemes () =
  let config =
    {
      Transform.default_config with
      Transform.enable_branches = false;
      enable_returns = false;
      enable_pairs = false;
    }
  in
  let t = instr ~config "int f() { return 1; } int main() { int x = f(); if (x > 0) { } return x; }" in
  Alcotest.(check int) "no sites at all" 0 (Transform.num_sites t)

(* --- observation semantics with full sampling --- *)

let observe_run ?config src =
  let t = instr ?config src in
  let truths = Hashtbl.create 64 in
  let hooks =
    Observe.hooks t
      ~visit:(fun _ -> true)
      ~record:(fun site mask ->
        let first = t.Transform.sites.(site).Site.first_pred in
        Array.iteri
          (fun i b -> if b then Hashtbl.replace truths (first + i) ())
          (decode mask t.Transform.sites.(site).Site.num_preds))
  in
  ignore (Interp.run t.Transform.prog { Interp.default_config with Interp.hooks });
  ( t,
    fun text ->
      let found = ref false in
      Array.iter
        (fun (p : Site.predicate) ->
          if p.Site.pred_text = text && Hashtbl.mem truths p.Site.pred_id then found := true)
        t.Transform.preds;
      !found )

let test_observe_branches () =
  let _, true_pred = observe_run "int main() { int x = 5; if (x > 3) { } if (x > 9) { } return x; }" in
  Alcotest.(check bool) "x > 3 TRUE observed" true (true_pred "x > 3 is TRUE");
  Alcotest.(check bool) "x > 3 FALSE not observed" false (true_pred "x > 3 is FALSE");
  Alcotest.(check bool) "x > 9 FALSE observed" true (true_pred "x > 9 is FALSE");
  Alcotest.(check bool) "x > 9 TRUE not observed" false (true_pred "x > 9 is TRUE")

let test_observe_returns () =
  let _, true_pred =
    observe_run "int f() { return -4; } int main() { int x = f(); return 0; }"
  in
  Alcotest.(check bool) "f() < 0" true (true_pred "f() < 0");
  Alcotest.(check bool) "f() <= 0" true (true_pred "f() <= 0");
  Alcotest.(check bool) "f() != 0" true (true_pred "f() != 0");
  Alcotest.(check bool) "not f() > 0" false (true_pred "f() > 0");
  Alcotest.(check bool) "not f() == 0" false (true_pred "f() == 0")

let test_observe_pairs () =
  let config =
    { Transform.default_config with Transform.max_consts_per_func = 0; pairs_include_globals = false }
  in
  let _, true_pred =
    observe_run ~config "int main() { int a = 3; int b = 7; b = 2; return a + b; }"
  in
  (* decl b = 7: b > a; reassign b = 2: b < a and new < old *)
  Alcotest.(check bool) "b > a at decl" true (true_pred "b > a");
  Alcotest.(check bool) "b < a after reassign" true (true_pred "b < a");
  Alcotest.(check bool) "new < old" true (true_pred "new value of b < old value of b");
  Alcotest.(check bool) "never b == a" false (true_pred "b == a")

let test_observe_old_value_skipped_on_decl () =
  let config =
    { Transform.default_config with Transform.max_consts_per_func = 0; pairs_include_globals = false }
  in
  let t, _ = observe_run ~config "int main() { int a = 1; return a; }" in
  let olds =
    List.filter (fun (s : Site.t) -> s.Site.partner = Some Site.P_old)
      (Array.to_list t.Transform.sites)
  in
  Alcotest.(check int) "no old-value site for declarations" 0 (List.length olds)

let test_shortcircuit_sites () =
  let t = instr "int main() { int a = 1; int b = 2; if (a > 0 && b > 0 || a > 9) { } return a; }" in
  (* 1 statement site for the if, plus operand sites: (a>0), (b>0),
     (a>0 && b>0), (a>9) *)
  Alcotest.(check int) "5 branch sites" 5 (List.length (sites_by_scheme t Site.Branches));
  let disabled =
    instr
      ~config:{ Transform.default_config with Transform.shortcircuit_operands = false }
      "int main() { int a = 1; if (a > 0 && a < 9) { } return a; }"
  in
  Alcotest.(check int) "flag disables operand sites" 1
    (List.length (sites_by_scheme disabled Site.Branches))

let test_shortcircuit_observation () =
  (* a > 0 is false: the && must observe only the left operand *)
  let _, true_pred =
    observe_run "int main() { int a = -1; int b = 2; if (a > 0 && b > 0) { } return a; }"
  in
  Alcotest.(check bool) "left operand FALSE observed" true (true_pred "a > 0 is FALSE");
  Alcotest.(check bool) "right operand never observed true" false (true_pred "b > 0 is TRUE");
  Alcotest.(check bool) "right operand never observed false" false (true_pred "b > 0 is FALSE");
  (* both evaluated when left is true *)
  let _, true_pred2 =
    observe_run "int main() { int a = 1; int b = -2; if (a > 0 && b > 0) { } return a; }"
  in
  Alcotest.(check bool) "left TRUE" true (true_pred2 "a > 0 is TRUE");
  Alcotest.(check bool) "right FALSE" true (true_pred2 "b > 0 is FALSE")

(* --- sampler --- *)

let test_sampler_always () =
  let s = Sampler.create ~nsites:3 Sampler.Always in
  for site = 0 to 2 do
    for _ = 1 to 50 do
      Alcotest.(check bool) "always samples" true (Sampler.should_sample s site)
    done
  done

let test_sampler_never () =
  let s = Sampler.create ~nsites:2 (Sampler.Per_site [| 0.; 1. |]) in
  for _ = 1 to 100 do
    Alcotest.(check bool) "rate 0 never samples" false (Sampler.should_sample s 0)
  done;
  Alcotest.(check bool) "rate 1 samples" true (Sampler.should_sample s 1)

let test_sampler_rate () =
  let s = Sampler.create ~seed:7 ~nsites:1 (Sampler.Uniform 0.05) in
  let hits = ref 0 in
  let n = 200_000 in
  for _ = 1 to n do
    if Sampler.should_sample s 0 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical rate %.4f near 0.05" rate)
    true
    (abs_float (rate -. 0.05) < 0.005)

let test_sampler_begin_run_reseeds () =
  let s = Sampler.create ~seed:3 ~nsites:1 (Sampler.Uniform 0.5) in
  let seq1 = List.init 20 (fun _ -> Sampler.should_sample s 0) in
  Sampler.begin_run s;
  let seq2 = List.init 20 (fun _ -> Sampler.should_sample s 0) in
  (* begin_run re-draws countdowns; sequences are (almost surely) different,
     but both contain samples *)
  Alcotest.(check bool) "some samples in both" true
    (List.mem true seq1 && List.mem true seq2)

let test_plan_rate () =
  Alcotest.(check (float 1e-9)) "always" 1. (Sampler.plan_rate Sampler.Always 5);
  Alcotest.(check (float 1e-9)) "uniform" 0.25 (Sampler.plan_rate (Sampler.Uniform 0.25) 0);
  Alcotest.(check (float 1e-9)) "per-site present" 0.5
    (Sampler.plan_rate (Sampler.Per_site [| 0.5 |]) 0);
  Alcotest.(check (float 1e-9)) "per-site out of range" 0.
    (Sampler.plan_rate (Sampler.Per_site [| 0.5 |]) 3)

(* --- adaptive rates --- *)

let test_adaptive_formula () =
  let rates =
    Adaptive.rates_of_counts ~target:100 ~min_rate:0.01 ~runs:10
      ~visits:[| 0; 500; 10_000; 1_000_000; 1_000 |] ()
  in
  Alcotest.(check (float 1e-9)) "unvisited -> 1.0" 1.0 rates.(0);
  Alcotest.(check (float 1e-9)) "50 per run -> 1.0 (fewer than target)" 1.0 rates.(1);
  Alcotest.(check (float 1e-9)) "1000 per run -> 0.1" 0.1 rates.(2);
  Alcotest.(check (float 1e-9)) "100k per run -> clamped to 0.01" 0.01 rates.(3);
  Alcotest.(check (float 1e-9)) "exactly target -> 1.0" 1.0 rates.(4)

let test_adaptive_count_visits () =
  let t = instr "int main() { for (int i = 0; i < 10; i = i + 1) { } return 0; }" in
  let visits =
    Adaptive.count_visits t ~ntrain:3 ~run:(fun hooks ->
        Interp.run t.Transform.prog { Interp.default_config with Interp.hooks })
  in
  (* the for-loop branch site is visited 11 times per run, 3 runs *)
  let branch_site =
    (List.hd (sites_by_scheme t Site.Branches)).Site.site_id
  in
  Alcotest.(check int) "33 visits of the loop test" 33 visits.(branch_site)

let suite =
  [
    Alcotest.test_case "branch sites" `Quick test_branch_sites;
    Alcotest.test_case "returns sites" `Quick test_returns_sites;
    Alcotest.test_case "scalar-pairs partners" `Quick test_pairs_partners;
    Alcotest.test_case "pairs exclude self and shadowed" `Quick test_pairs_exclude_self_and_shadowing;
    Alcotest.test_case "pairs respect scope exit" `Quick test_pairs_scope_exit;
    Alcotest.test_case "constant pool capping" `Quick test_const_pool;
    Alcotest.test_case "predicate ids dense" `Quick test_pred_ids_dense;
    Alcotest.test_case "predicate texts" `Quick test_predicate_texts;
    Alcotest.test_case "truth vectors" `Quick test_eval_vectors;
    Alcotest.test_case "disabled schemes yield no sites" `Quick test_disabled_schemes;
    Alcotest.test_case "observe branches" `Quick test_observe_branches;
    Alcotest.test_case "observe returns" `Quick test_observe_returns;
    Alcotest.test_case "observe scalar pairs" `Quick test_observe_pairs;
    Alcotest.test_case "no old-value partner on declarations" `Quick test_observe_old_value_skipped_on_decl;
    Alcotest.test_case "short-circuit operand sites" `Quick test_shortcircuit_sites;
    Alcotest.test_case "short-circuit observation" `Quick test_shortcircuit_observation;
    Alcotest.test_case "sampler Always" `Quick test_sampler_always;
    Alcotest.test_case "sampler rate 0 and 1" `Quick test_sampler_never;
    Alcotest.test_case "sampler empirical rate" `Slow test_sampler_rate;
    Alcotest.test_case "sampler begin_run" `Quick test_sampler_begin_run_reseeds;
    Alcotest.test_case "plan rates" `Quick test_plan_rate;
    Alcotest.test_case "adaptive rate formula" `Quick test_adaptive_formula;
    Alcotest.test_case "adaptive visit counting" `Quick test_adaptive_count_visits;
    QCheck_alcotest.to_alcotest qcheck_masks;
  ]
