open Sbi_instrument
open Sbi_lang

type spec = {
  transform : Transform.t;
  plan : Sampler.plan;
  gen_input : int -> string array;
  oracle : (run_index:int -> args:string array -> Interp.result -> bool) option;
  fuel : int;
  nondet_salt : int;
  compiled : Sbi_lang.Vm.program Lazy.t;
}

let make_spec ?oracle ?(fuel = 10_000_000) ?(nondet_salt = 0x7a11) ~transform ~plan ~gen_input
    () =
  {
    transform;
    plan;
    gen_input;
    oracle;
    fuel;
    nondet_salt;
    compiled = lazy (Sbi_lang.Vm.compile transform.Transform.prog);
  }

(* Per-run observation accumulator.  Stamp arrays avoid clearing
   site/predicate-sized buffers between runs. *)
type accum = {
  mutable stamp : int;
  site_stamp : int array;
  pred_stamp : int array;
  pred_count : int array;  (* observed-true count, valid when stamped *)
  mutable sites_rev : int list;
  mutable preds_rev : int list;
}

let make_accum ~nsites ~npreds =
  {
    stamp = 0;
    site_stamp = Array.make (max nsites 1) (-1);
    pred_stamp = Array.make (max npreds 1) (-1);
    pred_count = Array.make (max npreds 1) 0;
    sites_rev = [];
    preds_rev = [];
  }

let accum_begin acc stamp =
  acc.stamp <- stamp;
  acc.sites_rev <- [];
  acc.preds_rev <- []

let accum_site acc site =
  if acc.site_stamp.(site) <> acc.stamp then begin
    acc.site_stamp.(site) <- acc.stamp;
    acc.sites_rev <- site :: acc.sites_rev
  end

let accum_pred acc pred =
  if acc.pred_stamp.(pred) <> acc.stamp then begin
    acc.pred_stamp.(pred) <- acc.stamp;
    acc.pred_count.(pred) <- 1;
    acc.preds_rev <- pred :: acc.preds_rev
  end
  else acc.pred_count.(pred) <- acc.pred_count.(pred) + 1

let sorted_array_of_list l =
  let arr = Array.of_list l in
  Array.sort Int.compare arr;
  arr

let nondet_seed_of spec run_index = (spec.nondet_salt * 1_000_003) + run_index

(* splitmix64-style finalizer over (seed, run_index): neighbouring runs get
   statistically unrelated sampling streams, and the stream of run i depends
   only on (seed, i) — never on which runs were executed before it. *)
let run_seed ~seed ~run_index =
  let open Int64 in
  let z = add (of_int seed) (mul 0x9E3779B97F4A7C15L (of_int (run_index + 1))) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  to_int (shift_right_logical (logxor z (shift_right_logical z 31)) 1)

let run_one spec ~sampler ~run_index =
  let t = spec.transform in
  let sites = t.Transform.sites in
  let acc = make_accum ~nsites:(Transform.num_sites t) ~npreds:(Transform.num_preds t) in
  accum_begin acc run_index;
  Sampler.begin_run sampler;
  let record ~site ~truths =
    accum_site acc site;
    let first = sites.(site).Site.first_pred in
    Array.iteri (fun i b -> if b then accum_pred acc (first + i)) truths
  in
  let hooks = Observe.hooks t ~visit:(Sampler.should_sample sampler) ~record in
  let args = spec.gen_input run_index in
  let config =
    {
      Interp.args;
      fuel = spec.fuel;
      max_depth = 2000;
      nondet_seed = nondet_seed_of spec run_index;
      hooks;
    }
  in
  let result = Interp.run t.Transform.prog config in
  let failed_oracle =
    match (result.Interp.outcome, spec.oracle) with
    | Interp.Finished _, Some oracle -> oracle ~run_index ~args result
    | _ -> false
  in
  let outcome, crash_sig =
    match result.Interp.outcome with
    | Interp.Crashed c -> (Report.Failure, Some (Report.stack_signature c.Interp.stack))
    | Interp.Finished _ when failed_oracle -> (Report.Failure, None)
    | Interp.Finished _ -> (Report.Success, None)
  in
  let true_preds = sorted_array_of_list acc.preds_rev in
  let report =
    {
      Report.run_id = run_index;
      outcome;
      observed_sites = sorted_array_of_list acc.sites_rev;
      true_preds;
      true_counts = Array.map (fun p -> acc.pred_count.(p)) true_preds;
      bugs = Array.of_list result.Interp.bugs_triggered;
      crash_sig;
    }
  in
  (report, result)

let collect_reports ?(seed = 0xc0ffee) ?(first_run = 0) spec ~nruns =
  let t = spec.transform in
  let sampler = Sampler.create ~seed ~nsites:(Transform.num_sites t) spec.plan in
  Array.init nruns (fun i ->
      let run_index = first_run + i in
      Sampler.reseed sampler (run_seed ~seed ~run_index);
      let report, _ = run_one spec ~sampler ~run_index in
      report)

let collect ?seed ?first_run spec ~nruns =
  Dataset.create ~transform:spec.transform (collect_reports ?seed ?first_run spec ~nruns)

let run_uninstrumented spec ~run_index =
  let args = spec.gen_input run_index in
  let config =
    {
      Interp.args;
      fuel = spec.fuel;
      max_depth = 2000;
      nondet_seed = nondet_seed_of spec run_index;
      hooks = Interp.no_hooks;
    }
  in
  Interp.run spec.transform.Transform.prog config
