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

(* The observation accumulator, one per domain and reused across its
   runs.  Each run takes the next stamp; a site's mask, and the counts of
   the predicates set in it, belong to the current run only while the
   site's stamp is the run's, so nothing is cleared between runs. *)
type accum = {
  mutable stamp : int;
  mutable busy : bool;  (* a run of this domain is recording into it *)
  mutable site_stamp : int array;
  mutable site_mask : int array;  (* OR of the run's truth masks at the site *)
  mutable pred_count : int array;  (* observed-true count, valid for the mask's bits *)
  mutable nobserved : int;  (* sites the run has observed *)
}

let empty_accum () =
  { stamp = 0; busy = false; site_stamp = [||]; site_mask = [||]; pred_count = [||]; nobserved = 0 }

let accum_key = Domain.DLS.new_key empty_accum

(* The domain's accumulator, sized for [t] and stamped for a new run.  A
   run that starts while another of this domain's is recording (another
   systhread) gets a private one. *)
let begin_accum t =
  let shared = Domain.DLS.get accum_key in
  let acc = if shared.busy then empty_accum () else shared in
  let nsites = Transform.num_sites t and npreds = Transform.num_preds t in
  if Array.length acc.site_stamp < nsites then begin
    acc.site_stamp <- Array.make nsites 0;
    acc.site_mask <- Array.make nsites 0
  end;
  if Array.length acc.pred_count < npreds then acc.pred_count <- Array.make npreds 0;
  acc.busy <- true;
  acc.stamp <- acc.stamp + 1;
  acc.nobserved <- 0;
  acc

let record acc (sites : Site.t array) site mask =
  let old =
    if acc.site_stamp.(site) = acc.stamp then acc.site_mask.(site)
    else begin
      acc.site_stamp.(site) <- acc.stamp;
      acc.nobserved <- acc.nobserved + 1;
      0
    end
  in
  acc.site_mask.(site) <- old lor mask;
  (* a predicate's count starts at 1 when its bit joins the site's mask *)
  let p = ref sites.(site).Site.first_pred and m = ref mask and o = ref old in
  while !m <> 0 do
    if !m land 1 <> 0 then
      acc.pred_count.(!p) <- (if !o land 1 <> 0 then acc.pred_count.(!p) + 1 else 1);
    incr p;
    m := !m lsr 1;
    o := !o lsr 1
  done

let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1))

(* The run's observed sites, true predicates and their counts, each
   ascending.  Scanning the stamps lists the observed sites in order, and
   a site's predicates have consecutive ids in site order, so reading
   each observed site's mask bits in order emits ascending ids. *)
let end_accum acc (sites : Site.t array) =
  let observed = Array.make acc.nobserved 0 and k = ref 0 and ntrue = ref 0 in
  for s = 0 to Array.length sites - 1 do
    if acc.site_stamp.(s) = acc.stamp then begin
      observed.(!k) <- s;
      incr k;
      ntrue := !ntrue + popcount acc.site_mask.(s)
    end
  done;
  let preds = Array.make !ntrue 0 and counts = Array.make !ntrue 0 in
  k := 0;
  Array.iter
    (fun s ->
      let p = ref sites.(s).Site.first_pred and m = ref acc.site_mask.(s) in
      while !m <> 0 do
        if !m land 1 <> 0 then begin
          preds.(!k) <- !p;
          counts.(!k) <- acc.pred_count.(!p);
          incr k
        end;
        incr p;
        m := !m lsr 1
      done)
    observed;
  acc.busy <- false;
  (observed, preds, counts)

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
  (* the caller's input generator runs before the domain's accumulator is
     taken: one that raises must not leave it busy *)
  let args = spec.gen_input run_index in
  let acc = begin_accum t in
  Sampler.begin_run sampler;
  let hooks =
    Observe.hooks t ~visit:(Sampler.should_sample sampler) ~record:(record acc sites)
  in
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
  let observed_sites, true_preds, true_counts = end_accum acc sites in
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
  let report =
    {
      Report.run_id = run_index;
      outcome;
      observed_sites;
      true_preds;
      true_counts;
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
