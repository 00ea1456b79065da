(* collect-analyze: the paper's offline experiment, in this process.

   Set-up is [Harness.prepare] (instrument the study, train the adaptive
   sampling plan), timed cold: once at the start of this process and then
   in fresh processes spread over the timed phase.  Each job then
   collects [job_runs] monitored runs with the trained plan on two
   domains into a shard log, builds and opens an index over it and runs
   the §5 elimination ([Triage.analyze]).  Jobs are independent, with
   seeds derived from the workload seed; each job's answer is checked
   against [Sbi_core.Analysis.analyze] on the same runs as soon as the
   job ends.  Latency is per job and the operation counted by ops_per_s
   is one monitored run. *)

open Sbi_index

let study = Sbi_corpus.Exifim.study
let job_runs ctx = if ctx.Ctx.tiny then 60 else 80
let setups ctx = if ctx.Ctx.tiny then 2 else 9

(* jobs per second of --seconds the fixed job count is sized for *)
let job_rate = 5.

let domains = 2
let tail_p = 75.
let probe_runs = 200

(* [Harness.prepare] with the harness seed [seed], timed. *)
let prepare ~seed =
  let config = { Sbi_experiments.Harness.default_config with Sbi_experiments.Harness.seed } in
  let t0 = Sbi_obs.Clock.now_ns () in
  let _, _, spec = Sbi_experiments.Harness.prepare ~config study in
  (spec, Ctx.secs_since t0)

(* One cold set-up in a fresh process of this program ([bench.exe
   prepare]), which has parsed, instrumented and trained nothing yet.
   Returns the seconds [Harness.prepare] took there. *)
let cold_prepare ~seed =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe [| exe; "prepare"; "--seed"; string_of_int seed |] in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, float_of_string_opt line) with
  | Unix.WEXITED 0, Some secs -> secs
  | _ -> failwith "collect-analyze: the set-up process failed"

type job = { idx_dir : string; traced : bool; ms : float }

(* One timed job, then its answer check against the reference engine on
   the same runs (read back from its log), outside the timed part.  The
   check runs at once so that no job's results stay in memory to swell
   the process's peak RSS. *)
let run_job (ctx : Ctx.t) (o : Outcome.t) spec j ~traced =
  let n = job_runs ctx in
  let dir = Ctx.path ctx [ Printf.sprintf "j%d" j ] in
  Procfs.fresh_dir dir;
  if j > 0 then Procfs.rm_rf (Ctx.path ctx [ Printf.sprintf "j%d" (j - 1) ]);
  let log = Filename.concat dir "log" and idx_dir = Filename.concat dir "idx" in
  Spans.on := traced;
  let t0 = Sbi_obs.Clock.now_ns () in
  let analysis =
    Spans.span ~req:j "job" (fun () ->
        let sp name f = Spans.span ~req:j name f in
        ignore
          (sp "collect.collect_to_log" (fun () ->
               Sbi_ingest.Par_collect.collect_to_log ~seed:(Sbi_runtime.Collect.run_seed ~seed:ctx.Ctx.seed ~run_index:(100 + j)) ~first_run:(j * n)
                 ~domains spec ~nruns:n ~dir:log));
        ignore (sp "index.build" (fun () -> Index.build ~log ~dir:idx_dir ()));
        let idx = sp "index.open" (fun () -> Index.open_ ~dir:idx_dir) in
        sp "triage.analyze" (fun () -> Triage.analyze idx))
  in
  let ms = Ctx.ms_since t0 in
  o.Outcome.attempted <- o.Outcome.attempted + n;
  let ds, _ = Sbi_ingest.Shard_log.read_all ~dir:log in
  let reference = Spans.span ~req:j "core.analyze" (fun () -> Sbi_core.Analysis.analyze ds) in
  Spans.on := false;
  if not (Expect.analysis_matches analysis reference) then begin
    o.Outcome.failed <- o.Outcome.failed + n;
    Outcome.fail o (Printf.sprintf "job %d: ranking or elimination differs from Analysis.analyze" j)
  end;
  { idx_dir; traced; ms }

(* Per-run engine timings over the first [probe_runs] inputs: the
   instrumented VM run collection makes, the same program on the VM with
   no observation, and the tree-walking interpreter with none. *)
let runtime_probes (o : Outcome.t) (spec : Sbi_runtime.Collect.spec) =
  let nsites = Sbi_instrument.Transform.num_sites spec.Sbi_runtime.Collect.transform in
  let sampler = Sbi_instrument.Sampler.create ~nsites spec.Sbi_runtime.Collect.plan in
  let bare_config run_index =
    {
      Sbi_lang.Interp.default_config with
      Sbi_lang.Interp.args = spec.Sbi_runtime.Collect.gen_input run_index;
      fuel = spec.Sbi_runtime.Collect.fuel;
      nondet_seed = (spec.Sbi_runtime.Collect.nondet_salt * 1_000_003) + run_index;
    }
  in
  let compiled = Lazy.force spec.Sbi_runtime.Collect.compiled in
  let per_run name f =
    let t0 = Sbi_obs.Clock.now_ns () in
    Spans.span name (fun () ->
        for i = 0 to probe_runs - 1 do
          f i
        done);
    Ctx.ms_since t0 *. 1000. /. float_of_int probe_runs
  in
  let run_us =
    per_run "runtime.run" (fun i ->
        Sbi_instrument.Sampler.reseed sampler (Sbi_runtime.Collect.run_seed ~seed:0 ~run_index:i);
        ignore (Sbi_runtime.Collect.run_one spec ~sampler ~run_index:i))
  in
  let bare_us = per_run "runtime.bare_run" (fun i -> ignore (Sbi_lang.Vm.run_compiled compiled (bare_config i))) in
  let tree_us = per_run "lang.treewalk_run" (fun i -> ignore (Sbi_runtime.Collect.run_uninstrumented spec ~run_index:i)) in
  Outcome.layer o "runtime.run_us" run_us;
  Outcome.layer o "runtime.bare_run_us" bare_us;
  Outcome.layer o "instrument.overhead" (run_us /. bare_us);
  Outcome.layer o "lang.treewalk_run_us" tree_us

let run (ctx : Ctx.t) (o : Outcome.t) =
  let seed = Sbi_runtime.Collect.run_seed ~seed:ctx.Ctx.seed ~run_index:1 in
  let spec, secs = prepare ~seed in
  o.Outcome.setups <- [ secs ];
  (* a fixed number of jobs, sized from --seconds at a nominal rate: the
     process's peak RSS still creeps up with the jobs it has run, so both
     sides of a comparison run the same number.  A traced run alternates
     untraced and traced jobs, twice as many.  The other set-ups fall
     between jobs at even steps, so that their median covers the phases
     of a host whose speed varies. *)
  let n_jobs = max 2 (int_of_float (job_rate *. ctx.Ctx.seconds)) * if ctx.Ctx.trace then 2 else 1 in
  let n_setups = setups ctx in
  let jobs =
    List.init n_jobs (fun j ->
        while List.length o.Outcome.setups < n_setups && j >= List.length o.Outcome.setups * n_jobs / n_setups do
          o.Outcome.setups <- cold_prepare ~seed :: o.Outcome.setups
        done;
        run_job ctx o spec j ~traced:(ctx.Ctx.trace && j mod 2 = 1))
  in
  (* the jobs of a run form one episode: a job is already a whole cold
     pipeline, and its latency is the sample *)
  List.iter
    (fun traced ->
      let mine = List.filter (fun jb -> jb.traced = traced) jobs in
      if mine <> [] then
        Outcome.episode o ~traced
          ~lat:(List.map (fun jb -> jb.ms) mine)
          ~ops:(float_of_int (List.length mine * job_runs ctx))
          ~busy:(List.fold_left (fun a jb -> a +. (jb.ms /. 1e3)) 0. mine))
    [ false; true ];
  o.Outcome.rss_mb <- [ Procfs.vm_hwm_mb 0 ];
  if ctx.Ctx.trace then begin
    (* only traced jobs recorded spans *)
    let all = Spans.all () in
    let med ?scale name = Spans.median_ms ?scale all name in
    let n = float_of_int (job_runs ctx) in
    Outcome.layer o "collect.runs_per_s" (n /. (med "collect.collect_to_log" /. 1e3));
    Outcome.layer o "index.build_s" (med ~scale:1e-3 "index.build");
    Outcome.layer o "index.open_ms" (med "index.open");
    Outcome.layer o "triage.analyze_ms" (med "triage.analyze");
    Outcome.layer o "core.analyze_ms" (med "core.analyze");
    Outcome.layer o "instrument.prepare_s" (Sbi_util.Stats.median (Array.of_list o.Outcome.setups));
    (* the last job again: a cold analysis of a fresh open against a warm
       one on the same handle isolates the posting loads *)
    let last = List.nth jobs (List.length jobs - 1) in
    let idx = Index.open_ ~dir:last.idx_dir in
    let t0 = Sbi_obs.Clock.now_ns () in
    ignore (Triage.analyze idx);
    let cold = Ctx.ms_since t0 in
    let t0 = Sbi_obs.Clock.now_ns () in
    ignore (Triage.analyze idx);
    Outcome.layer o "store.posting_load_ms" (Float.max 0. (cold -. Ctx.ms_since t0));
    Ctx.cache_layers o idx;
    Outcome.layer o "index.segments" (float_of_int (Array.length idx.Index.segments));
    Outcome.layer o "index.bytes_per_run" (float_of_int (Procfs.dir_bytes last.idx_dir) /. n);
    runtime_probes o spec;
    Outcome.layer o "trace.overhead" (Outcome.trace_overhead o)
  end
