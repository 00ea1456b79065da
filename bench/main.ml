(* Benchmark harness: one Bechamel benchmark per paper table (the analysis
   step that regenerates the table from collected feedback reports), plus
   micro-benchmarks of the statistical core and the collection runtime.

   After timing, the harness prints each regenerated table so a single
   `dune exec bench/main.exe` both measures and reproduces the paper's
   results (at reduced run counts; use bin/cbi.exe --runs 32000 for
   paper-scale populations). *)

open Bechamel
open Toolkit
open Sbi_experiments

let bench_runs =
  match Sys.getenv_opt "SBI_BENCH_RUNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 300)
  | None -> 300

let bench_train =
  match Sys.getenv_opt "SBI_BENCH_TRAIN" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 80)
  | None -> 80

let config =
  { Harness.seed = 42; nruns = Some bench_runs; sampling = Harness.Adaptive bench_train }

(* Wall-clock timing for the one-shot entries (those a Bechamel quota
   cannot sample often enough). *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median samples =
  let a = Array.copy samples in
  Array.sort compare a;
  a.(Array.length a / 2)

(* --- one-time setup: collect every study's bundle --- *)

let bundles =
  lazy
    (List.map
       (fun study ->
         Printf.eprintf "[bench] collecting %s (%d runs)...\n%!"
           study.Sbi_corpus.Study.name bench_runs;
         (study.Sbi_corpus.Study.name, Harness.collect_study ~config study))
       Sbi_corpus.Corpus.all)

let bundle name = List.assoc name (Lazy.force bundles)
let moss () = bundle "mossim"

let all_rows () =
  List.map (fun (_, b) -> (b, Harness.analyze b)) (Lazy.force bundles)

(* --- per-table benchmarks --- *)

let table_tests () =
  let moss = moss () in
  let rows = all_rows () in
  [
    Test.make ~name:"table1:ranking-strategies" (Staged.stage (fun () -> Table1.render ~top:8 moss));
    Test.make ~name:"table2:summary-statistics" (Staged.stage (fun () -> Table2.render rows));
    Test.make ~name:"table3:moss-elimination" (Staged.stage (fun () -> Table3.render moss));
    Test.make ~name:"table4:ccrypt-predictors"
      (Staged.stage (fun () ->
           Predictor_table.render ~title:"Table 4" (bundle "ccryptim")));
    Test.make ~name:"table5:bc-predictors"
      (Staged.stage (fun () -> Predictor_table.render ~title:"Table 5" (bundle "bcim")));
    Test.make ~name:"table6:exif-predictors"
      (Staged.stage (fun () -> Predictor_table.render ~title:"Table 6" (bundle "exifim")));
    Test.make ~name:"table7:rhythmbox-predictors"
      (Staged.stage (fun () -> Predictor_table.render ~title:"Table 7" (bundle "rhythmim")));
    Test.make ~name:"table8:runs-needed" (Staged.stage (fun () -> Table8.render rows));
    Test.make ~name:"table9:logistic-regression" (Staged.stage (fun () -> Table9.render moss));
    Test.make ~name:"ablation:discard-proposals" (Staged.stage (fun () -> Ablation.render moss));
    Test.make ~name:"stack-study" (Staged.stage (fun () -> Stack_study.render rows));
  ]

(* --- statistical-core micro-benchmarks --- *)

let core_tests () =
  let moss = moss () in
  let ds = moss.Harness.dataset in
  let counts = Sbi_core.Counts.compute ds in
  let retained = Sbi_core.Prune.retained counts in
  let selected = match retained with p :: _ -> p | [] -> 0 in
  [
    Test.make ~name:"core:counts" (Staged.stage (fun () -> Sbi_core.Counts.compute ds));
    Test.make ~name:"core:score-all" (Staged.stage (fun () -> Sbi_core.Scores.score_all counts));
    Test.make ~name:"core:prune" (Staged.stage (fun () -> Sbi_core.Prune.retained counts));
    Test.make ~name:"core:eliminate"
      (Staged.stage (fun () -> Sbi_core.Eliminate.run ~candidates:retained ds));
    Test.make ~name:"core:affinity"
      (Staged.stage (fun () -> Sbi_core.Affinity.list ds ~selected ~others:retained));
    Test.make ~name:"core:logreg-train" (Staged.stage (fun () -> Sbi_logreg.Logreg.train ds));
  ]

(* --- runtime micro-benchmarks --- *)

let runtime_tests () =
  let study = Sbi_corpus.Corpus.mossim in
  let moss = moss () in
  let t = moss.Harness.transform in
  let spec_sampled =
    Sbi_runtime.Collect.make_spec ~transform:t ~plan:moss.Harness.plan
      ~gen_input:(fun run -> study.Sbi_corpus.Study.gen_input ~seed:1 ~run)
      ()
  in
  let spec_full =
    Sbi_runtime.Collect.make_spec ~transform:t ~plan:Sbi_instrument.Sampler.Always
      ~gen_input:(fun run -> study.Sbi_corpus.Study.gen_input ~seed:1 ~run)
      ()
  in
  let sampler =
    Sbi_instrument.Sampler.create ~nsites:(Sbi_instrument.Transform.num_sites t)
      moss.Harness.plan
  in
  let counter = ref 0 in
  let next () =
    incr counter;
    !counter
  in
  (* exifim, the study perfbench's collect-analyze collects: a bare and an
     instrumented run, each with its minor words per run, which (unlike
     the timings) are deterministic *)
  let exif = bundle "exifim" in
  let exif_spec =
    Sbi_runtime.Collect.make_spec ~transform:exif.Harness.transform ~plan:exif.Harness.plan
      ~gen_input:(fun run -> Sbi_corpus.Exifim.study.Sbi_corpus.Study.gen_input ~seed:1 ~run)
      ()
  in
  let exif_sampler =
    Sbi_instrument.Sampler.create
      ~nsites:(Sbi_instrument.Transform.num_sites exif.Harness.transform)
      exif.Harness.plan
  in
  let exif_runs =
    [
      ( "run:exifim-uninstrumented",
        fun run_index -> ignore (Sbi_runtime.Collect.run_uninstrumented exif_spec ~run_index) );
      ( "run:exifim-sampled-nonuniform",
        fun run_index ->
          ignore (Sbi_runtime.Collect.run_one exif_spec ~sampler:exif_sampler ~run_index) );
    ]
  in
  List.iter
    (fun (name, run) ->
      let w0 = Gc.minor_words () in
      for i = 0 to 99 do
        run i
      done;
      Printf.printf "%s: %.0f minor words/run (runs 0-99)\n%!" name
        ((Gc.minor_words () -. w0) /. 100.))
    exif_runs;
  let exif_tests =
    List.map
      (fun (name, run) -> Test.make ~name (Staged.stage (fun () -> run (next () mod 1000))))
      exif_runs
  in
  exif_tests @ [
    Test.make ~name:"run:uninstrumented"
      (Staged.stage (fun () ->
           Sbi_runtime.Collect.run_uninstrumented spec_sampled ~run_index:(next () mod 1000)));
    Test.make ~name:"run:sampled-nonuniform"
      (Staged.stage (fun () ->
           Sbi_runtime.Collect.run_one spec_sampled ~sampler ~run_index:(next () mod 1000)));
    Test.make ~name:"run:fully-observed"
      (Staged.stage (fun () ->
           Sbi_runtime.Collect.run_one spec_full ~sampler ~run_index:(next () mod 1000)));
    Test.make ~name:"sampler:coin-flip"
      (Staged.stage (fun () ->
           for site = 0 to 99 do
             ignore (Sbi_instrument.Sampler.should_sample sampler site)
           done));
  ]

(* --- ingestion-pipeline micro-benchmarks --- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A temporary directory that lives until the process exits: for the
   inputs of bechamel tests, which run long after their builder returns. *)
let temp_dir_until_exit suffix =
  let dir = Filename.temp_dir "sbi_bench" suffix in
  at_exit (fun () -> try rm_rf dir with Sys_error _ -> ());
  dir

let with_temp_log f =
  let dir = Filename.temp_file "sbi_bench_log" "" in
  Sys.remove dir;
  let r = f dir in
  if Sys.file_exists dir then begin
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Sys.rmdir dir
  end;
  r

let ingest_tests () =
  let moss = moss () in
  let ds = moss.Harness.dataset in
  let encoded = Array.map Sbi_ingest.Codec.encode ds.Sbi_runtime.Dataset.runs in
  let log_dir = temp_dir_until_exit ".log" in
  ignore (Sbi_ingest.Shard_log.write_dataset ~dir:log_dir ~shards:4 ds);
  [
    Test.make ~name:"codec:encode-corpus"
      (Staged.stage (fun () -> Array.map Sbi_ingest.Codec.encode ds.Sbi_runtime.Dataset.runs));
    Test.make ~name:"codec:decode-corpus"
      (Staged.stage (fun () -> Array.map Sbi_ingest.Codec.decode encoded));
    Test.make ~name:"ingest:write-shard-log"
      (Staged.stage (fun () ->
           with_temp_log (fun dir -> Sbi_ingest.Shard_log.write_dataset ~dir ~shards:4 ds)));
    Test.make ~name:"ingest:stream-aggregate"
      (Staged.stage (fun () -> Sbi_ingest.Aggregator.of_log ~dir:log_dir));
    Test.make ~name:"ingest:read-all"
      (Staged.stage (fun () -> Sbi_ingest.Shard_log.read_all ~dir:log_dir));
  ]

(* --- predicate-index micro-benchmarks --- *)

(* The bench's predicate index: the mossim bundle in a 4-shard log,
   built into 4 segments and opened once, so the Bechamel index entries
   and the one-shot elimination medians share one warm posting cache. *)
let moss_index =
  lazy
    (let log_dir = temp_dir_until_exit ".log" in
     ignore (Sbi_ingest.Shard_log.write_dataset ~dir:log_dir ~shards:4 (moss ()).Harness.dataset);
     let idx_dir = temp_dir_until_exit ".idx" in
     Array.iter (fun n -> Sys.remove (Filename.concat idx_dir n)) (Sys.readdir idx_dir);
     ignore (Sbi_index.Index.build ~log:log_dir ~dir:idx_dir ());
     (idx_dir, Sbi_index.Index.open_ ~dir:idx_dir))

let index_tests () =
  let ds = (moss ()).Harness.dataset in
  let idx_dir, idx = Lazy.force moss_index in
  let counts = Sbi_core.Counts.compute ds in
  let retained = Sbi_core.Prune.retained counts in
  let selected = match retained with p :: _ -> p | [] -> 0 in
  let other = match retained with _ :: p :: _ -> p | _ -> selected in
  (* the naive co-occurrence rescan the posting-list intersection replaces *)
  let cooccur_rescan () =
    Array.fold_left
      (fun acc r ->
        if Sbi_runtime.Report.is_true r selected && Sbi_runtime.Report.is_true r other then
          acc + 1
        else acc)
      0 ds.Sbi_runtime.Dataset.runs
  in
  [
    Test.make ~name:"index:open" (Staged.stage (fun () -> Sbi_index.Index.open_ ~dir:idx_dir));
    Test.make ~name:"index:counts-merge" (Staged.stage (fun () -> Sbi_index.Triage.counts idx));
    Test.make ~name:"index:topk" (Staged.stage (fun () -> Sbi_index.Triage.topk ~k:10 idx));
    Test.make ~name:"index:pred-detail"
      (Staged.stage (fun () -> Sbi_index.Triage.pred_detail idx ~pred:selected));
    Test.make ~name:"index:affinity"
      (Staged.stage (fun () -> Sbi_index.Triage.affinity idx ~selected ~others:retained));
    Test.make ~name:"index:cooccur-postings"
      (Staged.stage (fun () -> Sbi_index.Triage.cooccurrence idx ~a:selected ~b:other));
    Test.make ~name:"index:cooccur-rescan" (Staged.stage cooccur_rescan);
  ]

(* §5 elimination with default candidates under each discard proposal,
   on the warm bench index.  One proposal-2 call outlasts a Bechamel
   quota, so each proposal is a one-shot median of [eliminate_calls]
   calls after a warm-up call, like index:topk-after-append. *)
let eliminate_calls = 7

let eliminate_medians () =
  let _, idx = Lazy.force moss_index in
  List.map
    (fun (name, discard) ->
      let call () = Sbi_index.Triage.eliminate ~discard idx in
      ignore (call ());
      let dt = median (Array.init eliminate_calls (fun _ -> snd (time call))) in
      Printf.printf "index eliminate %s (%d segments, median of %d calls): %.1f ms\n" name
        (Array.length idx.Sbi_index.Index.segments) eliminate_calls (dt *. 1e3);
      ("index:eliminate:" ^ name, dt *. 1e9))
    [
      ("p1", Sbi_core.Eliminate.Discard_all_true);
      ("p2", Sbi_core.Eliminate.Discard_failing_true);
      ("p3", Sbi_core.Eliminate.Relabel_failing);
    ]

(* Parallel vs. sequential collection is a one-shot wall-clock comparison
   (a bechamel quota would re-collect the corpus dozens of times). *)
let print_collection_scaling () =
  let study = Sbi_corpus.Corpus.mossim in
  let moss = moss () in
  let spec =
    Sbi_runtime.Collect.make_spec ~transform:moss.Harness.transform ~plan:moss.Harness.plan
      ~gen_input:(fun run -> study.Sbi_corpus.Study.gen_input ~seed:1 ~run)
      ()
  in
  let nruns = bench_runs in
  let seq, seq_dt = time (fun () -> Sbi_runtime.Collect.collect ~seed:7 spec ~nruns) in
  let domains = Sbi_ingest.Par_collect.default_domains () in
  let par, par_dt =
    time (fun () -> Sbi_ingest.Par_collect.collect ~seed:7 ~domains spec ~nruns)
  in
  let identical =
    Array.for_all2
      (fun (a : Sbi_runtime.Report.t) (b : Sbi_runtime.Report.t) -> a = b)
      seq.Sbi_runtime.Dataset.runs par.Sbi_runtime.Dataset.runs
  in
  Printf.printf
    "collection scaling (%d runs): sequential %.2fs (%.0f reports/s) | %d domain(s) %.2fs \
     (%.0f reports/s) | speedup %.2fx | identical datasets: %b\n"
    nruns seq_dt
    (float_of_int nruns /. Float.max seq_dt 1e-9)
    domains par_dt
    (float_of_int nruns /. Float.max par_dt 1e-9)
    (seq_dt /. Float.max par_dt 1e-9)
    identical

(* Index build throughput and indexed top-k vs. full-rescan streaming on a
   synthetic >= 10k-run corpus: one-shot wall-clock numbers (building the
   corpus inside a bechamel quota would dominate the measurement). *)

let synth_nruns =
  match Sys.getenv_opt "SBI_BENCH_INDEX_RUNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 10_000)
  | None -> 10_000

let synth_report st ~nsites ~npreds ~pred_site id =
  let obs_mask = Array.make nsites false in
  let obs = ref [] and preds = ref [] in
  for site = nsites - 1 downto 0 do
    if Random.State.float st 1.0 < 0.3 then begin
      obs_mask.(site) <- true;
      obs := site :: !obs
    end
  done;
  let observed = Array.of_list !obs in
  for p = npreds - 1 downto 0 do
    if obs_mask.(pred_site.(p)) && Random.State.float st 1.0 < 0.15 then preds := p :: !preds
  done;
  let true_preds = Array.of_list !preds in
  let buggy = Array.exists (fun p -> p = 17) true_preds in
  let failing =
    Random.State.float st 1.0 < if buggy then 0.9 else 0.03
  in
  {
    Sbi_runtime.Report.run_id = id;
    outcome = (if failing then Sbi_runtime.Report.Failure else Sbi_runtime.Report.Success);
    observed_sites = observed;
    true_preds;
    true_counts = Array.map (fun _ -> 1 + Random.State.int st 4) true_preds;
    bugs = (if buggy && failing then [| 0 |] else [||]);
    crash_sig = (if failing then Some "synth<crash" else None);
  }

(* Shared synthetic-corpus context: shard log + index + the raw reports
   (kept so the observability A/B can append them to a fresh log). *)
type synth_ctx = {
  sy_nruns : int;
  sy_shards : int;
  sy_log_dir : string;
  sy_idx_dir : string;
  sy_reports : Sbi_runtime.Report.t array;
  sy_meta : Sbi_runtime.Dataset.t;
  sy_build_dt : float;
  sy_build_stats : Sbi_index.Index.build_stats;
}

let connect_exn addr =
  match Sbi_serve.Client.connect addr with
  | Ok c -> c
  | Error e -> failwith ("bench connect failed: " ^ e)

(* [with_synth_ctx ~nruns f] builds the corpus, runs [f] on it and then
   removes its log and index directories. *)
let with_synth_ctx ~nruns f =
  let nsites = 120 and npreds = 360 in
  let pred_site = Array.init npreds (fun p -> p / 3) in
  let meta = Sbi_runtime.Dataset.of_tables ~nsites ~npreds ~pred_site [||] in
  let st = Random.State.make [| 0x5b1 |] in
  let log_dir = Filename.temp_dir "sbi_bench" ".biglog" in
  let idx_dir = Filename.temp_dir "sbi_bench" ".bigidx" in
  Fun.protect
    ~finally:(fun () ->
      try
        rm_rf log_dir;
        rm_rf idx_dir
      with Sys_error _ -> ())
    (fun () ->
      Sbi_ingest.Shard_log.write_meta ~dir:log_dir meta;
      let shards = 4 in
      let writers =
        Array.init shards (fun shard -> Sbi_ingest.Shard_log.create_writer ~dir:log_dir ~shard ())
      in
      let reports = Array.init nruns (fun id -> synth_report st ~nsites ~npreds ~pred_site id) in
      Array.iteri (fun id r -> Sbi_ingest.Shard_log.append writers.(id mod shards) r) reports;
      Array.iter (fun w -> ignore (Sbi_ingest.Shard_log.close_writer w)) writers;
      let build_stats, build_dt =
        time (fun () -> Sbi_index.Index.build ~log:log_dir ~dir:idx_dir ())
      in
      f
        {
          sy_nruns = nruns;
          sy_shards = shards;
          sy_log_dir = log_dir;
          sy_idx_dir = idx_dir;
          sy_reports = reports;
          sy_meta = meta;
          sy_build_dt = build_dt;
          sy_build_stats = build_stats;
        })

let print_index_scaling ctx =
  Printf.printf
    "index build (%d runs, %d shards): %.2fs (%.0f reports/s, %d segments, %.1f MB consumed)\n"
    ctx.sy_nruns ctx.sy_shards ctx.sy_build_dt
    (float_of_int ctx.sy_build_stats.Sbi_index.Index.records_indexed
    /. Float.max ctx.sy_build_dt 1e-9)
    ctx.sy_build_stats.Sbi_index.Index.segments_added
    (float_of_int ctx.sy_build_stats.Sbi_index.Index.bytes_consumed /. 1e6);
  let log_dir = ctx.sy_log_dir and idx_dir = ctx.sy_idx_dir in
  let idx, open_dt = time (fun () -> Sbi_index.Index.open_ ~dir:idx_dir) in
  (* what `cbi analyze-file --stream` does: rescan every shard, then rank *)
  let rescan_once () =
    let agg, _, _ = Sbi_ingest.Aggregator.of_log ~dir:log_dir in
    let retained = Sbi_core.Prune.retained_scores (Sbi_ingest.Aggregator.to_counts agg) in
    Array.sort Sbi_core.Scores.compare_importance_desc retained;
    retained
  in
  let rescan, rescan_dt = time rescan_once in
  let iters = 25 in
  let indexed, indexed_dt =
    time (fun () ->
        let last = ref [] in
        for _ = 1 to iters do
          last := Sbi_index.Triage.topk ~k:10 idx
        done;
        !last)
  in
  let indexed_dt = indexed_dt /. float_of_int iters in
  let agree =
    List.for_all2
      (fun (a : Sbi_core.Scores.t) (b : Sbi_core.Scores.t) ->
        a.Sbi_core.Scores.pred = b.Sbi_core.Scores.pred)
      indexed
      (Array.to_list (Array.sub rescan 0 (min 10 (Array.length rescan))))
  in
  Printf.printf
    "top-k on %d runs: full rescan %.1f ms | indexed %.3f ms (+%.1f ms one-time open) | \
     speedup %.0fx | same ranking: %b\n"
    synth_nruns (rescan_dt *. 1e3) (indexed_dt *. 1e3) (open_dt *. 1e3)
    (rescan_dt /. Float.max indexed_dt 1e-9)
    agree;
  (* query latency through the server path: socket, framing, and locking *)
  let sock = Filename.temp_file "sbi_bench" ".sock" in
  Sys.remove sock;
  let config =
    { (Sbi_serve.Server.default_config (Sbi_serve.Wire.Unix_sock sock)) with
      Sbi_serve.Server.fsync = false }
  in
  let srv = Sbi_serve.Server.start config idx in
  let client = connect_exn (Sbi_serve.Wire.Unix_sock sock) in
  let nq = 200 in
  let lat = Array.make nq 0.0 in
  for i = 0 to nq - 1 do
    let t0 = Unix.gettimeofday () in
    (match Sbi_serve.Client.request client "topk 10" with
    | Ok _ -> ()
    | Error e -> failwith ("bench query failed: " ^ e));
    lat.(i) <- Unix.gettimeofday () -. t0
  done;
  Sbi_serve.Client.close client;
  Sbi_serve.Server.stop srv;
  Array.sort Float.compare lat;
  Printf.printf "query latency (topk 10 over unix socket, %d requests): p50 %.2f ms, p95 %.2f ms\n"
    nq
    (lat.(nq / 2) *. 1e3)
    (lat.(nq * 95 / 100) *. 1e3)

(* --- ingest:* section: single-RPC vs batched group-commit ingest ---

   Both servers run with fsync on over a fresh ingest log, so these
   numbers price the durability contract, not just the wire.  The
   single path pays one round trip plus one inline fsync per report;
   the batched path amortizes both — 64-report ingest-batch requests
   from 4 concurrent clients, every commit window covered by a single
   group fsync.  Every report is validated against the corpus meta and
   every ack checked, so a rejected report is a hard bench failure. *)

let ingest_singles = 300
let ingest_batch_clients = 4
let ingest_batch_size = 64
let ingest_batches_per_client = 24

let ingest_throughput ctx =
  let meta = ctx.sy_meta in
  let nsites = meta.Sbi_runtime.Dataset.nsites
  and npreds = meta.Sbi_runtime.Dataset.npreds
  and pred_site = meta.Sbi_runtime.Dataset.pred_site in
  (* fresh valid reports with run ids past the corpus, one disjoint id
     range per seed so concurrent clients never collide *)
  let fresh_reports ~seed ~base n =
    let st = Random.State.make [| 0x1679; seed |] in
    Array.init n (fun i -> synth_report st ~nsites ~npreds ~pred_site (base + i))
  in
  let with_ingest_server ~group_commit_ms ~max_batch f =
    let sock = Filename.temp_file "sbi_bench" ".sock" in
    Sys.remove sock;
    let log_dir = Filename.temp_dir "sbi_bench" ".inglog" in
    Sbi_ingest.Shard_log.write_meta ~dir:log_dir meta;
    let config =
      {
        (Sbi_serve.Server.default_config (Sbi_serve.Wire.Unix_sock sock)) with
        Sbi_serve.Server.fsync = true;
        ingest_log = Some log_dir;
        group_commit_ms;
        max_batch;
      }
    in
    let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
    let srv = Sbi_serve.Server.start config idx in
    Fun.protect
      ~finally:(fun () ->
        Sbi_serve.Server.stop srv;
        rm_rf log_dir)
      (fun () -> f (Sbi_serve.Wire.Unix_sock sock))
  in
  (* baseline: one client, one `ingest` RPC (and one inline fsync) per
     report — the only ingest path previous releases had *)
  let single_ns =
    with_ingest_server ~group_commit_ms:0. ~max_batch:512 (fun addr ->
        let reports = fresh_reports ~seed:0 ~base:ctx.sy_nruns ingest_singles in
        let client = connect_exn addr in
        let (), dt =
          time (fun () ->
              Array.iter
                (fun r ->
                  match
                    Sbi_serve.Client.request client
                      ("ingest " ^ Sbi_serve.B64.encode (Sbi_ingest.Codec.encode r))
                  with
                  | Ok _ -> ()
                  | Error e -> failwith ("bench ingest failed: " ^ e))
                reports)
        in
        Sbi_serve.Client.close client;
        dt *. 1e9 /. float_of_int ingest_singles)
  in
  (* batched: concurrent clients, 64-report ingest-batch requests, group
     commit windows covering every fsync *)
  let per_client = ingest_batches_per_client * ingest_batch_size in
  let batch_total = ingest_batch_clients * per_client in
  let batch_ns =
    with_ingest_server ~group_commit_ms:2.0 ~max_batch:256 (fun addr ->
        let chunks =
          Array.init ingest_batch_clients (fun w ->
              let reports =
                fresh_reports ~seed:(1 + w) ~base:(ctx.sy_nruns + (w * per_client)) per_client
              in
              Array.init ingest_batches_per_client (fun b ->
                  Array.to_list (Array.sub reports (b * ingest_batch_size) ingest_batch_size)))
        in
        let worker w =
          let client = connect_exn addr in
          Array.iter
            (fun chunk ->
              match Sbi_serve.Client.ingest_batch client chunk with
              | Ok statuses ->
                  List.iter
                    (function
                      | Ok _ -> ()
                      | Error e -> failwith ("bench batch report rejected: " ^ e))
                    statuses
              | Error e -> failwith ("bench ingest-batch failed: " ^ e))
            chunks.(w);
          Sbi_serve.Client.close client
        in
        let (), dt =
          time (fun () ->
              let threads = Array.init ingest_batch_clients (fun w -> Thread.create worker w) in
              Array.iter Thread.join threads)
        in
        dt *. 1e9 /. float_of_int batch_total)
  in
  Printf.printf
    "ingest throughput (fsync on): single-RPC %.0f reports/s | batched group-commit %.0f \
     reports/s (%d clients x %d-report batches) | %.1fx\n"
    (1e9 /. single_ns) (1e9 /. batch_ns) ingest_batch_clients ingest_batch_size
    (single_ns /. Float.max batch_ns 1e-9);
  [ ("ingest:single", single_ns); ("ingest:batch", batch_ns) ]

(* `bench/main.exe --ingest-check`: exit non-zero unless batched
   group-commit ingest beats the single-report RPC path by >= 10x at
   fsync=true — the payoff gate for the batched front end, wired to
   `make bench-check`.  One (single, batched) pair on a host whose speed
   drifts measured anywhere from 5.6x to 20.8x on unchanged code, so the
   gate runs [ingest_check_pairs] interleaved pairs and judges the
   median ratio. *)
let ingest_check_pairs = 5

let ingest_check () =
  Printf.printf
    "ingest-check: batched group-commit vs single-RPC ingest, fsync on, %d interleaved pairs\n%!"
    ingest_check_pairs;
  let ratios =
    with_synth_ctx ~nruns:2_000 (fun ctx ->
        Array.init ingest_check_pairs (fun i ->
            Printf.printf "pair %d/%d: %!" (i + 1) ingest_check_pairs;
            let entries = ingest_throughput ctx in
            List.assoc "ingest:single" entries /. Float.max (List.assoc "ingest:batch" entries) 1e-9))
  in
  let ratio = Sbi_util.Stats.median ratios in
  let lo = Array.fold_left Float.min infinity ratios
  and hi = Array.fold_left Float.max neg_infinity ratios in
  if ratio >= 10.0 then begin
    Printf.printf
      "ingest-check OK: batched ingest %.1fx the single-RPC path, median of %d pairs \
       (range %.1f-%.1fx; need >= 10x)\n"
      ratio ingest_check_pairs lo hi;
    exit 0
  end
  else begin
    Printf.eprintf
      "ingest-check FAILED: batched ingest only %.1fx the single-RPC path, median of %d pairs \
       (range %.1f-%.1fx; need >= 10x)\n"
      ratio ingest_check_pairs lo hi;
    exit 1
  end

(* --- connection-scale front end: the event-loop acceptor ---

   conn:single — one connection pushing deep ingest batches: the
   per-connection ceiling of the wire + group-commit path.
   conn:fleet — [clients] connections ALL connected before any traffic
   flows (a connect barrier, so the server really faces that many
   concurrent peers), each pushing shallow batches.  Amortized
   per-report time should stay close to the single-connection number:
   the event loop makes connection count cheap.  --conn-check gates
   this at 1000 clients with zero dropped accepts. *)

let conn_single_batches = 64
let conn_single_batch_size = 64
let conn_fleet_batches = 2
let conn_fleet_batch_size = 32

let conn_throughput ?(clients = 200) ctx =
  let meta = ctx.sy_meta in
  let nsites = meta.Sbi_runtime.Dataset.nsites
  and npreds = meta.Sbi_runtime.Dataset.npreds
  and pred_site = meta.Sbi_runtime.Dataset.pred_site in
  let fresh_reports ~seed ~base n =
    let st = Random.State.make [| 0x2b11; seed |] in
    Array.init n (fun i -> synth_report st ~nsites ~npreds ~pred_site (base + i))
  in
  (* room for two fds per connection plus runway; on a squeezed fd limit
     the fleet narrows instead of failing *)
  let soft0, hard = Sbi_serve.Evloop.nofile_limit () in
  let want = (2 * clients) + 512 in
  if soft0 <> -1 && soft0 < want && (hard = -1 || hard >= want) then
    ignore (Sbi_serve.Evloop.set_nofile_limit want);
  let soft, _ = Sbi_serve.Evloop.nofile_limit () in
  let clients = if soft = -1 || soft >= want then clients else max 8 ((soft - 512) / 2) in
  let with_conn_server f =
    let sock = Filename.temp_file "sbi_bench" ".sock" in
    Sys.remove sock;
    let log_dir = Filename.temp_dir "sbi_bench" ".connlog" in
    Sbi_ingest.Shard_log.write_meta ~dir:log_dir meta;
    let config =
      {
        (Sbi_serve.Server.default_config (Sbi_serve.Wire.Unix_sock sock)) with
        Sbi_serve.Server.fsync = true;
        ingest_log = Some log_dir;
        group_commit_ms = 2.0;
        max_batch = 256;
        acceptors = 2;
        max_conns = clients + 64;
      }
    in
    let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
    let srv = Sbi_serve.Server.start config idx in
    Fun.protect
      ~finally:(fun () ->
        Sbi_serve.Server.stop srv;
        rm_rf log_dir)
      (fun () -> f (Sbi_serve.Wire.Unix_sock sock))
  in
  let check_batch = function
    | Ok statuses ->
        List.iter
          (function
            | Ok _ -> () | Error e -> failwith ("conn bench report rejected: " ^ e))
          statuses
    | Error e -> failwith ("conn bench batch failed: " ^ e)
  in
  let single_total = conn_single_batches * conn_single_batch_size in
  let single_ns =
    with_conn_server (fun addr ->
        let reports =
          fresh_reports ~seed:0 ~base:(ctx.sy_nruns + 1_000_000) single_total
        in
        let client = connect_exn addr in
        let (), dt =
          time (fun () ->
              for b = 0 to conn_single_batches - 1 do
                let chunk =
                  Array.to_list
                    (Array.sub reports (b * conn_single_batch_size)
                       conn_single_batch_size)
                in
                check_batch (Sbi_serve.Client.ingest_batch client chunk)
              done)
        in
        Sbi_serve.Client.close client;
        dt *. 1e9 /. float_of_int single_total)
  in
  let per_client = conn_fleet_batches * conn_fleet_batch_size in
  let fleet_total = clients * per_client in
  let fleet_ns, dropped, fault_lines =
    with_conn_server (fun addr ->
        (* connect barrier over clients + the timing thread: traffic and
           the clock start only once the whole fleet is connected *)
        let bar_m = Mutex.create () and bar_cv = Condition.create () in
        let arrived = ref 0 in
        let parties = clients + 1 in
        let barrier () =
          Mutex.lock bar_m;
          incr arrived;
          if !arrived >= parties then Condition.broadcast bar_cv
          else
            while !arrived < parties do
              Condition.wait bar_cv bar_m
            done;
          Mutex.unlock bar_m
        in
        let failures = Atomic.make 0 in
        let worker w =
          match Sbi_serve.Client.connect addr with
          | Error _ ->
              Atomic.incr failures;
              barrier ()
          | Ok client ->
              barrier ();
              let reports =
                fresh_reports ~seed:(1 + w)
                  ~base:(ctx.sy_nruns + 2_000_000 + (w * per_client))
                  per_client
              in
              (try
                 for b = 0 to conn_fleet_batches - 1 do
                   let chunk =
                     Array.to_list
                       (Array.sub reports (b * conn_fleet_batch_size)
                          conn_fleet_batch_size)
                   in
                   match Sbi_serve.Client.ingest_batch client chunk with
                   | Ok statuses ->
                       List.iter
                         (function Ok _ -> () | Error _ -> Atomic.incr failures)
                         statuses
                   | Error _ -> Atomic.incr failures
                 done
               with _ -> Atomic.incr failures);
              Sbi_serve.Client.close client
        in
        let threads = Array.init clients (fun w -> Thread.create worker w) in
        let (), dt =
          time (fun () ->
              barrier ();
              Array.iter Thread.join threads)
        in
        (* a dropped accept or an admission rejection would show up here *)
        let faults =
          let prefixed p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p in
          let c = connect_exn addr in
          let lines =
            match Sbi_serve.Client.request c "stats" with
            | Ok (_, lines) ->
                List.filter
                  (fun l -> prefixed "fault.accept " l || prefixed "fault.overload " l)
                  lines
            | Error e -> [ "stats unavailable: " ^ e ]
          in
          Sbi_serve.Client.close c;
          lines
        in
        (dt *. 1e9 /. float_of_int fleet_total, Atomic.get failures, faults))
  in
  Printf.printf
    "conn front end (fsync on, group commit): single conn %.0f reports/s | %d-conn fleet \
     %.0f reports/s | fleet/single %.2fx | dropped %d%s\n"
    (1e9 /. single_ns) clients (1e9 /. fleet_ns)
    (single_ns /. Float.max fleet_ns 1e-9)
    dropped
    (match fault_lines with [] -> "" | ls -> " | " ^ String.concat ", " ls);
  ([ ("conn:single", single_ns); ("conn:fleet", fleet_ns) ], clients, dropped, fault_lines)

(* `bench/main.exe --conn-check`: exit non-zero unless 1000 concurrent
   connections are all served — zero dropped accepts, zero overload
   rejections — with batched throughput within 15% of a single
   connection.  The payoff gate for the event-loop acceptor, wired to
   `make bench-check`. *)
let conn_check () =
  Printf.printf "conn-check: 1000 concurrent connections vs one, batched ingest, fsync on\n%!";
  let entries, clients, dropped, fault_lines =
    with_synth_ctx ~nruns:2_000 (conn_throughput ~clients:1000)
  in
  let single = List.assoc "conn:single" entries
  and fleet = List.assoc "conn:fleet" entries in
  let ratio = single /. Float.max fleet 1e-9 in
  let ok = ref true in
  let gate what cond detail =
    if not cond then begin
      Printf.printf "  FAILED: %s (%s)\n%!" what detail;
      ok := false
    end
  in
  gate "fleet width" (clients >= 1000) (Printf.sprintf "%d clients (fd limit?)" clients);
  gate "zero dropped requests" (dropped = 0) (Printf.sprintf "%d failures" dropped);
  gate "zero accept faults / overload rejections" (fault_lines = [])
    (String.concat ", " fault_lines);
  gate "fleet throughput within 15% of single-connection" (ratio >= 0.85)
    (Printf.sprintf "%.2fx" ratio);
  if !ok then begin
    Printf.printf
      "conn-check OK: %d concurrent connections at %.2fx single-connection throughput, \
       nothing dropped\n"
      clients ratio;
    exit 0
  end
  else begin
    prerr_endline "conn-check FAILED: event-loop front end dropped or slowed connections";
    exit 1
  end

(* --- overhead gates ---

   --fault-check, --obs-check and --sbfl-check each time a base path
   against a variant that must cost at most [gate_pct] more, plus a
   [gate_floor_s] noise floor.  A timed loop repeats the path until it
   lasts at least [gate_loop_s], so the floor is at most 2% of what it
   guards.  One best-of-5 pair cannot resolve 2% on a host whose A/A
   pairs (base against base) spread by tens of percent, so the gate
   judges the median variant/base ratio of [gate_pairs] interleaved
   pairs, alternating which side runs first, and prints the median and
   interquartile spread of A/A pairs taken between them: the noise the
   verdict has to be read against. *)

let gate_pct = 2.0
let gate_floor_s = 2e-3
let gate_loop_s = 0.1
let gate_pairs = 11

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let (), dt = time f in
    if dt < !best then best := dt
  done;
  !best

(* One A/B comparison over loops of [calls] calls: median loop times,
   the median variant/base ratio, and the A/A ratios' median and
   interquartile range. *)
type ab = {
  ab_name : string;
  calls : int;
  base_s : float;
  variant_s : float;
  ratio : float;
  aa_ratio : float;
  aa_iqr : float;
}

let measure_ab ab_name ~base ~variant =
  let loop calls f () =
    for _ = 1 to calls do
      f ()
    done
  in
  (* calls per loop: raised until one base loop lasts 1.25 x
     [gate_loop_s], the margin keeping the pairs' loops above it *)
  base ();
  let want = 1.25 *. gate_loop_s in
  let rec calibrate calls =
    let (), dt = time (loop calls base) in
    if dt >= want then calls
    else
      calibrate
        (max (calls + 1)
           (int_of_float (Float.ceil (float_of_int calls *. 1.25 *. want /. Float.max dt 1e-6))))
  in
  let calls = calibrate 1 in
  (* pair [i]: (base loop, variant loop), the base first when [i] is even *)
  let pair i ~base ~variant =
    let tb () = snd (time (loop calls base)) and tv () = snd (time (loop calls variant)) in
    if i mod 2 = 0 then
      let b = tb () in
      (b, tv ())
    else
      let v = tv () in
      (tb (), v)
  in
  let ab = Array.make gate_pairs (0., 0.) and aa = Array.make gate_pairs 0. in
  for i = 0 to gate_pairs - 1 do
    ab.(i) <- pair i ~base ~variant;
    let a1, a2 = pair i ~base ~variant:base in
    aa.(i) <- a2 /. a1
  done;
  let med = Sbi_util.Stats.median and pct = Sbi_util.Stats.percentile in
  {
    ab_name;
    calls;
    base_s = med (Array.map fst ab);
    variant_s = med (Array.map snd ab);
    ratio = med (Array.map (fun (b, v) -> v /. b) ab);
    aa_ratio = med aa;
    aa_iqr = pct aa 75. -. pct aa 25.;
  }

(* The largest variant/base ratio the budget allows at this base time. *)
let budget_ratio ab = 1. +. (gate_pct /. 100.) +. (gate_floor_s /. Float.max ab.base_s 1e-9)

let print_ab ~base ~variant ab =
  Printf.printf
    "  %-18s %s %8.1f ms | %s %8.1f ms | median ratio %.4f (budget %.4f) | A/A median %.4f, \
     IQR %.4f | %d calls/loop\n"
    ab.ab_name base (ab.base_s *. 1e3) variant (ab.variant_s *. 1e3) ab.ratio (budget_ratio ab)
    ab.aa_ratio ab.aa_iqr ab.calls

(* Bench entries keep one call's time, whatever the loop length. *)
let per_call_ns ab =
  let per t = t *. 1e9 /. float_of_int ab.calls in
  (per ab.base_s, per ab.variant_s)

(* The gate itself: exit 0 iff every pair's median ratio is within
   [gate_pct] (+ the floor) of its base. *)
let overhead_gate check ~ok ~failed pairs =
  let over = List.filter (fun ab -> ab.ratio > budget_ratio ab) pairs in
  List.iter
    (fun ab ->
      Printf.printf
        "  OVERHEAD: %s median ratio %.4f exceeds %.4f (%.0f%% + %.0f ms); A/A median %.4f, \
         IQR %.4f\n%!"
        ab.ab_name ab.ratio (budget_ratio ab) gate_pct (gate_floor_s *. 1e3) ab.aa_ratio
        ab.aa_iqr)
    over;
  if over = [] then begin
    Printf.printf "%s OK: %s within %.0f%% (+%.0f ms floor, median of %d pairs, loops >= %.0f ms)\n"
      check ok gate_pct (gate_floor_s *. 1e3) gate_pairs (gate_loop_s *. 1e3);
    exit 0
  end
  else begin
    prerr_endline (check ^ " FAILED: " ^ failed);
    exit 1
  end

(* --- fault:* section: fault-layer passthrough overhead ---

   Every durability path funnels its file I/O through Sbi_fault.Io;
   disabled (the default everywhere) the layer must be free.  A/B the
   hot read path (streaming log fold) and the full index build with (a)
   the default passthrough and (b) a quiet, never-firing injector
   attached — the layer's worst case — and gate the delta in
   --fault-check mode. *)

let fault_overhead ctx =
  let quiet = Sbi_fault.Io.faulty (Sbi_fault.Fault.create Sbi_fault.Fault.quiet) in
  let fold ?io () =
    ignore
      (Sbi_ingest.Shard_log.fold ?io ~dir:ctx.sy_log_dir ~init:0
         ~f:(fun acc _ -> acc + 1)
         ())
  in
  let build ?io () =
    let dir = Filename.temp_dir "sbi_bench" ".faultidx" in
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    ignore (Sbi_index.Index.build ?io ~log:ctx.sy_log_dir ~dir ());
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  let fold_ab =
    measure_ab "log fold" ~base:(fun () -> fold ()) ~variant:(fun () -> fold ~io:quiet ())
  in
  let build_ab =
    measure_ab "index build" ~base:(fun () -> build ()) ~variant:(fun () -> build ~io:quiet ())
  in
  Printf.printf "fault-layer passthrough overhead (%d runs, median of %d pairs):\n" ctx.sy_nruns
    gate_pairs;
  List.iter (print_ab ~base:"passthrough" ~variant:"quiet injector") [ fold_ab; build_ab ];
  let fold_plain, fold_quiet = per_call_ns fold_ab in
  let build_plain, build_quiet = per_call_ns build_ab in
  ( [
      ("fault:fold:passthrough", fold_plain);
      ("fault:fold:quiet", fold_quiet);
      ("fault:build:passthrough", build_plain);
      ("fault:build:quiet", build_quiet);
    ],
    [ fold_ab; build_ab ] )

(* `bench/main.exe --fault-check`: exit non-zero if attaching even a
   quiet injector costs more than the gate over the shipped passthrough
   path. *)
let fault_check () =
  let nruns = min synth_nruns 3_000 in
  Printf.printf "fault-check: %d-run synthetic corpus, passthrough vs quiet injector\n%!" nruns;
  let _, pairs = with_synth_ctx ~nruns fault_overhead in
  overhead_gate "fault-check" ~ok:"fault layer, when disabled,"
    ~failed:"fault-injection layer adds measurable overhead" pairs

(* --- observability overhead ---

   A/B the instrumented hot paths with Sbi_obs enabled vs disabled:
   indexed top-k (spans + registry around triage/snapshot) and ingest
   append (sampled codec/log timers).  The delta is what the always-on
   observability layer costs; --obs-check gates it fault-check style. *)

let obs_overhead ctx =
  let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
  (* warm the epoch-snapshot cache so the loop measures query-path
     instrumentation, not a one-off snapshot build *)
  ignore (Sbi_index.Index.snapshot idx);
  let topk () =
    for _ = 1 to 25 do
      ignore (Sbi_index.Triage.topk ~k:10 idx)
    done
  in
  let append () =
    let dir = Filename.temp_dir "sbi_bench" ".obslog" in
    Sbi_ingest.Shard_log.write_meta ~dir ctx.sy_meta;
    let w = Sbi_ingest.Shard_log.create_writer ~dir ~shard:0 () in
    Array.iter (Sbi_ingest.Shard_log.append w) ctx.sy_reports;
    ignore (Sbi_ingest.Shard_log.close_writer w);
    Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
    Unix.rmdir dir
  in
  let ab name f =
    let r =
      measure_ab name
        ~base:(fun () ->
          Sbi_obs.set_enabled false;
          f ())
        ~variant:(fun () ->
          Sbi_obs.set_enabled true;
          f ())
    in
    Sbi_obs.set_enabled true;
    r
  in
  let topk_ab = ab "indexed topk" topk in
  let append_ab = ab "ingest append" append in
  Printf.printf "observability overhead (%d runs, median of %d pairs):\n" ctx.sy_nruns gate_pairs;
  List.iter (print_ab ~base:"uninstrumented" ~variant:"instrumented") [ topk_ab; append_ab ];
  let topk_off, topk_on = per_call_ns topk_ab in
  let append_off, append_on = per_call_ns append_ab in
  ( [
      ("obs:topk:off", topk_off);
      ("obs:topk:on", topk_on);
      ("obs:ingest:off", append_off);
      ("obs:ingest:on", append_on);
    ],
    [ topk_ab; append_ab ] )

(* `bench/main.exe --obs-check`: exit non-zero if the enabled
   observability layer costs more than the gate over the same paths with
   Sbi_obs disabled. *)
let obs_check () =
  let nruns = min synth_nruns 3_000 in
  Printf.printf "obs-check: %d-run synthetic corpus, instrumented vs disabled\n%!" nruns;
  let _, pairs = with_synth_ctx ~nruns obs_overhead in
  overhead_gate "obs-check" ~ok:"instrumentation"
    ~failed:"observability layer adds measurable overhead" pairs

(* --- SBFL formula zoo ---

   Per-formula indexed top-k over the synthetic corpus (every formula
   re-folds the same snapshot-cached counter table — the deltas are pure
   scoring arithmetic), plus the dispatch overhead of the pluggable
   path: Triage.topk (hard-coded importance) vs Triage.topk_f with the
   importance formula fetched from the registry.  --sbfl-check gates the
   dispatch overhead fault-check style. *)

let sbfl_overhead ctx =
  let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
  ignore (Sbi_index.Index.snapshot idx);
  let iters = 25 in
  let topk_hard () =
    for _ = 1 to iters do
      ignore (Sbi_index.Triage.topk ~k:10 idx)
    done
  in
  let topk_formula formula () =
    for _ = 1 to iters do
      ignore (Sbi_index.Triage.topk_f ~k:10 ~formula idx)
    done
  in
  (* the pluggable path must select the same predicates as the hard-coded
     one before its timing means anything *)
  let hard = Sbi_index.Triage.topk ~k:10 idx in
  let plugged = Sbi_index.Triage.topk_f ~k:10 ~formula:Sbi_sbfl.Formula.importance idx in
  let identical =
    List.length hard = List.length plugged
    && List.for_all2
         (fun (sc : Sbi_core.Scores.t) (e : Sbi_sbfl.Ranking.entry) ->
           sc.Sbi_core.Scores.pred = e.Sbi_sbfl.Ranking.pred
           && sc.Sbi_core.Scores.importance = e.Sbi_sbfl.Ranking.score)
         hard plugged
  in
  if not identical then
    Printf.printf "SBFL DIVERGENCE: topk_f importance does not match hard-coded topk\n%!";
  let dispatch_ab =
    measure_ab "topk importance" ~base:topk_hard
      ~variant:(topk_formula Sbi_sbfl.Formula.importance)
  in
  Printf.printf "sbfl dispatch overhead (%d runs, median of %d pairs, %d topk/call):\n"
    ctx.sy_nruns gate_pairs iters;
  print_ab ~base:"hard-coded" ~variant:"via formula registry" dispatch_ab;
  let hard_ns, _ = per_call_ns dispatch_ab in
  let entries = ref [ ("sbfl:topk:hardcoded", hard_ns) ] in
  List.iter
    (fun (fm : Sbi_sbfl.Formula.t) ->
      let dt = best_of 5 (topk_formula fm) in
      entries := (Printf.sprintf "sbfl:topk:%s" fm.Sbi_sbfl.Formula.name, dt *. 1e9) :: !entries;
      Printf.printf "  topk %-26s %8.1f ms\n" fm.Sbi_sbfl.Formula.name (dt *. 1e3))
    (Sbi_sbfl.Registry.all ());
  (List.rev !entries, [ dispatch_ab ], identical)

(* `bench/main.exe --sbfl-check`: exit non-zero if ranking through the
   formula registry selects different predicates than the hard-coded
   importance path, or costs more than the gate over it. *)
let sbfl_check () =
  let nruns = min synth_nruns 3_000 in
  Printf.printf "sbfl-check: %d-run synthetic corpus, hard-coded vs pluggable ranking\n%!"
    nruns;
  let _, pairs, identical = with_synth_ctx ~nruns sbfl_overhead in
  if not identical then begin
    prerr_endline "sbfl-check FAILED: pluggable importance ranking diverged from hard-coded path";
    exit 1
  end;
  overhead_gate "sbfl-check" ~ok:"formula dispatch (rankings identical)"
    ~failed:"formula dispatch adds measurable overhead" pairs

(* --- million-run scale: tiered store, lazy open, compaction ---

   One-shot wall-clock measurements over a corpus streamed by
   {!Sbi_corpus.Synth} in waves (generate, then incrementally index, 16
   times), so the index accumulates one segment per shard per wave —
   the many-small-segments shape tiered compaction exists to fix.  The
   warm top-k number is the headline: on the lazy footer-indexed store
   it is pure aggregate arithmetic (no posting loads), so it must stay
   inside a fixed budget no matter how many runs are on disk. *)

let scale_runs =
  match Sys.getenv_opt "SBI_SCALE_RUNS" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 1_000_000)
  | None -> 1_000_000

let scale_budget_ms =
  match Sys.getenv_opt "SBI_SCALE_BUDGET_MS" with
  | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> 10.)
  | None -> 10.

type scale_result = {
  sc_runs : int;
  sc_gen_s : float;
  sc_build_s : float;
  sc_open_s : float;
  sc_topk_cold_s : float;
  sc_topk_warm_s : float;  (** median of 50 repeated top-k calls *)
  sc_compact_s : float;
  sc_open_after_s : float;
  sc_topk_after_s : float;
  sc_segments_before : int;
  sc_segments_after : int;
  sc_bytes_before : int;
  sc_bytes_after : int;
  sc_identical : bool;  (** top-k bit-identical across compaction *)
  sc_fsck_clean : bool;
}

(* Bit-pattern fingerprint: equality means the compacted index produces
   the very same floats, not merely the same order. *)
let scale_sig scores =
  List.map
    (fun (sc : Sbi_core.Scores.t) ->
      ( sc.Sbi_core.Scores.pred,
        Int64.bits_of_float sc.Sbi_core.Scores.importance,
        sc.Sbi_core.Scores.f,
        sc.Sbi_core.Scores.s ))
    scores

let warm_topk idx =
  ignore (Sbi_index.Triage.topk ~k:10 idx);
  let samples =
    Array.init 50 (fun _ ->
        let _, dt = time (fun () -> Sbi_index.Triage.topk ~k:10 idx) in
        dt)
  in
  median samples

(* What a query pays for the epoch bump an ingest causes: on the synthetic
   corpus's index plus a 10,000-report live tail, each round appends one
   report and then asks for the top 10, which must rebuild the snapshot.
   Median over 100 rounds, append and top-k timed together. *)
let topk_after_append ctx =
  let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
  let n = Array.length ctx.sy_reports in
  for i = 0 to 9_999 do
    Sbi_index.Index.append idx ctx.sy_reports.(i mod n)
  done;
  ignore (Sbi_index.Triage.topk ~k:10 idx);
  let samples =
    Array.init 100 (fun i ->
        let r = ctx.sy_reports.((10_000 + i) mod n) in
        snd
          (time (fun () ->
               Sbi_index.Index.append idx r;
               Sbi_index.Triage.topk ~k:10 idx)))
  in
  let dt = median samples in
  Printf.printf "topk after append (%d-run index + %d-report tail, 100 rounds): median %.3f ms\n"
    n (Sbi_index.Index.tail_count idx) (dt *. 1e3);
  [ ("index:topk-after-append", dt *. 1e9) ]

(* What the first bitmap query of an epoch pays: on the same index plus a
   10,000-report live tail, each round appends one report and runs one
   affinity of the top retained predicate against the retained set, which
   rebuilds the snapshot and decodes the tail postings it reads, then
   runs the same affinity again in that epoch.  Medians over 50 rounds;
   the entry is the first call. *)
let affinity_after_append ctx =
  let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
  let n = Array.length ctx.sy_reports in
  for i = 0 to 9_999 do
    Sbi_index.Index.append idx ctx.sy_reports.(i mod n)
  done;
  let retained = Sbi_core.Prune.retained (Sbi_index.Triage.counts idx) in
  let selected = match retained with p :: _ -> p | [] -> 0 in
  let affinity () = Sbi_index.Triage.affinity idx ~selected ~others:retained in
  ignore (affinity ());
  let rounds = 50 in
  let first = Array.make rounds 0. and same = Array.make rounds 0. in
  for i = 0 to rounds - 1 do
    Sbi_index.Index.append idx ctx.sy_reports.((10_000 + i) mod n);
    first.(i) <- snd (time affinity);
    same.(i) <- snd (time affinity)
  done;
  let tail = Sbi_index.Index.tail_count idx in
  let first = median first and same = median same in
  Printf.printf
    "affinity after append (%d-run index + %d-report tail, %d retained, %d rounds): first call \
     median %.3f ms, same epoch %.3f ms; tail postings %.1f bytes per report\n"
    n tail (List.length retained) rounds (first *. 1e3) (same *. 1e3)
    (float_of_int (Sbi_index.Index.tail_bytes idx) /. float_of_int tail);
  [ ("index:affinity-after-append", first *. 1e9) ]

(* A cold analysis as a fresh process meets it: a new [Index.open_]
   (empty posting cache) and [Triage.analyze] on the synthetic corpus,
   timed together, with the number of postings the analysis loaded. *)
let analyze_cold ctx =
  let (idx, a), dt =
    time (fun () ->
        let idx = Sbi_index.Index.open_ ~dir:ctx.sy_idx_dir in
        (idx, Sbi_index.Triage.analyze idx))
  in
  Printf.printf
    "cold open + analysis (%d runs, %d segments): %.1f ms, %d postings loaded for %d retained \
     predicates\n"
    ctx.sy_nruns
    (Array.length idx.Sbi_index.Index.segments)
    (dt *. 1e3)
    (Sbi_index.Index.cache_stats idx).Sbi_store.Lru.misses
    (List.length a.Sbi_index.Triage.retained);
  [ ("index:analyze-cold", dt *. 1e9) ]

let run_scale ~runs =
  let log_dir = Filename.temp_dir "sbi_bench" ".scalelog" in
  let idx_dir = Filename.temp_dir "sbi_bench" ".scaleidx" in
  Fun.protect
    ~finally:(fun () ->
      try
        rm_rf log_dir;
        rm_rf idx_dir
      with Sys_error _ -> ())
    (fun () ->
      let waves = 16 and shards = 4 in
      let per = max 1 (runs / waves) in
      let gen_t = ref 0. and build_t = ref 0. in
      let start = ref 0 in
      while !start < runs do
        let n = min per (runs - !start) in
        let (), dt =
          time (fun () ->
              ignore (Sbi_corpus.Synth.generate ~shards ~start:!start ~runs:n ~dir:log_dir ()))
        in
        gen_t := !gen_t +. dt;
        let (), dt =
          time (fun () -> ignore (Sbi_index.Index.build ~log:log_dir ~dir:idx_dir ()))
        in
        build_t := !build_t +. dt;
        start := !start + n
      done;
      let idx, open_s = time (fun () -> Sbi_index.Index.open_ ~dir:idx_dir) in
      let ref_topk, cold_s = time (fun () -> Sbi_index.Triage.topk ~k:10 idx) in
      let warm_s = warm_topk idx in
      let st, compact_s = time (fun () -> Sbi_index.Index.compact ~dir:idx_dir ()) in
      let idx2, open_after_s = time (fun () -> Sbi_index.Index.open_ ~dir:idx_dir) in
      let after_topk = Sbi_index.Triage.topk ~k:10 idx2 in
      let after_s = warm_topk idx2 in
      let fsck = Sbi_index.Index.fsck ~dir:idx_dir in
      {
        sc_runs = runs;
        sc_gen_s = !gen_t;
        sc_build_s = !build_t;
        sc_open_s = open_s;
        sc_topk_cold_s = cold_s;
        sc_topk_warm_s = warm_s;
        sc_compact_s = compact_s;
        sc_open_after_s = open_after_s;
        sc_topk_after_s = after_s;
        sc_segments_before = st.Sbi_index.Index.cp_segments_before;
        sc_segments_after = st.Sbi_index.Index.cp_segments_after;
        sc_bytes_before = st.Sbi_index.Index.cp_bytes_before;
        sc_bytes_after = st.Sbi_index.Index.cp_bytes_after;
        sc_identical = scale_sig ref_topk = scale_sig after_topk;
        sc_fsck_clean =
          fsck.Sbi_index.Index.fsck_corrupt = 0 && fsck.Sbi_index.Index.fsck_dead_files = [];
      })

let print_scale r =
  Printf.printf
    "scale (%d runs): gen %.1fs, build %.1fs, open %.1f ms, topk cold %.2f ms / warm \
     %.3f ms, compact %.1fs (%d -> %d segment(s), %.1f -> %.1f MB), reopen %.1f ms, \
     topk warm %.3f ms, rankings %s, fsck %s\n%!"
    r.sc_runs r.sc_gen_s r.sc_build_s (r.sc_open_s *. 1e3) (r.sc_topk_cold_s *. 1e3)
    (r.sc_topk_warm_s *. 1e3) r.sc_compact_s r.sc_segments_before r.sc_segments_after
    (float_of_int r.sc_bytes_before /. 1e6)
    (float_of_int r.sc_bytes_after /. 1e6)
    (r.sc_open_after_s *. 1e3) (r.sc_topk_after_s *. 1e3)
    (if r.sc_identical then "bit-identical" else "DIVERGED")
    (if r.sc_fsck_clean then "clean" else "DIRTY")

let scale_entries r =
  [
    ("scale:gen", r.sc_gen_s *. 1e9);
    ("scale:build", r.sc_build_s *. 1e9);
    ("scale:open", r.sc_open_s *. 1e9);
    ("scale:topk:cold", r.sc_topk_cold_s *. 1e9);
    ("scale:topk:warm", r.sc_topk_warm_s *. 1e9);
    ("scale:compact", r.sc_compact_s *. 1e9);
    ("scale:open:after_compact", r.sc_open_after_s *. 1e9);
    ("scale:topk:after_compact", r.sc_topk_after_s *. 1e9);
  ]

(* `bench/main.exe --scale-check`: exit non-zero unless, at
   SBI_SCALE_RUNS (default one million) runs, the warm indexed top-k
   stays inside SBI_SCALE_BUDGET_MS (default 10 ms), compaction strictly
   reduces both segment count and live bytes, rankings are bit-identical
   across it, and fsck comes back clean. *)
let scale_check () =
  Printf.printf "scale-check: %d-run corpus, %.1f ms warm top-k budget\n%!" scale_runs
    scale_budget_ms;
  let r = run_scale ~runs:scale_runs in
  print_scale r;
  let problems =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        ( r.sc_topk_warm_s *. 1e3 < scale_budget_ms,
          Printf.sprintf "warm topk %.3f ms over the %.1f ms budget"
            (r.sc_topk_warm_s *. 1e3) scale_budget_ms );
        ( r.sc_topk_after_s *. 1e3 < scale_budget_ms,
          Printf.sprintf "post-compaction warm topk %.3f ms over the %.1f ms budget"
            (r.sc_topk_after_s *. 1e3) scale_budget_ms );
        ( r.sc_segments_after < r.sc_segments_before,
          Printf.sprintf "compaction left %d of %d segment(s)" r.sc_segments_after
            r.sc_segments_before );
        ( r.sc_bytes_after < r.sc_bytes_before,
          Printf.sprintf "compaction grew live bytes %d -> %d" r.sc_bytes_before
            r.sc_bytes_after );
        (r.sc_identical, "top-k not bit-identical across compaction");
        (r.sc_fsck_clean, "fsck not clean after compaction");
      ]
  in
  if problems = [] then begin
    Printf.printf "scale-check OK: warm top-k within %.1f ms at %d runs\n" scale_budget_ms
      scale_runs;
    exit 0
  end
  else begin
    List.iter (fun m -> prerr_endline ("scale-check FAILED: " ^ m)) problems;
    exit 1
  end

(* --- run and report --- *)

let run_benchmarks tests =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"sbi" tests) in
  Analyze.all ols Instance.monotonic_clock raw

let human_time ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_results results =
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let est = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
      let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
      rows := (name, est, r2) :: !rows)
    results;
  let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  let tab =
    Sbi_util.Texttab.create ~title:"Benchmark results (time per regeneration)"
      [
        ("benchmark", Sbi_util.Texttab.Left);
        ("time/run", Sbi_util.Texttab.Right);
        ("r2", Sbi_util.Texttab.Right);
      ]
  in
  List.iter
    (fun (name, est, r2) ->
      Sbi_util.Texttab.add_row tab [ name; human_time est; Printf.sprintf "%.3f" r2 ])
    sorted;
  print_string (Sbi_util.Texttab.render tab)

(* Machine-readable results: BENCH_core.json maps each benchmark name to
   ns/op and mops/s so the perf trajectory is diffable across PRs (format
   documented in docs/ingest.md and docs/perf.md).  [extra] merges
   one-shot wall-clock entries (index:*, ingest:*, conn:*, scale:* and
   the overhead sections) into the same map. *)
let write_bench_json ~path ?(extra = []) results =
  let module J = Sbi_util.Json in
  let rows = ref extra in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some (ns :: _) when Float.is_finite ns && ns > 0. -> rows := (name, ns) :: !rows
      | _ -> ())
    results;
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) !rows in
  let doc =
    J.Obj
      [
        ("schema", J.Str "sbi-bench/1");
        ("runs_per_study", J.int bench_runs);
        ( "benchmarks",
          J.Obj
            (List.map
               (fun (name, ns) ->
                 ( name,
                   J.Obj [ ("ns_per_op", J.Num ns); ("mops_per_s", J.Num (1e3 /. ns)) ] ))
               sorted) );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks)\n" path (List.length sorted)

let print_tables () =
  print_endline "\n===== Regenerated paper tables (reduced run counts) =====\n";
  let moss = moss () in
  let rows = all_rows () in
  print_endline (Table1.render ~top:8 moss);
  print_endline (Table2.render rows);
  print_endline (Table3.render moss);
  print_endline
    (Predictor_table.render ~title:"Table 4: Predictors for CCRYPT (analogue)"
       (bundle "ccryptim"));
  print_endline
    (Predictor_table.render ~title:"Table 5: Predictors for BC (analogue)" (bundle "bcim"));
  print_endline
    (Predictor_table.render ~title:"Table 6: Predictors for EXIF (analogue)" (bundle "exifim"));
  print_endline
    (Predictor_table.render ~title:"Table 7: Predictors for RHYTHMBOX (analogue)"
       (bundle "rhythmim"));
  print_endline (Table8.render rows);
  print_endline (Table9.render moss);
  print_endline (Ablation.render moss);
  print_endline (Stack_study.render rows)

let () =
  if Array.exists (fun a -> a = "--fault-check") Sys.argv then fault_check ();
  if Array.exists (fun a -> a = "--obs-check") Sys.argv then obs_check ();
  if Array.exists (fun a -> a = "--sbfl-check") Sys.argv then sbfl_check ();
  if Array.exists (fun a -> a = "--scale-check") Sys.argv then scale_check ();
  if Array.exists (fun a -> a = "--ingest-check") Sys.argv then ingest_check ();
  if Array.exists (fun a -> a = "--conn-check") Sys.argv then conn_check ();
  Printf.printf "sbi benchmark harness: %d runs/study, adaptive training on %d runs\n%!"
    bench_runs bench_train;
  ignore (Lazy.force bundles);
  let tests =
    table_tests () @ core_tests () @ runtime_tests () @ ingest_tests () @ index_tests ()
  in
  Printf.eprintf "[bench] timing %d benchmarks...\n%!" (List.length tests);
  let results = run_benchmarks tests in
  print_results results;
  Printf.eprintf "[bench] timing index elimination, median of %d calls per proposal...\n%!"
    eliminate_calls;
  let eliminate_entries = eliminate_medians () in
  Printf.eprintf "[bench] timing parallel vs sequential collection...\n%!";
  print_collection_scaling ();
  Printf.eprintf "[bench] building %d-run synthetic corpus...\n%!" synth_nruns;
  let synth_entries =
    with_synth_ctx ~nruns:synth_nruns (fun ctx ->
        Printf.eprintf "[bench] timing index build and indexed vs rescan top-k...\n%!";
        print_index_scaling ctx;
        Printf.eprintf "[bench] timing topk right after an append on a 10000-report tail...\n%!";
        let append_entries = topk_after_append ctx in
        Printf.eprintf "[bench] timing affinity right after an append on a 10000-report tail...\n%!";
        let affinity_entries = affinity_after_append ctx in
        Printf.eprintf "[bench] timing a cold open + analysis...\n%!";
        let cold_entries = analyze_cold ctx in
        Printf.eprintf "[bench] timing single-RPC vs batched group-commit ingest...\n%!";
        let ingest_entries = ingest_throughput ctx in
        Printf.eprintf
          "[bench] timing the event-loop front end under a 200-connection fleet...\n%!";
        let conn_entries, _, conn_dropped, conn_faults = conn_throughput ctx in
        if conn_dropped > 0 || conn_faults <> [] then
          Printf.eprintf "[bench] WARNING: conn fleet dropped %d requests (%s)\n%!" conn_dropped
            (String.concat ", " conn_faults);
        Printf.eprintf "[bench] timing fault-layer passthrough overhead...\n%!";
        let fault_entries, _ = fault_overhead ctx in
        Printf.eprintf "[bench] timing observability-layer overhead...\n%!";
        let obs_entries, _ = obs_overhead ctx in
        Printf.eprintf "[bench] timing per-formula topk and sbfl dispatch overhead...\n%!";
        let sbfl_entries, _, _ = sbfl_overhead ctx in
        append_entries @ affinity_entries @ cold_entries @ ingest_entries @ conn_entries @ fault_entries
        @ obs_entries @ sbfl_entries)
  in
  Printf.eprintf "[bench] million-run scale: tiered store, lazy open, compaction (%d runs)...\n%!"
    scale_runs;
  let scale = run_scale ~runs:scale_runs in
  print_scale scale;
  write_bench_json
    ~path:(Option.value ~default:"BENCH_core.json" (Sys.getenv_opt "SBI_BENCH_JSON"))
    ~extra:(eliminate_entries @ synth_entries @ scale_entries scale)
    results;
  print_tables ()
