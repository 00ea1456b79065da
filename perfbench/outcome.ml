(* What one workload run hands back to bench.ml, and the fixed list of
   per-layer metrics every traced run reports. *)

(* One timed phase.  A run's end-to-end metrics are medians over its
   episodes, so a burst of contention on the host that spoils one episode
   does not move the run's figures. *)
type episode = {
  lat : float array;  (** ms, one per timed operation *)
  ops : float;  (** completed operations *)
  busy : float;  (** seconds the phase lasted *)
  traced : bool;
}

type t = {
  mutable correct : bool;
  mutable attempted : int;  (** operations attempted *)
  mutable failed : int;  (** operations the client saw fail or refused *)
  mutable setups : float list;  (** seconds, one per set-up in the run *)
  mutable episodes : episode list;  (** newest first *)
  mutable rss_mb : float list;  (** peak RSS of the process under test, per set-up *)
  mutable layers : (string * float) list;  (** per-layer readings (traced run) *)
  mutable problems : string list;  (** failed checks, for the log *)
}

let create () =
  {
    correct = true;
    attempted = 0;
    failed = 0;
    setups = [];
    episodes = [];
    rss_mb = [];
    layers = [];
    problems = [];
  }

let fail t msg =
  t.correct <- false;
  t.problems <- msg :: t.problems;
  Printf.eprintf "[perfbench] CHECK FAILED: %s\n%!" msg

let episode t ~traced ~lat ~ops ~busy =
  t.episodes <- { lat = Array.of_list lat; ops; busy; traced } :: t.episodes

let rate e = e.ops /. e.busy

(* Samples strictly above the [p]th percentile of [n] distinct samples:
   what the tail figure rests on.  [Stats.percentile] interpolates between
   the samples at floor and ceil of p/100 * (n - 1); everything past the
   floor position lies above it.  The benchmark wants at least ten. *)
let beyond ~p n = if n = 0 then 0 else n - 1 - int_of_float (Float.floor (p /. 100. *. float_of_int (n - 1)))

(* Untraced episodes' median rate over traced episodes' median rate. *)
let trace_overhead t =
  let med traced =
    Sbi_util.Stats.median (Array.of_list (List.filter_map (fun e -> if e.traced = traced then Some (rate e) else None) t.episodes))
  in
  med false /. med true

let check t ok msg = if not ok then fail t msg
let layer t name v = t.layers <- (name, v) :: t.layers

(* Every per-layer metric, with its unit, in BENCHMARK.json order.  A
   traced run reports all of them; a layer its workload does not drive
   reads 0. *)
let per_layer =
  [
    ("serve.rtt_ms", "ms");
    ("serve.overhead_ms", "ms");
    ("serve.cpu_ms_per_op", "ms");
    ("serve.failed_ops", "count");
    ("gc.flushes", "count");
    ("gc.reports_per_flush", "count");
    ("ingest.sync_ms", "ms");
    ("ingest.decode_us", "us");
    ("ingest.validate_us", "us");
    ("ingest.append_us", "us");
    ("ingest.fold_us", "us");
    ("ingest.bytes_per_report", "bytes");
    ("ingest.rejected", "count");
    ("index.snapshot_ms", "ms");
    ("index.tail_runs", "count");
    ("triage.affinity_ms", "ms");
    ("triage.topk_us", "us");
    ("triage.analyze_ms", "ms");
    ("store.posting_load_ms", "ms");
    ("store.cache_hit_ratio", "ratio");
    ("store.cache_misses", "count");
    ("store.cache_evictions", "count");
    ("store.cache_used_mwords", "Mwords");
    ("index.segments", "count");
    ("index.build_s", "s");
    ("index.open_ms", "ms");
    ("index.bytes_per_run", "bytes");
    ("collect.runs_per_s", "1/s");
    ("runtime.run_us", "us");
    ("runtime.bare_run_us", "us");
    ("instrument.overhead", "ratio");
    ("lang.treewalk_run_us", "us");
    ("instrument.prepare_s", "s");
    ("core.analyze_ms", "ms");
    ("trace.overhead", "ratio");
  ]
