(* Settings shared by every workload of one run. *)

type t = {
  seed : int;
  seconds : float;  (** measured time of the run (fixed volume for ingest) *)
  tiny : bool;  (** self-test size: small inputs, short phases *)
  trace : bool;
  cbi : string;  (** the built `cbi` binary *)
  work : string;  (** this run's fresh scratch directory *)
}

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "[perfbench] %s\n%!" s) fmt
let path ctx parts = List.fold_left Filename.concat ctx.work parts
let secs_since t0 = float_of_int (Sbi_obs.Clock.now_ns () - t0) /. 1e9
let ms_since t0 = float_of_int (Sbi_obs.Clock.now_ns () - t0) /. 1e6

(* Per-layer readings of an index's posting cache. *)
let cache_layers (o : Outcome.t) idx =
  let st = Sbi_index.Index.cache_stats idx in
  let lookups = st.Sbi_store.Lru.hits + st.Sbi_store.Lru.misses in
  Outcome.layer o "store.cache_hit_ratio"
    (if lookups = 0 then 0. else float_of_int st.Sbi_store.Lru.hits /. float_of_int lookups);
  Outcome.layer o "store.cache_misses" (float_of_int st.Sbi_store.Lru.misses);
  Outcome.layer o "store.cache_evictions" (float_of_int st.Sbi_store.Lru.evictions);
  Outcome.layer o "store.cache_used_mwords" (float_of_int st.Sbi_store.Lru.used /. 1e6)

(* index.* readings of a run's in-process copy of the served index: the
   spans around its [Index.build] and [Index.open_], and its size. *)
let index_layers (o : Outcome.t) all ~dir ~runs =
  Outcome.layer o "index.build_s" (Spans.median_ms ~scale:1e-3 all "index.build");
  Outcome.layer o "index.open_ms" (Spans.median_ms all "index.open");
  Outcome.layer o "index.bytes_per_run" (float_of_int (Procfs.dir_bytes dir) /. float_of_int runs)
