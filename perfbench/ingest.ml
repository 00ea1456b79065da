(* The two ingest workloads.

   ingest-load: two connections each send closed-loop [ingest-batch]
   requests of 64 reports.  The operation is one acked report; latency is
   one batch's ack.

   live-triage: one connection streams the same closed-loop batches while
   a second sends one [topk 10] after each ack, so every read meets the
   next batch's ingest (see [live_loop]).  The operation is one acked
   report of the writer; latency is the reader's [topk].

   Both ingest a fixed volume per episode, so every episode's server
   holds the same live tail whatever its speed: the volume is set by
   --seconds and a nominal rate, identically on both sides of a
   comparison.  The base corpus is the synthetic generator's default
   population; the ingested reports are valid synthetic runs drawn from
   the workload seed, with ids past the base corpus, and the request
   bodies are rendered before the clock starts.  The server's ingest log
   lives in the episode's directory, fsync on, 2 ms group commit (the CLI
   defaults). *)

open Sbi_index
open Sbi_serve

let batch = 64
let base_runs ctx = if ctx.Ctx.tiny then 2_000 else 50_000
let episodes ctx = if ctx.Ctx.tiny then 2 else 5

(* reports per second the fixed volume is sized for *)
let load_rate = 35_000.
let live_rate = 1_800.
let load_tail_p = 75.
let live_tail_p = 90.

type batch = { ids : int list; payloads : string list; body : string }

let render_batches ~seed ~first ~n =
  let nb = n / batch in
  let meta = (Sbi_corpus.Synth.default_nsites, Sbi_corpus.Synth.default_npreds) in
  Array.init nb (fun b ->
      let ids = List.init batch (fun i -> first + (b * batch) + i) in
      let payloads =
        List.map
          (fun run_id ->
            let nsites, npreds = meta in
            B64.encode (Sbi_ingest.Codec.encode (Sbi_corpus.Synth.report ~nsites ~npreds ~seed ~run_id)))
          ids
      in
      let buf = Buffer.create (200 * batch) in
      Buffer.add_string buf "ingest-batch\n";
      List.iter
        (fun p ->
          Buffer.add_string buf (Wire.stuff p);
          Buffer.add_char buf '\n')
        payloads;
      Buffer.add_string buf ".\n";
      { ids; payloads; body = Buffer.contents buf })

(* --- replay of the server's per-request library calls --- *)

type replica = {
  idx : Index.t;
  w : Sbi_ingest.Shard_log.writer;
  mutable last_epoch : int;
  mutable rebuilds : (float * int) list;  (** snapshot rebuild ms, tail runs *)
}

let replica ~ref_dir ~log_dir =
  let idx = Spans.span "index.open" (fun () -> Index.open_ ~dir:ref_dir) in
  Sbi_ingest.Shard_log.write_meta ~dir:log_dir idx.Index.meta;
  let w = Sbi_ingest.Shard_log.create_writer ~fsync:true ~dir:log_dir ~shard:0 () in
  { idx; w; last_epoch = -1; rebuilds = [] }

(* decode -> validate -> append_raw -> sync -> fold, in [run_ingest]'s order *)
let replay_ingest r ~parent b =
  Spans.replay_into ~parent (fun () ->
      let sp name f = Spans.span ~parent ~req:parent ~replayed:true name f in
      let reports =
        sp "ingest.decode" (fun () ->
            List.map
              (fun p ->
                match B64.decode p with
                | Ok s -> Sbi_ingest.Codec.decode s
                | Error e -> failwith ("replay decode: " ^ e))
              b.payloads)
      in
      sp "ingest.validate" (fun () -> List.iter (Index.validate r.idx) reports);
      sp "ingest.append_raw" (fun () -> List.iter (Sbi_ingest.Shard_log.append_raw r.w) reports);
      sp "ingest.sync" (fun () -> Sbi_ingest.Shard_log.sync r.w);
      sp "ingest.fold" (fun () -> List.iter (Index.append r.idx) reports))

(* snapshot -> topk -> render, in [grab_snapshot]/[handle_topk]'s order *)
let replay_topk r ~parent =
  Spans.replay_into ~parent (fun () ->
      let sp name f = Spans.span ~parent ~req:parent ~replayed:true name f in
      let rebuild = Index.epoch r.idx <> r.last_epoch in
      let t0 = Sbi_obs.Clock.now_ns () in
      let snap = sp "index.snapshot" (fun () -> Index.snapshot r.idx) in
      if rebuild then begin
        r.rebuilds <- (Ctx.ms_since t0, Index.tail_count r.idx) :: r.rebuilds;
        r.last_epoch <- Index.epoch r.idx
      end;
      let scores = sp "triage.topk" (fun () -> Triage.Snap.topk ~k:10 snap) in
      sp "wire.render" (fun () ->
          let header, lines = Expect.topk_reply r.idx scores in
          ignore (Wire.render_ok ~header ~lines)))

(* --- one episode --- *)

type acked = { b : int; at : int; span : int }  (** batch index, ack time, root span *)

type episode = {
  traced : bool;
  acked_n : int;
  rejected : int;
  busy : float;
  cpu : float;
  stats : string list;
  acks : acked list;
  reads : (int * int) list;  (** reader: send time, root span *)
}

(* A writer's tally: acks newest first, batch latencies (ms), reports
   acked ok and not. *)
type writer = { mutable acks : acked list; mutable lat : float list; mutable ok_n : int; mutable bad_n : int }

let writer () = { acks = []; lat = []; ok_n = 0; bad_n = 0 }

(* Records batch [bi]'s reply, sent at [t]; statuses are checked as they
   arrive. *)
let tally (o : Outcome.t) lock w batches bi ~t reply =
  let at = Sbi_obs.Clock.now_ns () in
  let span = Spans.root ~req:bi "rtt.ingest-batch" ~start_ns:t ~end_ns:at in
  w.lat <- (float_of_int (at - t) /. 1e6) :: w.lat;
  let ok, bad = Expect.batch_statuses ~ids:batches.(bi).ids reply in
  w.ok_n <- w.ok_n + ok;
  w.bad_n <- w.bad_n + bad;
  if bad > 0 then begin
    Mutex.lock lock;
    Outcome.fail o
      (Printf.sprintf "batch %d: %d report(s) not acked ok (%s)" bi bad
         (match reply with Error e -> e | Ok (h, _) -> h));
    Mutex.unlock lock
  end;
  w.acks <- { b = bi; at; span } :: w.acks

(* ingest-load: closed loop over [mine] batches on one connection. *)
let writer_loop o lock c batches mine =
  let w = writer () in
  List.iter
    (fun bi ->
      let t = Sbi_obs.Clock.now_ns () in
      tally o lock w batches bi ~t (Served.exchange c batches.(bi).body))
    mine;
  w

(* live-triage: one thread drives both connections.  The writer [cw]
   sends every batch closed loop.  Each ack makes one [topk 10] due on
   the reader [cr]; it goes out at once, ahead of the next batch, when
   the reader is idle, and otherwise as soon as the reader's reply is in.
   So an episode makes exactly one read per batch, the read after batch i
   rebuilds the tail snapshot over i batches while batch i+1's ingest
   waits for the server lock, and the reader's percentiles rest on the
   same samples whatever the server's speed.  Returns the writer's tally
   and the reader's (send time, root span) list, latencies (ms) and
   failures. *)
let live_loop o lock ~cw ~cr batches =
  let nb = Array.length batches in
  let w = writer () in
  let reads = ref [] and read_lat = ref [] and read_failed = ref 0 in
  let next = ref 0 and due = ref 0 in
  (* send time of the request in flight on each connection, -1 if none *)
  let w_t = ref (-1) and r_t = ref (-1) in
  let batch_done reply =
    let t = !w_t in
    w_t := -1;
    tally o lock w batches !next ~t reply;
    incr next;
    incr due
  in
  let read_done reply =
    let t = !r_t in
    r_t := -1;
    let at = Sbi_obs.Clock.now_ns () in
    let span = Spans.root ~req:(nb + List.length !reads) "rtt.topk" ~start_ns:t ~end_ns:at in
    read_lat := (float_of_int (at - t) /. 1e6) :: !read_lat;
    reads := (t, span) :: !reads;
    match reply with Ok _ -> () | Error _ -> incr read_failed
  in
  let start t c body finish =
    t := Sbi_obs.Clock.now_ns ();
    match Served.send c body with Ok _ -> () | Error _ as e -> finish e
  in
  while !next < nb || !due > 0 || !w_t >= 0 || !r_t >= 0 do
    if !r_t < 0 && !due > 0 then begin
      decr due;
      start r_t cr "topk 10\n" read_done
    end;
    if !w_t < 0 && !next < nb then start w_t cw batches.(!next).body batch_done;
    let waiting = (if !w_t >= 0 then [ cw.Served.fd ] else []) @ if !r_t >= 0 then [ cr.Served.fd ] else [] in
    if waiting <> [] then begin
      let ready, _, _ = Unix.select waiting [] [] 60. in
      if ready = [] then failwith "live-triage: no reply in 60 s";
      if List.mem cw.Served.fd ready then batch_done (Served.receive cw);
      if List.mem cr.Served.fd ready then read_done (Served.receive cr)
    end
  done;
  (w, List.rev !reads, !read_lat, !read_failed)

let run_episode (ctx : Ctx.t) (o : Outcome.t) ~live ~log ~batches ~base ~e ~traced ~expected_topk =
  let dir = Ctx.path ctx [ Printf.sprintf "e%d" e ] in
  Procfs.fresh_dir dir;
  Spans.on := traced;
  let t0 = Sbi_obs.Clock.now_ns () in
  let srv = Served.up ~cbi:ctx.Ctx.cbi ~dir ~log in
  let c0 = Served.connect srv and c1 = Served.connect srv in
  o.Outcome.setups <- Ctx.secs_since t0 :: o.Outcome.setups;
  let lock = Mutex.create () in
  let nb = Array.length batches in
  let cpu0 = Procfs.cpu_ms srv.Served.pid in
  let start = Sbi_obs.Clock.now_ns () in
  (* ingest-load's second connection runs in a domain of its own, so that
     neither loop's latencies include waiting for the other to release
     the runtime lock *)
  let writers, reads, read_lat, read_failed =
    if live then
      let w, reads, read_lat, read_failed = live_loop o lock ~cw:c0 ~cr:c1 batches in
      ([ w ], reads, read_lat, read_failed)
    else begin
      let part k = List.filter (fun i -> i mod 2 = k) (List.init nb Fun.id) in
      let d = Domain.spawn (fun () -> writer_loop o lock c1 batches (part 1)) in
      let w0 = writer_loop o lock c0 batches (part 0) in
      ([ w0; Domain.join d ], [], [], 0)
    end
  in
  let acks = List.concat_map (fun w -> w.acks) writers in
  let busy = float_of_int (List.fold_left (fun m a -> max m a.at) start acks - start) /. 1e9 in
  let cpu = Procfs.cpu_ms srv.Served.pid -. cpu0 in
  let ok_n = List.fold_left (fun s w -> s + w.ok_n) 0 writers in
  let bad_n = List.fold_left (fun s w -> s + w.bad_n) 0 writers in
  let write_lat = List.concat_map (fun w -> w.lat) writers in
  (* the final ranking after the last ack *)
  if live then begin
    let final = Served.request c1 "topk 10" in
    Outcome.check o
      (Expect.reply_matches ~expected:(Lazy.force expected_topk) final)
      (Printf.sprintf "episode %d: final topk differs from the in-process ranking" e)
  end;
  let stats = Served.stats c0 in
  Outcome.check o
    (Served.stat_int stats "runs" = base + ok_n)
    (Printf.sprintf "episode %d: stats runs %d, expected %d + %d acked" e (Served.stat_int stats "runs")
       base ok_n);
  o.Outcome.rss_mb <- Procfs.vm_hwm_mb srv.Served.pid :: o.Outcome.rss_mb;
  Served.close c0;
  Served.close c1;
  Served.stop srv;
  Spans.on := false;
  let reports = nb * batch in
  Outcome.episode o ~traced ~lat:(if live then read_lat else write_lat) ~ops:(float_of_int ok_n) ~busy;
  o.Outcome.attempted <- o.Outcome.attempted + reports + List.length reads;
  o.Outcome.failed <- o.Outcome.failed + bad_n + read_failed;
  { traced; acked_n = ok_n; rejected = bad_n; busy; cpu; stats; acks; reads }

(* Per-layer readings of a traced run: the last traced episode's requests
   are replayed in arrival order (batches at their ack, reads at their
   send) against an in-process replica of the server's state. *)
let trace_layers (ctx : Ctx.t) (o : Outcome.t) ~batches ~ref_dir eps =
  Spans.on := true;
  let traced = List.filter (fun e -> e.traced) eps in
  let sum f l = List.fold_left (fun a e -> a +. f e) 0. l in
  Outcome.layer o "trace.overhead" (Outcome.trace_overhead o);
  Outcome.layer o "serve.cpu_ms_per_op" (sum (fun e -> e.cpu) traced /. sum (fun e -> float_of_int e.acked_n) traced);
  Outcome.layer o "ingest.rejected" (sum (fun e -> float_of_int e.rejected) traced);
  let last = List.nth traced (List.length traced - 1) in
  let stat k = float_of_int (Served.stat_int last.stats k) in
  let flushes = stat "gc.flushes" in
  Outcome.layer o "gc.flushes" flushes;
  Outcome.layer o "gc.reports_per_flush" (if flushes > 0. then stat "gc.reports" /. flushes else 0.);
  Outcome.layer o "index.segments" (stat "segments");
  let r = replica ~ref_dir ~log_dir:(Ctx.path ctx [ "replay-log" ]) in
  let events =
    List.map (fun a -> (a.at, `Ingest a)) last.acks @ List.map (fun (t, span) -> (t, `Read span)) last.reads
  in
  List.iter
    (fun (_, ev) ->
      match ev with
      | `Ingest a -> replay_ingest r ~parent:a.span batches.(a.b)
      | `Read span -> replay_topk r ~parent:span)
    (List.stable_sort (fun (a, _) (b, _) -> compare a b) events);
  ignore (Sbi_ingest.Shard_log.close_writer r.w);
  let all = Spans.all () in
  let per_report name = Spans.median_ms ~scale:(1000. /. float_of_int batch) all name in
  Outcome.layer o "ingest.decode_us" (per_report "ingest.decode");
  Outcome.layer o "ingest.validate_us" (per_report "ingest.validate");
  Outcome.layer o "ingest.append_us" (per_report "ingest.append_raw");
  Outcome.layer o "ingest.fold_us" (per_report "ingest.fold");
  Outcome.layer o "ingest.sync_ms" (Spans.median_ms all "ingest.sync");
  Outcome.layer o "ingest.bytes_per_report"
    (float_of_int (Array.fold_left (fun a b -> a + String.length b.body) 0 batches)
    /. float_of_int (Array.length batches * batch));
  Outcome.layer o "triage.topk_us" (Spans.median_ms ~scale:1000. all "triage.topk");
  (match r.rebuilds with
  | [] -> Outcome.layer o "index.tail_runs" (stat "tail_runs")
  | l ->
      Outcome.layer o "index.snapshot_ms" (Sbi_util.Stats.median (Array.of_list (List.map fst l)));
      Outcome.layer o "index.tail_runs"
        (Sbi_util.Stats.median (Array.of_list (List.map (fun (_, n) -> float_of_int n) l))));
  Ctx.cache_layers o r.idx;
  Ctx.index_layers o all ~dir:ref_dir ~runs:(base_runs ctx)

let run ~live (ctx : Ctx.t) (o : Outcome.t) =
  let base = base_runs ctx in
  let log = Ctx.path ctx [ "log" ] in
  Ctx.log "%s: generating %d base runs" (if live then "live-triage" else "ingest-load") base;
  ignore (Sbi_corpus.Synth.generate ~runs:base ~dir:log ());
  let rate = if live then live_rate else load_rate in
  let per_ep = int_of_float (rate *. ctx.Ctx.seconds) / episodes ctx in
  let per_ep = max (2 * batch) (per_ep / (2 * batch) * (2 * batch)) in
  let batches = render_batches ~seed:(Sbi_runtime.Collect.run_seed ~seed:ctx.Ctx.seed ~run_index:3) ~first:base ~n:per_ep in
  let ref_dir = Ctx.path ctx [ "ref" ] in
  Spans.on := ctx.Ctx.trace;
  Spans.span "index.build" (fun () -> ignore (Index.build ~log ~dir:ref_dir ()));
  Spans.on := false;
  (* the in-process index holding the same population as the server
     after the last ack *)
  let expected_topk =
    lazy
      (let idx = Index.open_ ~dir:ref_dir in
       Array.iter
         (fun b ->
           List.iter
             (fun p ->
               match B64.decode p with
               | Ok s -> Index.append idx (Sbi_ingest.Codec.decode s)
               | Error e -> failwith e)
             b.payloads)
         batches;
       Expect.topk_reply idx (Triage.Snap.topk ~k:10 (Index.snapshot idx)))
  in
  if live then ignore (Lazy.force expected_topk);
  let n_ep = episodes ctx * if ctx.Ctx.trace then 2 else 1 in
  let eps =
    List.init n_ep (fun i ->
        let e = i + 1 in
        run_episode ctx o ~live ~log ~batches ~base ~e ~traced:(ctx.Ctx.trace && e mod 2 = 0) ~expected_topk)
  in
  if ctx.Ctx.trace then trace_layers ctx o ~batches ~ref_dir eps
