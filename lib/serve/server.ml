open Sbi_runtime
open Sbi_ingest
open Sbi_core
open Sbi_index

type config = {
  addr : Wire.addr;
  timeout : float;
  fsync : bool;
  ingest_log : string option;
  max_request : int;
  io : Sbi_fault.Io.t;
  compact_every : float option;
  tier_max : int;
  group_commit_ms : float;
      (* > 0 (with fsync on): ingest appends park on a group-commit
         coordinator that amortizes one log fsync across every report in
         the window; 0 keeps the inline fsync-per-request path *)
  max_batch : int;  (* force a group-commit flush at this many pending reports *)
  acceptors : int;
      (* Evloop domains, >= 1; loop 0 accepts on the one listener and
         round-robins connections across all of them *)
  max_conns : int;
      (* exact connection admission cap: beyond it a client is accepted,
         answered [err busy], and closed (fault.overload) *)
}

let default_config addr =
  {
    addr;
    timeout = 30.;
    fsync = true;
    ingest_log = None;
    max_request = 1 lsl 20;
    io = Sbi_fault.Io.none;
    compact_every = None;
    tier_max = Sbi_store.Tier.default_tier_max;
    group_commit_ms = 2.;
    max_batch = 512;
    acceptors = 1;
    max_conns = 4096;
  }

(* Hard cap on reports per [ingest-batch] request, over and above the
   per-line [max_request] bound: a malicious batch cannot queue unbounded
   per-report state server-side. *)
let max_batch_lines = 65_536

type t = {
  config : config;
  mutable index : Index.t;  (* swapped by the compaction thread, under [lock] *)
  lock : Mutex.t;  (* guards index state and the ingest writer *)
  metrics : Metrics.t;
  listen_fd : Unix.file_descr;
  mutable ev : Evloop.t option;  (* set by [start] once the loops run *)
  stop_flag : bool Atomic.t;
  writer : (Shard_log.writer * string) option;  (* the ingest shard and its path *)
  gc : Group_commit.t option;  (* present iff fsync ∧ group_commit_ms > 0 ∧ writer *)
  started_at : float;
  mutable ingested_n : int;
  mutable compactions : int;
  mutable compact_thread : Thread.t option;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- request handlers ---

   Read-only queries (topk/pred/affinity) run on an epoch snapshot: the
   lock is held just long enough to fetch (or refresh) the index's
   cached {!Snapshot}, then the query computes on the immutable snapshot
   with the lock released — readers never block ingest.  [stats] and
   [ingest] still run under t.lock. *)

let grab_snapshot t = locked t.lock (fun () -> Index.snapshot t.index)

let pred_text t pred = Dataset.pred_text t.index.Index.meta pred

let fmt_score (sc : Scores.t) text =
  Printf.sprintf "%d %.6f %.6f %d %d %s" sc.Scores.pred sc.Scores.importance
    sc.Scores.increase sc.Scores.f sc.Scores.s text

(* Splits an optional [formula=NAME] token out of a request's arguments
   and resolves it against the registry; [Ok None] means the caller wants
   the default hard-coded importance path. *)
let split_formula_arg words =
  let is_formula w = String.length w >= 8 && String.sub w 0 8 = "formula=" in
  let fargs, rest = List.partition is_formula words in
  match fargs with
  | [] -> Ok (None, rest)
  | [ w ] -> (
      let name = String.sub w 8 (String.length w - 8) in
      match Sbi_sbfl.Registry.find name with
      | Some f -> Ok (Some f, rest)
      | None ->
          Error
            (Printf.sprintf "unknown formula %s (known: %s)" name
               (String.concat " " (Sbi_sbfl.Registry.names ()))))
  | _ -> Error "at most one formula= argument"

let handle_topk ?formula t snap k =
  let k = match k with Some k when k > 0 -> k | _ -> 10 in
  match formula with
  | None ->
      let scores = Triage.Snap.topk ~k snap in
      let lines =
        List.mapi
          (fun i sc -> Printf.sprintf "%d %s" (i + 1) (fmt_score sc (pred_text t sc.Scores.pred)))
          scores
      in
      Ok (Printf.sprintf "topk %d" (List.length lines), lines)
  | Some fm ->
      let entries = Triage.Snap.topk_f ~k ~formula:fm snap in
      let lines =
        List.mapi
          (fun i (e : Sbi_sbfl.Ranking.entry) ->
            Printf.sprintf "%d %d %.6f %d %d %s" (i + 1) e.Sbi_sbfl.Ranking.pred
              e.Sbi_sbfl.Ranking.score e.Sbi_sbfl.Ranking.f e.Sbi_sbfl.Ranking.s
              (pred_text t e.Sbi_sbfl.Ranking.pred))
          entries
      in
      Ok
        ( Printf.sprintf "topk %d formula=%s" (List.length lines) fm.Sbi_sbfl.Formula.name,
          lines )

let handle_formulas () =
  let lines =
    List.map
      (fun (f : Sbi_sbfl.Formula.t) ->
        Printf.sprintf "%s %s" f.Sbi_sbfl.Formula.name f.Sbi_sbfl.Formula.descr)
      (Sbi_sbfl.Registry.all ())
  in
  Ok (Printf.sprintf "formulas %d" (List.length lines), lines)

let parse_pred t s =
  match int_of_string_opt s with
  | Some p when p >= 0 && p < t.index.Index.meta.Dataset.npreds -> Ok p
  | Some p -> Error (Printf.sprintf "predicate %d out of range (have %d)" p t.index.Index.meta.Dataset.npreds)
  | None -> Error ("bad predicate id: " ^ s)

let handle_pred ?formula t snap arg =
  match parse_pred t arg with
  | Error e -> Error e
  | Ok pred ->
      let sc = Triage.Snap.pred_detail snap ~pred in
      let formula_lines =
        match formula with
        | None -> []
        | Some fm ->
            let score, _ = Triage.Snap.pred_score snap ~pred ~formula:fm in
            [
              Printf.sprintf "formula %s" fm.Sbi_sbfl.Formula.name;
              Printf.sprintf "score %.6f" score;
            ]
      in
      let lines =
        [
          Printf.sprintf "text %s" (pred_text t pred);
          Printf.sprintf "site %d" t.index.Index.meta.Dataset.pred_site.(pred);
          Printf.sprintf "f %d" sc.Scores.f;
          Printf.sprintf "s %d" sc.Scores.s;
          Printf.sprintf "f_obs %d" sc.Scores.f_obs;
          Printf.sprintf "s_obs %d" sc.Scores.s_obs;
          Printf.sprintf "failure %.6f" sc.Scores.failure;
          Printf.sprintf "context %.6f" sc.Scores.context;
          Printf.sprintf "increase %.6f" sc.Scores.increase;
          Printf.sprintf "increase_ci %.6f %.6f" sc.Scores.increase_ci.Sbi_util.Stats.lo
            sc.Scores.increase_ci.Sbi_util.Stats.hi;
          Printf.sprintf "importance %.6f" sc.Scores.importance;
          Printf.sprintf "importance_ci %.6f %.6f" sc.Scores.importance_ci.Sbi_util.Stats.lo
            sc.Scores.importance_ci.Sbi_util.Stats.hi;
        ]
        @ formula_lines
      in
      Ok (Printf.sprintf "pred %d" pred, lines)

let handle_affinity t snap arg k =
  match parse_pred t arg with
  | Error e -> Error e
  | Ok pred ->
      let k = match k with Some k when k > 0 -> k | _ -> 10 in
      let retained = Prune.retained (Triage.Snap.counts snap) in
      let entries = Triage.Snap.affinity snap ~selected:pred ~others:retained in
      let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r in
      let lines =
        List.map
          (fun (e : Affinity.entry) ->
            Printf.sprintf "%d %.6f %.6f %.6f %s" e.Affinity.pred e.Affinity.drop
              e.Affinity.importance_before e.Affinity.importance_after (pred_text t e.Affinity.pred))
          (take k entries)
      in
      Ok (Printf.sprintf "affinity %d %d" pred (List.length lines), lines)

let handle_stats t =
  let idx_lines =
    [
      Printf.sprintf "runs %d" (Index.nruns t.index);
      Printf.sprintf "failures %d" (Index.num_failures t.index);
      Printf.sprintf "segments %d" (Array.length t.index.Index.segments);
      Printf.sprintf "tail_runs %d" (Index.tail_count t.index);
      Printf.sprintf "tail_bytes %d" (Index.tail_bytes t.index);
      Printf.sprintf "ingested %d" t.ingested_n;
      Printf.sprintf "compactions %d" t.compactions;
      Printf.sprintf "uptime_s %.1f" (Unix.gettimeofday () -. t.started_at);
    ]
  in
  let gc_lines =
    match t.gc with
    | None -> []
    | Some gc ->
        let flushes, reports = Group_commit.stats gc in
        [ Printf.sprintf "gc.flushes %d" flushes; Printf.sprintf "gc.reports %d" reports ]
  in
  Ok ("stats", idx_lines @ gc_lines @ Metrics.lines t.metrics)

(* --- ingest ---

   Both the single-report [ingest] command and [ingest-batch] run the
   same three-phase pipeline, preserving durable-before-visible and
   ack ⊆ fsynced:

   1. decode + validate every payload (pure for decode; validation reads
      the index tables under [t.lock]), appending the accepted records
      to the shard log buffer — {e without} fsync;
   2. establish durability: park on the group-commit coordinator (one
      fsync covers every report that arrived in the window, across all
      connections) or, without one, run a single inline {!Shard_log.sync}
      barrier for the whole request;
   3. only after the covering fsync returned, fold the accepted records
      into the live tail under [t.lock] and release the acks.  A failed
      barrier acknowledges nothing and folds nothing — the records may
      or may not be in the log, and the client must retry. *)

let decode_payload b64 =
  match B64.decode b64 with
  | Error e -> Error ("bad base64: " ^ e)
  | Ok payload -> (
      match Codec.decode payload with
      | exception Codec.Corrupt m -> Error ("bad report payload: " ^ m)
      | r -> Ok r)

(* Phase 1 under [t.lock]: validate and raw-append each decoded report.
   Returns the per-payload outcomes plus the accepted reports in order. *)
let append_batch t w items =
  let accepted = ref [] in
  let outcomes =
    List.map
      (fun item ->
        match item with
        | Error _ as e -> e
        | Ok r -> (
            match Index.validate t.index r with
            | exception Invalid_argument m -> Error m
            | () -> (
                match Shard_log.append_raw w r with
                | exception Unix.Unix_error (e, op, _) ->
                    Metrics.fault t.metrics ~kind:"ingest_io";
                    Error
                      (Printf.sprintf "ingest not durable (%s during %s); retry"
                         (Unix.error_message e) op)
                | () ->
                    accepted := r :: !accepted;
                    Ok r)))
      items
  in
  (outcomes, List.rev !accepted)

(* Phase 2: one durability barrier for the whole request. *)
let commit_batch t w n =
  if n = 0 then Ok ()
  else
    match t.gc with
    | Some gc ->
        (* the appends above completed before this submit, so the
           window's covering fsync includes them *)
        let ticket = Group_commit.submit gc n in
        Group_commit.wait gc ticket
    | None -> (
        if not t.config.fsync then Ok ()
        else
          match locked t.lock (fun () -> Shard_log.sync w) with
          | () -> Ok ()
          | exception e -> Error e)

let not_durable_msg = function
  | Unix.Unix_error (e, op, _) ->
      Printf.sprintf "ingest not durable (%s during %s); retry" (Unix.error_message e) op
  | e -> Printf.sprintf "ingest not durable (%s); retry" (Printexc.to_string e)

(* Phase 3: durable — now make visible. *)
let publish_batch t accepted =
  locked t.lock (fun () ->
      List.iter
        (fun r ->
          Index.append t.index r;
          t.ingested_n <- t.ingested_n + 1)
        accepted)

let run_ingest t items =
  match t.writer with
  | None -> Error "ingest disabled (no --log configured)"
  | Some (w, _) -> (
      let outcomes, accepted = locked t.lock (fun () -> append_batch t w items) in
      match commit_batch t w (List.length accepted) with
      | Ok () ->
          publish_batch t accepted;
          Ok outcomes
      | Error e ->
          Metrics.fault t.metrics ~kind:"ingest_io";
          (* nothing was acknowledged durable: every accepted report of
             this request degrades to a retryable per-report error *)
          let msg = not_durable_msg e in
          Ok (List.map (function Ok _ -> Error msg | Error _ as x -> x) outcomes))

let handle_ingest t b64 =
  match run_ingest t [ decode_payload b64 ] with
  | Error e -> Error e
  | Ok [ Ok r ] -> Ok (Printf.sprintf "ingested %d" r.Report.run_id, [])
  | Ok [ Error e ] -> Error e
  | Ok _ -> assert false

(* Batches over [max_batch_lines] never get here: the event loop
   consumes them through the terminator and answers [err] itself. *)
let handle_ingest_batch t payloads =
  match run_ingest t (List.map decode_payload payloads) with
  | Error e -> Error e
  | Ok outcomes ->
      let ok_n = List.length (List.filter Result.is_ok outcomes) in
      let lines =
        List.map
          (function
            | Ok (r : Report.t) -> Printf.sprintf "ok %d" r.Report.run_id
            | Error m -> "err " ^ m)
          outcomes
      in
      Ok (Printf.sprintf "ingest-batch %d %d" ok_n (List.length outcomes - ok_n), lines)

(* --- request dispatch --- *)

let cmd_name line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let dispatch t line =
  let words = List.filter (fun w -> w <> "") (String.split_on_char ' ' line) in
  match words with
  | [ "ping" ] -> Ok ("pong", [])
  | "topk" :: rest -> (
      match split_formula_arg rest with
      | Error e -> Error e
      | Ok (formula, rest) -> (
          match rest with
          | [] -> handle_topk ?formula t (grab_snapshot t) None
          | [ k ] -> handle_topk ?formula t (grab_snapshot t) (int_of_string_opt k)
          | _ -> Error "usage: topk [K] [formula=NAME]"))
  | "pred" :: rest -> (
      match split_formula_arg rest with
      | Error e -> Error e
      | Ok (formula, rest) -> (
          match rest with
          | [ id ] -> handle_pred ?formula t (grab_snapshot t) id
          | _ -> Error "usage: pred ID [formula=NAME]"))
  | [ "formulas" ] -> handle_formulas ()
  | [ "affinity"; id ] -> handle_affinity t (grab_snapshot t) id None
  | [ "affinity"; id; k ] -> handle_affinity t (grab_snapshot t) id (int_of_string_opt k)
  | [ "stats" ] -> locked t.lock (fun () -> handle_stats t)
  | [ "metrics" ] -> Ok ("metrics", Sbi_obs.Registry.lines ())
  | [ "trace" ] ->
      let lines = Sbi_obs.Trace.lines () in
      Ok (Printf.sprintf "trace %d" (List.length lines), lines)
  | [ "trace"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
          let lines = Sbi_obs.Trace.lines ~n () in
          Ok (Printf.sprintf "trace %d" (List.length lines), lines)
      | _ -> Error ("bad trace count: " ^ n))
  | [ "ingest"; payload ] -> handle_ingest t payload
  | [ "ingest-batch" ] ->
      (* the bare command line opens a payload body, which the event
         loop parses into a [Batch] request; only a padded variant of
         the line can land here *)
      Error "ingest-batch payloads missing (framing error)"
  | [] -> Error "empty command"
  | cmd :: _ ->
      Error
        (Printf.sprintf
           "unknown command %s (try: ping topk pred formulas affinity stats metrics trace \
            ingest ingest-batch quit)"
           cmd)

(* One parsed request through dispatch: the trace span and per-request
   fault isolation. *)
let eval_request t ~cmd (req : Evloop.request) =
  try
    Sbi_obs.Trace.with_span ~name:("serve." ^ cmd) (fun () ->
        match req with
        | Evloop.Line line -> dispatch t line
        | Evloop.Batch payloads -> handle_ingest_batch t payloads)
  with
  | Sbi_fault.Fault.Crash _ as e -> raise e
  | e ->
      Metrics.fault t.metrics ~kind:"error";
      Metrics.request_error t.metrics ~cmd;
      Error ("internal error: " ^ Printexc.to_string e)

(* The {!Evloop} handler: runs on a dispatch worker thread with the
   request already parsed off the wire by the loop's state machine, and
   renders the full response body for the loop's write buffer.  Latency
   covers dispatch + render; the write drain happens asynchronously on
   the loop.  Monotonic clock: an NTP step mid-request must not yield a
   negative or inflated latency. *)
let handle t (req : Evloop.request) : Evloop.response =
  match req with
  | Evloop.Line "quit" ->
      { Evloop.body = Wire.render_ok ~header:"bye" ~lines:[]; close = true }
  | _ ->
      let line, bytes_in =
        match req with
        | Evloop.Line l -> (l, String.length l + 1)
        | Evloop.Batch payloads ->
            ( "ingest-batch",
              List.fold_left
                (fun acc p -> acc + String.length p + 1)
                (String.length "ingest-batch\n.\n") payloads )
      in
      let cmd = cmd_name line in
      let t0 = Sbi_obs.Clock.now_ns () in
      let body =
        match eval_request t ~cmd req with
        | Ok (header, lines) -> Wire.render_ok ~header ~lines
        | Error msg -> Wire.render_err msg
      in
      let latency_ns = Sbi_obs.Clock.now_ns () - t0 in
      Metrics.record t.metrics ~cmd ~latency_ns ~bytes_in
        ~bytes_out:(String.length body);
      let args =
        match String.index_opt line ' ' with
        | Some i -> String.sub line (i + 1) (String.length line - i - 1)
        | None -> ""
      in
      Sbi_obs.Slowlog.observe ~cmd ~args ~dur_ns:latency_ns
        ~epoch:(Index.epoch t.index);
      { Evloop.body; close = false }

(* --- background compaction ---

   Durable-before-visible is preserved across an index swap: compaction
   only rewrites already-indexed segments (never the source log), and
   the fresh index takes over the live tail by reference under t.lock,
   so no acknowledged report ever leaves the queryable population.
   [Index.compact] deletes the merged-away files at once: the old index
   and every snapshot of it read them through their mappings, which the
   GC releases with the last of them. *)

let compact_once t =
  let dir = t.index.Index.dir in
  match
    let st = Index.compact ~io:t.config.io ~tier_max:t.config.tier_max ~dir () in
    if st.Index.cp_written > 0 then Some (Index.open_ ~dir) else None
  with
  | exception e ->
      Metrics.fault t.metrics ~kind:"compact";
      Sbi_obs.Trace.with_span ~name:"serve.compact.error" ~args:(Printexc.to_string e)
        (fun () -> ())
  | None -> ()
  | Some fresh ->
      locked t.lock (fun () ->
          t.index <- Index.with_tail_of fresh ~from:t.index;
          t.compactions <- t.compactions + 1)

let compact_loop t period =
  (* monotonic scheduling: an NTP step must not fire (or starve) the
     --compact-every period *)
  let period_ns = int_of_float (period *. 1e9) in
  let next = ref (Sbi_obs.Clock.now_ns () + period_ns) in
  while not (Atomic.get t.stop_flag) do
    Thread.delay 0.1;
    if (not (Atomic.get t.stop_flag)) && Sbi_obs.Clock.now_ns () >= !next then begin
      compact_once t;
      next := Sbi_obs.Clock.now_ns () + period_ns
    end
  done

(* --- lifecycle --- *)

let fresh_shard_id ~dir =
  match Shard_log.shard_files ~dir with
  | [] -> 0
  | files -> 1 + List.fold_left (fun acc (i, _) -> max acc i) 0 files

let open_ingest_writer config (index : Index.t) =
  match config.ingest_log with
  | None -> None
  | Some dir ->
      if not (Sys.file_exists (Filename.concat dir "meta")) then
        Shard_log.write_meta ~io:config.io ~dir index.Index.meta;
      let shard = fresh_shard_id ~dir in
      Some
        ( Shard_log.create_writer ~io:config.io ~fsync:config.fsync ~dir ~shard (),
          Shard_log.shard_path ~dir shard )

(* A shard that took no record is a bare header: remove it rather than
   leave one behind per server start.  No manifest's consumed offsets
   ever name such a shard, so nothing refers to it. *)
let close_ingest_writer (w, path) =
  if (Shard_log.close_writer w).Shard_log.records = 0 then
    try Sys.remove path with Sys_error _ -> ()

(* The one listener, on every transport.  The deep backlog absorbs
   connection storms between accept bursts. *)
let make_listener sa =
  let domain = Unix.domain_of_sockaddr sa in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  try
    (match domain with
    | Unix.PF_INET | Unix.PF_INET6 -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | _ -> ());
    Unix.bind fd sa;
    Unix.listen fd 1024;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let start config index =
  if config.acceptors < 1 then invalid_arg "Server.start: acceptors must be >= 1";
  if config.max_conns < 1 then invalid_arg "Server.start: max_conns must be >= 1";
  (* a peer that disconnects mid-response must not kill the process;
     the write surfaces as Sys_error/EPIPE and closes that connection *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let sa =
    match Wire.sockaddr config.addr with
    | Ok sa -> sa
    | Error m -> invalid_arg ("cannot bind: " ^ m)
  in
  (match config.addr with
  | Wire.Unix_sock path when Sys.file_exists path -> Sys.remove path
  | _ -> ());
  let listen_fd = make_listener sa in
  (* everything acquired below must be released if a later step raises
     (e.g. an unwritable --log dir): the listener fd, the bound socket
     file, the ingest writer, the commit coordinator —
     a failed start leaks nothing and the address is immediately
     rebindable *)
  let writer = ref None and gc = ref None and ev = ref None in
  match
    writer := open_ingest_writer config index;
    (match !writer with
    | Some (w, _) when config.fsync && config.group_commit_ms > 0. ->
        gc :=
          Some
            (Group_commit.create ~max_batch:config.max_batch
               ~max_delay_ms:config.group_commit_ms
               ~sync:(fun () -> Shard_log.sync w)
               ())
    | _ -> ());
    let t =
      {
        config;
        index;
        lock = Mutex.create ();
        metrics = Metrics.create ();
        listen_fd;
        ev = None;
        stop_flag = Atomic.make false;
        writer = !writer;
        gc = !gc;
        started_at = Unix.gettimeofday ();
        ingested_n = 0;
        compactions = 0;
        compact_thread = None;
      }
    in
    let ev_cfg =
      {
        Evloop.loops = config.acceptors;
        workers = max 4 (2 * config.acceptors);
        max_conns = config.max_conns;
        max_line = config.max_request;
        max_batch_lines;
        idle_timeout_ns =
          (if config.timeout > 0. then int_of_float (config.timeout *. 1e9) else 0);
        io = config.io;
        handler = (fun req -> handle t req);
        on_fault = (fun kind -> Metrics.fault t.metrics ~kind);
        on_open = (fun () -> Metrics.connection_opened t.metrics);
        on_close = (fun () -> Metrics.connection_closed t.metrics);
      }
    in
    ev := Some (Evloop.start ev_cfg listen_fd);
    t.ev <- !ev;
    (match config.compact_every with
    | Some period when period > 0. ->
        t.compact_thread <- Some (Thread.create (fun () -> compact_loop t period) ())
    | _ -> ());
    t
  with
  | t -> t
  | exception e ->
      (match !ev with Some g -> ( try Evloop.stop g with _ -> ()) | None -> ());
      (match !gc with Some g -> ( try Group_commit.stop g with _ -> ()) | None -> ());
      (match !writer with Some w -> ( try close_ingest_writer w with _ -> ()) | None -> ());
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (match config.addr with
      | Wire.Unix_sock path when Sys.file_exists path -> (
          try Sys.remove path with Sys_error _ -> ())
      | _ -> ());
      raise e

let addr t = t.config.addr

let stop t =
  if not (Atomic.exchange t.stop_flag true) then begin
    (* join the loop domains (closing every connection) and drain the
       dispatch workers, then retire the listener.  In-flight ingests
       complete against the still-live group-commit coordinator. *)
    Option.iter Evloop.stop t.ev;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.compact_thread with Some th -> Thread.join th | None -> ());
    (* workers are gone, so no submitter can race the final flush: stop
       the coordinator (flushing any pending window) before the writer
       closes underneath it *)
    (match t.gc with Some gc -> Group_commit.stop gc | None -> ());
    locked t.lock (fun () -> Option.iter close_ingest_writer t.writer);
    match t.config.addr with
    | Wire.Unix_sock path when Sys.file_exists path -> ( try Sys.remove path with Sys_error _ -> ())
    | _ -> ()
  end

let ingested t = locked t.lock (fun () -> t.ingested_n)
let worker_count t = match t.ev with Some g -> Evloop.conn_count g | None -> 0
