(* Tests for the triage server stack: base64, wire framing, address
   parsing, metrics, the server lifecycle over a Unix socket, durable
   ingest, and sustained concurrent clients with interleaved requests. *)
open Sbi_runtime
open Sbi_ingest
open Sbi_index
open Sbi_serve

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_srv" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* --- base64 --- *)

let test_b64_vectors () =
  List.iter
    (fun (plain, enc) ->
      Alcotest.(check string) ("encode " ^ plain) enc (B64.encode plain);
      match B64.decode enc with
      | Ok p -> Alcotest.(check string) ("decode " ^ enc) plain p
      | Error e -> Alcotest.failf "decode %s failed: %s" enc e)
    [
      ("", "");
      ("f", "Zg==");
      ("fo", "Zm8=");
      ("foo", "Zm9v");
      ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE=");
      ("foobar", "Zm9vYmFy");
      ("\x00\xff\x10", "AP8Q");
    ];
  List.iter
    (fun bad ->
      match B64.decode bad with
      | Ok _ -> Alcotest.failf "decode %S should fail" bad
      | Error _ -> ())
    [ "Zg="; "Zg"; "Z"; "Zm9v!"; "=Zg="; "Zm=v"; "Zh==" ]

let qcheck_b64_round_trip =
  QCheck2.Test.make ~name:"base64 round-trips arbitrary bytes" ~count:500
    QCheck2.Gen.string (fun s -> B64.decode (B64.encode s) = Ok s)

(* --- addresses and framing --- *)

let test_addr_parsing () =
  (match Wire.addr_of_string "/tmp/x.sock" with
  | Ok (Wire.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Wire.addr_of_string "localhost:7077" with
  | Ok (Wire.Tcp ("localhost", 7077)) -> ()
  | _ -> Alcotest.fail "host:port");
  (match Wire.addr_of_string ":8080" with
  | Ok (Wire.Tcp ("127.0.0.1", 8080)) -> ()
  | _ -> Alcotest.fail "default host");
  List.iter
    (fun bad ->
      match Wire.addr_of_string bad with
      | Ok _ -> Alcotest.failf "address %S should be rejected" bad
      | Error _ -> ())
    [ ""; "nohost"; "host:"; "host:0"; "host:99999"; "host:x" ];
  Alcotest.(check string) "to_string" "localhost:7077"
    (Wire.addr_to_string (Wire.Tcp ("localhost", 7077)))

let test_wire_framing () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "frame" in
      let payload = [ "plain"; ".starts with dot"; ""; "..double"; "last" ] in
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
      Wire.write_string fd (Wire.render_ok ~header:"topk 5" ~lines:payload);
      Wire.write_string fd (Wire.render_err "boom");
      Unix.close fd;
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0o600 in
      let rd = Wire.reader fd in
      (match Wire.read_response rd with
      | Ok (header, lines) ->
          Alcotest.(check string) "header" "topk 5" header;
          Alcotest.(check (list string)) "dot-stuffing round trip" payload lines
      | Error e -> Alcotest.failf "unexpected err: %s" e);
      (match Wire.read_response rd with
      | Error "boom" -> ()
      | _ -> Alcotest.fail "expected err response");
      Unix.close fd)

(* --- metrics --- *)

let test_metrics () =
  let m = Metrics.create () in
  Metrics.connection_opened m;
  Metrics.record m ~cmd:"topk" ~latency_ns:3_000 ~bytes_in:7 ~bytes_out:100;
  Metrics.record m ~cmd:"topk" ~latency_ns:900_000 ~bytes_in:7 ~bytes_out:100;
  Metrics.record m ~cmd:"pred" ~latency_ns:20_000 ~bytes_in:8 ~bytes_out:50;
  Metrics.connection_closed m;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "requests" 3 s.Metrics.requests;
  Alcotest.(check int) "bytes in" 22 s.Metrics.bytes_in;
  Alcotest.(check int) "bytes out" 250 s.Metrics.bytes_out;
  Alcotest.(check int) "open connections" 0 s.Metrics.connections;
  Alcotest.(check int) "total connections" 1 s.Metrics.connections_total;
  Alcotest.(check (list (pair string int))) "per command"
    [ ("pred", 1); ("topk", 2) ]
    s.Metrics.per_command;
  let bound_us = function Sbi_obs.Hist.Le us -> us | Sbi_obs.Hist.Gt us -> us + 1 in
  (match (s.Metrics.p50, s.Metrics.p99) with
  | Some p50, Some p99 ->
      Alcotest.(check bool) "p50 <= p99" true (bound_us p50 <= bound_us p99)
  | _ -> Alcotest.fail "percentiles must be present");
  Alcotest.(check bool) "histogram covers requests" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Metrics.latency_buckets = 3);
  Alcotest.(check bool) "stats lines mention requests" true
    (List.exists (fun l -> l = "requests 3") (Metrics.lines m))

(* Regression (ISSUE 5): a 30 s request lands in the overflow bucket and
   must be reported as gt_8388608us with saturated percentiles — never
   under a false finite latency_le_* bound. *)
let test_metrics_overflow () =
  let m = Metrics.create () in
  Metrics.record m ~cmd:"topk" ~latency_ns:30_000_000_000 ~bytes_in:7 ~bytes_out:100;
  let s = Metrics.snapshot m in
  (match s.Metrics.latency_buckets with
  | [ (Sbi_obs.Hist.Gt 8388608, 1) ] -> ()
  | _ -> Alcotest.fail "30s observation must be a distinct Gt 8388608 bucket");
  (match s.Metrics.p50 with
  | Some (Sbi_obs.Hist.Gt 8388608) -> ()
  | _ -> Alcotest.fail "p50 must saturate to Gt 8388608");
  let lines = Metrics.lines m in
  Alcotest.(check bool) "gt line emitted" true (List.mem "latency_gt_8388608us 1" lines);
  Alcotest.(check bool) "p50 saturates" true (List.mem "latency_p50_us >8388608" lines);
  Alcotest.(check bool) "no false le bound" false
    (List.exists
       (fun l -> String.length l >= 11 && String.sub l 0 11 = "latency_le_")
       lines)

(* Regression (ISSUE 5): a negative duration (broken clock source) is
   clamped to 0 and surfaced as clock_anomaly, not silently filed in the
   <=1us bucket as a plausible latency. *)
let test_metrics_clock_anomaly () =
  let m = Metrics.create () in
  Metrics.record m ~cmd:"topk" ~latency_ns:(-5_000_000) ~bytes_in:7 ~bytes_out:100;
  Metrics.record m ~cmd:"topk" ~latency_ns:3_000 ~bytes_in:7 ~bytes_out:100;
  let s = Metrics.snapshot m in
  Alcotest.(check int) "anomaly counted" 1 s.Metrics.clock_anomalies;
  Alcotest.(check int) "both requests recorded" 2
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Metrics.latency_buckets);
  Alcotest.(check bool) "clock_anomaly line" true
    (List.mem "clock_anomaly 1" (Metrics.lines m))

(* Regression (ISSUE 5): faults mid-command are attributed to the
   command so per-command success/failure is reconstructible. *)
let test_metrics_request_error () =
  let m = Metrics.create () in
  Metrics.record m ~cmd:"topk" ~latency_ns:3_000 ~bytes_in:7 ~bytes_out:100;
  Metrics.request_error m ~cmd:"topk";
  Metrics.request_error m ~cmd:"topk";
  Metrics.request_error m ~cmd:"pred";
  let s = Metrics.snapshot m in
  Alcotest.(check (list (pair string int))) "per-command errors"
    [ ("pred", 1); ("topk", 2) ]
    s.Metrics.per_command_err;
  let lines = Metrics.lines m in
  Alcotest.(check bool) "req.topk.err line" true (List.mem "req.topk.err 2" lines);
  Alcotest.(check bool) "req.pred.err line" true (List.mem "req.pred.err 1" lines)

(* --- server fixture --- *)

let nsites = 5
let npreds = 10
let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3; 4; 4 |]

let mk_report ?(outcome = Report.Success) ?(sites = [||]) ?(preds = [||]) id =
  {
    Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = Array.map (fun _ -> 1) preds;
    bugs = [||];
    crash_sig = None;
  }

let base_reports =
  Array.init 30 (fun i ->
      let failing = i mod 3 = 0 in
      mk_report
        ~outcome:(if failing then Report.Failure else Report.Success)
        ~sites:[| 0; 1; (i mod 3) + 2 |]
        ~preds:(if failing then [| 0; 3 |] else [| 1 |])
        i)

(* Probe a free TCP port by binding port 0 and reading back the kernel's
   choice.  Slightly racy (another process could grab it before the
   server rebinds) but fine inside the test container. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

(* A live server over the fixture index on [acceptors] event loops.  The
   group-commit window defaults to [Server.default_config]'s — what
   [cbi serve] runs.  [tcp] swaps the Unix socket for a loopback TCP
   listener, so the same shared-listener accept path runs over TCP. *)
let with_server ~acceptors ?(max_conns = 4096) ?(tcp = false) ?(fsync = true)
    ?group_commit_ms ?(timeout = 10.) f =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      Shard_log.write_meta ~dir:log
        (Dataset.of_tables ~nsites ~npreds ~pred_site [||]);
      let w = Shard_log.create_writer ~dir:log ~shard:0 () in
      Array.iter (Shard_log.append w) base_reports;
      ignore (Shard_log.close_writer w);
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let addr =
        if tcp then Wire.Tcp ("127.0.0.1", free_port ())
        else Wire.Unix_sock (Filename.concat tmp "sock")
      in
      let ingest_dir = Filename.concat tmp "ingest" in
      let base = Server.default_config addr in
      let config =
        {
          base with
          Server.timeout;
          fsync;
          ingest_log = Some ingest_dir;
          group_commit_ms = Option.value group_commit_ms ~default:base.Server.group_commit_ms;
          acceptors;
          max_conns;
        }
      in
      let srv = Server.start config idx in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () -> f ~srv ~addr ~idx ~ingest_dir))

let connect_ok addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %s" e

let request_ok client line =
  match Client.request client line with
  | Ok (header, lines) -> (header, lines)
  | Error e -> Alcotest.failf "request %S failed: %s" line e

(* Raw-socket helpers: protocol-level tests that need to see exactly
   what the server writes (busy replies, pipelined responses, EOF). *)
let raw_connect addr =
  let sa =
    match addr with
    | Wire.Unix_sock p -> Unix.ADDR_UNIX p
    | Wire.Tcp (h, p) -> Unix.ADDR_INET (Unix.inet_addr_of_string h, p)
  in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  Unix.connect fd sa;
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let max_fd_num () =
  Array.fold_left
    (fun m s -> match int_of_string_opt s with Some n -> max m n | None -> m)
    0 (Sys.readdir "/proc/self/fd")

(* --- server lifecycle --- *)

let test_server_basic ~acceptors () =
  with_server ~acceptors (fun ~srv:_ ~addr ~idx ~ingest_dir:_ ->
      let c = connect_ok addr in
      let header, _ = request_ok c "ping" in
      Alcotest.(check string) "ping" "pong" header;
      let expected = Triage.topk ~k:3 idx in
      Alcotest.(check bool) "fixture retains predicates" true (expected <> []);
      let header, lines = request_ok c "topk 3" in
      Alcotest.(check string) "topk header"
        (Printf.sprintf "topk %d" (List.length expected))
        header;
      Alcotest.(check int) "topk lines" (List.length expected) (List.length lines);
      List.iteri
        (fun i line ->
          let sc = List.nth expected i in
          Alcotest.(check bool)
            (Printf.sprintf "rank %d mentions pred %d" (i + 1) sc.Sbi_core.Scores.pred)
            true
            (String.length line > 2
            && int_of_string (List.nth (String.split_on_char ' ' line) 1)
               = sc.Sbi_core.Scores.pred))
        lines;
      let header, lines = request_ok c "pred 3" in
      Alcotest.(check string) "pred header" "pred 3" header;
      Alcotest.(check bool) "pred detail has importance" true
        (List.exists
           (fun l -> String.length l >= 11 && String.sub l 0 11 = "importance ")
           lines);
      let _, stats = request_ok c "stats" in
      Alcotest.(check bool) "stats has runs" true (List.mem "runs 30" stats);
      (match Client.request c "pred 9999" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-range pred must err");
      (match Client.request c "nonsense 1 2 3" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "unknown command must err");
      Client.close c)

let test_server_obs_commands ~acceptors () =
  with_server ~acceptors (fun ~srv:_ ~addr ~idx:_ ~ingest_dir:_ ->
      let c = connect_ok addr in
      ignore (request_ok c "ping");
      ignore (request_ok c "topk 3");
      let header, lines = request_ok c "metrics" in
      Alcotest.(check string) "metrics header" "metrics" header;
      Alcotest.(check bool) "registry saw the fixture's log appends" true
        (List.exists (fun l -> contains l "log.append.count ") lines);
      let header, lines = request_ok c "trace 50" in
      Alcotest.(check bool) "trace header counts lines" true (contains header "trace ");
      Alcotest.(check bool) "earlier request's span is retained" true
        (List.exists (fun l -> contains l "name=serve.topk") lines);
      (match Client.request c "trace nope" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad trace count must err");
      Client.close c)

(* Group commit off: the one fsync-on test that drives the inline
   per-request durability barrier. *)
let test_server_ingest_durable ~acceptors () =
  with_server ~acceptors ~group_commit_ms:0. (fun ~srv ~addr ~idx ~ingest_dir ->
      let c = connect_ok addr in
      let fresh =
        mk_report ~outcome:Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0; 4 |] 1000
      in
      let header, _ =
        request_ok c ("ingest " ^ B64.encode (Codec.encode fresh))
      in
      Alcotest.(check string) "acknowledged" "ingested 1000" header;
      (* durable before the server shuts down: fsync already pushed the
         record into the shard file *)
      let ds, _ = Shard_log.read_all ~dir:ingest_dir in
      Alcotest.(check int) "record on disk while server is live" 1 (Dataset.nruns ds);
      Alcotest.(check int) "live tail" 1 (Index.tail_count idx);
      Alcotest.(check int) "server counter" 1 (Server.ingested srv);
      (* the very next query sees the new run *)
      let _, stats = request_ok c "stats" in
      Alcotest.(check bool) "stats sees 31 runs" true (List.mem "runs 31" stats);
      (* bad payloads must not touch state *)
      (match Client.request c "ingest !!!notbase64" with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad base64 must err");
      (match Client.request c "ingest " with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "empty ingest must err");
      let bad_pred = mk_report ~sites:[| 0 |] ~preds:[| npreds + 5 |] 1001 in
      (match Client.request c ("ingest " ^ B64.encode (Codec.encode bad_pred)) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "out-of-table report must err");
      Alcotest.(check int) "rejects left no trace" 1 (Index.tail_count idx);
      Client.close c)

let test_server_concurrent_clients ~acceptors () =
  with_server ~acceptors (fun ~srv ~addr ~idx:_ ~ingest_dir:_ ->
      let nclients = 5 and per_client = 12 in
      let errors = Queue.create () in
      let errors_lock = Mutex.create () in
      let fail_locked msg =
        Mutex.lock errors_lock;
        Queue.add msg errors;
        Mutex.unlock errors_lock
      in
      let worker cid =
        try
          let c = connect_ok addr in
          for i = 0 to per_client - 1 do
            match i mod 3 with
            | 0 ->
                let r =
                  mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |]
                    (10_000 + (cid * 1000) + i)
                in
                let header, _ = request_ok c ("ingest " ^ B64.encode (Codec.encode r)) in
                if header <> Printf.sprintf "ingested %d" (10_000 + (cid * 1000) + i) then
                  fail_locked ("bad ingest ack: " ^ header)
            | 1 ->
                let header, lines = request_ok c "topk 5" in
                let n = Scanf.sscanf header "topk %d" (fun n -> n) in
                if n <> List.length lines then fail_locked ("short topk: " ^ header)
            | _ ->
                let header, lines = request_ok c "pred 0" in
                if header <> "pred 0" then fail_locked ("bad pred header: " ^ header);
                if not (List.exists (fun l -> l = "pred 0" || String.length l > 0) lines)
                then fail_locked "empty pred detail"
          done;
          Client.close c
        with e -> fail_locked (Printexc.to_string e)
      in
      let threads = List.init nclients (fun cid -> Thread.create worker cid) in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no client errors" [] (List.of_seq (Queue.to_seq errors));
      let ingests = nclients * ((per_client + 2) / 3) in
      Alcotest.(check int) "every ingest accepted" ingests (Server.ingested srv);
      (* all requests were served and accounted.  The handler records a
         request's metrics just after writing its response, so a client can
         see its last reply before the server has recorded it: poll briefly
         instead of asserting on the first stats snapshot. *)
      let c = connect_ok addr in
      let worker_requests stats =
        List.fold_left
          (fun acc l ->
            match String.split_on_char ' ' l with
            | [ ("req.ingest" | "req.topk" | "req.pred"); n ] -> acc + int_of_string n
            | _ -> acc)
          0 stats
      in
      let rec poll tries =
        let _, stats = request_ok c "stats" in
        let n = worker_requests stats in
        if n >= nclients * per_client || tries = 0 then n
        else (
          Thread.delay 0.02;
          poll (tries - 1))
      in
      Alcotest.(check int) "metrics saw the load" (nclients * per_client) (poll 100);
      Client.close c)

let test_server_ingest_batch ~acceptors () =
  with_server ~acceptors (fun ~srv ~addr ~idx ~ingest_dir ->
      let c = connect_ok addr in
      let fresh i = mk_report ~outcome:Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0; 4 |] i in
      let reports = List.init 5 (fun i -> fresh (2000 + i)) in
      (match Client.ingest_batch c reports with
      | Ok statuses ->
          Alcotest.(check (list (result int string)))
            "every report acked in submission order"
            (List.init 5 (fun i -> Ok (2000 + i)))
            statuses
      | Error e -> Alcotest.failf "ingest-batch failed: %s" e);
      let ds, _ = Shard_log.read_all ~dir:ingest_dir in
      Alcotest.(check int) "whole batch durable" 5 (Dataset.nruns ds);
      Alcotest.(check int) "whole batch visible" 5 (Index.tail_count idx);
      Alcotest.(check int) "server counter" 5 (Server.ingested srv);
      (* rejections are per-report: valid neighbours still land *)
      let bad = mk_report ~sites:[| 0 |] ~preds:[| npreds + 3 |] 2100 in
      (match Client.ingest_batch c [ fresh 2101; bad; fresh 2102 ] with
      | Ok [ Ok 2101; Error _; Ok 2102 ] -> ()
      | Ok sts -> Alcotest.failf "unexpected mixed-batch statuses (%d)" (List.length sts)
      | Error e -> Alcotest.failf "mixed batch failed: %s" e);
      let ds, _ = Shard_log.read_all ~dir:ingest_dir in
      Alcotest.(check int) "only valid reports durable" 7 (Dataset.nruns ds);
      Alcotest.(check int) "tail tracks accepted reports" 7 (Index.tail_count idx);
      (* an empty batch is a no-op, not a protocol error *)
      (match Client.ingest_batch c [] with
      | Ok [] -> ()
      | Ok _ -> Alcotest.fail "empty batch must ack nothing"
      | Error e -> Alcotest.failf "empty batch failed: %s" e);
      (* the connection survives a batch with rejects *)
      let header, _ = request_ok c "ping" in
      Alcotest.(check string) "still serving" "pong" header;
      Client.close c)

let test_server_group_commit ~acceptors () =
  (* group-commit mode: appends park on the coordinator's windowed fsync;
     every ack must still imply durability, and the shared barrier must
     be visible in stats *)
  with_server ~acceptors ~group_commit_ms:4. (fun ~srv ~addr ~idx ~ingest_dir ->
      let nclients = 4 and batches = 3 and batch = 8 and singles = 4 in
      let per_client = (batches * batch) + singles in
      let errors = Queue.create () in
      let errors_lock = Mutex.create () in
      let fail_locked msg =
        Mutex.lock errors_lock;
        Queue.add msg errors;
        Mutex.unlock errors_lock
      in
      let worker cid =
        try
          let c = connect_ok addr in
          let base = 5000 + (cid * 1000) in
          for b = 0 to batches - 1 do
            let chunk =
              List.init batch (fun i ->
                  mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |]
                    (base + (b * batch) + i))
            in
            match Client.ingest_batch c chunk with
            | Ok statuses ->
                if not (List.for_all Result.is_ok statuses) then
                  fail_locked "group-commit batch rejected a valid report"
            | Error e -> fail_locked ("group-commit batch failed: " ^ e)
          done;
          for i = 0 to singles - 1 do
            let r =
              mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0 |]
                (base + (batches * batch) + i)
            in
            match Client.request c ("ingest " ^ B64.encode (Codec.encode r)) with
            | Ok _ -> ()
            | Error e -> fail_locked ("group-commit single ingest failed: " ^ e)
          done;
          Client.close c
        with e -> fail_locked (Printexc.to_string e)
      in
      let threads = List.init nclients (fun cid -> Thread.create worker cid) in
      List.iter Thread.join threads;
      Alcotest.(check (list string)) "no client errors" []
        (List.of_seq (Queue.to_seq errors));
      let total = nclients * per_client in
      Alcotest.(check int) "every report accepted" total (Server.ingested srv);
      (* ack happened after the covering fsync: all records are on disk *)
      let ds, _ = Shard_log.read_all ~dir:ingest_dir in
      Alcotest.(check int) "every acked report durable" total (Dataset.nruns ds);
      Alcotest.(check int) "every acked report visible" total (Index.tail_count idx);
      let c = connect_ok addr in
      let _, stats = request_ok c "stats" in
      let stat_value name =
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ n; v ] when n = name -> int_of_string_opt v
            | _ -> None)
          stats
      in
      (match stat_value "gc.flushes" with
      | Some n -> Alcotest.(check bool) "at least one group flush" true (n >= 1)
      | None -> Alcotest.fail "stats missing gc.flushes");
      (match stat_value "gc.reports" with
      | Some n -> Alcotest.(check int) "every report went through the coordinator" total n
      | None -> Alcotest.fail "stats missing gc.reports");
      Client.close c)

let test_conn_gauge_drains ~acceptors () =
  (* churn many short-lived connections and require the connection
     gauge to drain to exactly zero: no admission slot may leak *)
  with_server ~acceptors (fun ~srv ~addr ~idx:_ ~ingest_dir:_ ->
      let failures = Atomic.make 0 in
      for _ = 1 to 3 do
        let threads =
          List.init 8 (fun _ ->
              Thread.create
                (fun () ->
                  try
                    let c = connect_ok addr in
                    ignore (request_ok c "ping");
                    Client.close c
                  with _ -> Atomic.incr failures)
                ())
        in
        List.iter Thread.join threads
      done;
      Alcotest.(check int) "no client failures" 0 (Atomic.get failures);
      (* a loop closes a connection after the client hangs up; poll briefly *)
      let rec poll tries =
        let n = Server.worker_count srv in
        if n = 0 || tries = 0 then n
        else begin
          Thread.delay 0.02;
          poll (tries - 1)
        end
      in
      Alcotest.(check int) "connection gauge drains to zero" 0 (poll 250))

let test_send_deadline ~acceptors () =
  (* a peer that pipelines requests and never reads a byte back: once the
     socket buffers fill, its pending response must hit the loop's idle
     deadline and be counted as fault.send_timeout — not hold the
     connection forever *)
  with_server ~acceptors ~timeout:0.4 (fun ~srv:_ ~addr ~idx:_ ~ingest_dir:_ ->
      let sock =
        match addr with Wire.Unix_sock p -> p | _ -> Alcotest.fail "unix fixture"
      in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      (* enough pipelined requests that the responses overflow the
         server-side send buffer while we refuse to read *)
      let nreq = 5_000 in
      let buf = Buffer.create (nreq * 8) in
      for _ = 1 to nreq do
        Buffer.add_string buf "topk 10\n"
      done;
      let payload = Bytes.of_string (Buffer.contents buf) in
      let rec wr off =
        if off < Bytes.length payload then
          match Unix.write fd payload off (Bytes.length payload - off) with
          | n -> wr (off + n)
          | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
      in
      wr 0;
      let c = connect_ok addr in
      let rec poll tries =
        let _, stats = request_ok c "stats" in
        let hit = List.exists (fun l -> contains l "fault.send_timeout") stats in
        if hit || tries = 0 then hit
        else begin
          Thread.delay 0.05;
          poll (tries - 1)
        end
      in
      Alcotest.(check bool) "send deadline counted as fault.send_timeout" true (poll 100);
      Client.close c;
      try Unix.close fd with Unix.Unix_error _ -> ())

let fault_count stats kind =
  let prefix = Printf.sprintf "fault.%s " kind in
  let n = String.length prefix in
  List.fold_left
    (fun acc l ->
      if String.length l > n && String.sub l 0 n = prefix then
        int_of_string (String.sub l n (String.length l - n))
      else acc)
    0 stats

(* [Client.close] writes [quit] and hangs up without reading [bye]: that
   is a clean close, so the server's [bye] meeting a closed socket must
   not count as [fault.reset].  A peer that drops a connection in the
   middle of a request still counts exactly one: the server either writes
   its reply into a closed socket (EPIPE) or, if the reply landed first,
   reads the reset the unread reply caused. *)
let test_quit_is_not_a_fault ~acceptors () =
  with_server ~acceptors (fun ~srv ~addr ~idx:_ ~ingest_dir:_ ->
      for _ = 1 to 20 do
        Client.close (connect_ok addr)
      done;
      let rec drain tries =
        let n = Server.worker_count srv in
        if n = 0 || tries = 0 then n
        else begin
          Thread.delay 0.02;
          drain (tries - 1)
        end
      in
      Alcotest.(check int) "all 20 connections closed" 0 (drain 250);
      let c = connect_ok addr in
      let _, stats = request_ok c "stats" in
      Alcotest.(check int) "clean quit is not fault.reset" 0 (fault_count stats "reset");
      let fd = raw_connect addr in
      write_all fd "topk 3\n";
      Unix.close fd;
      let rec resets tries =
        let n = fault_count (snd (request_ok c "stats")) "reset" in
        if n > 0 || tries = 0 then n
        else begin
          Thread.delay 0.02;
          resets (tries - 1)
        end
      in
      Alcotest.(check int) "a drop mid-request counts one fault.reset" 1 (resets 250);
      Client.close c)

(* Hostile payloads in one batch: a wide varint as the site count (no
   non-negative int) and a predicate id repeated by a zero delta.  Each
   gets its own [err] line; the valid report beside them is acked,
   durable and visible, and no exception reaches the dispatcher. *)
let test_server_ingest_batch_hostile () =
  with_server ~acceptors:1 (fun ~srv ~addr ~idx ~ingest_dir ->
      let c = connect_ok addr in
      let payload body =
        let b = Buffer.create 32 in
        Codec.add_varint b Codec.version;
        Codec.add_varint b 2501;
        Buffer.add_char b '\001';
        Buffer.add_string b body;
        Buffer.contents b
      in
      let wide_count = payload (String.make 8 '\xff' ^ "\x40\000\000\000\000") in
      let repeated_pred = payload "\002\000\002\002\000\000\001\001\000\000" in
      let valid = mk_report ~outcome:Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0; 4 |] 2500 in
      let body =
        List.map B64.encode [ Codec.encode valid; wide_count; repeated_pred ]
        |> String.concat "\n"
      in
      (match Client.request c ("ingest-batch\n" ^ body ^ "\n.") with
      | Ok (header, lines) ->
          Alcotest.(check string) "one accepted, two rejected" "ingest-batch 1 2" header;
          Alcotest.(check int) "one status per report" 3 (List.length lines);
          Alcotest.(check string) "valid report acked" "ok 2500" (List.hd lines);
          List.iter
            (fun l ->
              if not (String.starts_with ~prefix:"err bad report payload" l) then
                Alcotest.failf "hostile payload answered %S" l)
            (List.tl lines)
      | Error e -> Alcotest.failf "mixed batch failed: %s" e);
      let ds, _ = Shard_log.read_all ~dir:ingest_dir in
      Alcotest.(check int) "valid report durable" 1 (Dataset.nruns ds);
      Alcotest.(check int) "valid report visible" 1 (Index.tail_count idx);
      Alcotest.(check int) "server counter" 1 (Server.ingested srv);
      let _, stats = request_ok c "stats" in
      Alcotest.(check int) "no internal error" 0 (fault_count stats "error");
      Client.close c)

let test_start_failure_releases_resources () =
  (* the regression: start bound the socket, spawned the pool, then died
     opening the ingest writer — leaking the listen fd and the bound
     socket path.  A failed start must release everything it acquired. *)
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      Shard_log.write_meta ~dir:log (Dataset.of_tables ~nsites ~npreds ~pred_site [||]);
      let w = Shard_log.create_writer ~dir:log ~shard:0 () in
      Array.iter (Shard_log.append w) base_reports;
      ignore (Shard_log.close_writer w);
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let sock = Filename.concat tmp "sock" in
      (* the ingest log's parent is a regular file: the writer cannot open *)
      let blocker = Filename.concat tmp "blocker" in
      close_out (open_out blocker);
      let config =
        {
          (Server.default_config (Wire.Unix_sock sock)) with
          Server.timeout = 10.;
          ingest_log = Some (Filename.concat blocker "log");
        }
      in
      let count_fds () = Array.length (Sys.readdir "/proc/self/fd") in
      let fds_before = count_fds () in
      (match Server.start config idx with
      | srv ->
          Server.stop srv;
          Alcotest.fail "start over an unwritable ingest log must raise"
      | exception _ -> ());
      Alcotest.(check int) "no fd leaked by the failed start" fds_before (count_fds ());
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
      let config_ok = { config with Server.ingest_log = Some (Filename.concat tmp "ingest") } in
      (match Server.start { config_ok with Server.acceptors = 0 } idx with
      | srv ->
          Server.stop srv;
          Alcotest.fail "start with no event loop must raise"
      | exception Invalid_argument _ -> ());
      (* the address is immediately reusable with a sane config *)
      let srv = Server.start config_ok idx in
      let c = connect_ok (Wire.Unix_sock sock) in
      let header, _ = request_ok c "ping" in
      Alcotest.(check string) "rebound and serving" "pong" header;
      Client.close c;
      Server.stop srv)

let test_server_shutdown ~acceptors () =
  (* stop must be clean and idempotent, release the socket, and close the
     durable writer so the ingest log is a valid shard log *)
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      Shard_log.write_meta ~dir:log (Dataset.of_tables ~nsites ~npreds ~pred_site [||]);
      let w = Shard_log.create_writer ~dir:log ~shard:0 () in
      Array.iter (Shard_log.append w) base_reports;
      ignore (Shard_log.close_writer w);
      ignore (Index.build ~log ~dir:idx_dir ());
      let sock = Filename.concat tmp "sock" in
      let config =
        {
          (Server.default_config (Wire.Unix_sock sock)) with
          Server.timeout = 10.;
          fsync = false;
          ingest_log = Some (Filename.concat tmp "ingest");
          acceptors;
        }
      in
      let srv = Server.start config (Index.open_ ~dir:idx_dir) in
      let c = connect_ok (Wire.Unix_sock sock) in
      ignore (request_ok c "ping");
      Server.stop srv;
      Server.stop srv;
      Alcotest.(check bool) "socket file removed" false (Sys.file_exists sock);
      (match Client.connect ~retry:Sbi_fault.Retry.no_retry (Wire.Unix_sock sock) with
      | Ok _ -> Alcotest.fail "connect after stop must fail"
      | Error _ -> ());
      (* same address is immediately reusable *)
      let srv2 = Server.start config (Index.open_ ~dir:idx_dir) in
      let c2 = connect_ok (Wire.Unix_sock sock) in
      ignore (request_ok c2 "ping");
      Client.close c2;
      Server.stop srv2)

(* --- connection-scale regressions (ISSUE 10) --- *)

(* Pipelined requests: several complete lines land in one read.  The
   server must answer each in order, keeping leftover buffered lines
   flowing without waiting for new socket data. *)
let test_pipelined ~acceptors () =
  with_server ~acceptors (fun ~srv:_ ~addr ~idx:_ ~ingest_dir:_ ->
      let fd = raw_connect addr in
      let rd = Wire.reader fd in
      write_all fd "ping\nping\ntopk 3\n";
      (match Wire.read_response rd with
      | Ok ("pong", []) -> ()
      | _ -> Alcotest.fail "first pipelined ping");
      (match Wire.read_response rd with
      | Ok ("pong", []) -> ()
      | _ -> Alcotest.fail "second pipelined ping");
      (match Wire.read_response rd with
      | Ok (h, lines) ->
          Alcotest.(check bool) "pipelined topk answered" true
            (contains h "topk " && lines <> [])
      | Error e -> Alcotest.failf "pipelined topk: %s" e);
      (* a request buffered behind quit dies with the connection *)
      write_all fd "ping\nquit\nping\n";
      (match Wire.read_response rd with
      | Ok ("pong", []) -> ()
      | _ -> Alcotest.fail "ping before quit");
      (match Wire.read_response rd with
      | Ok ("bye", []) -> ()
      | _ -> Alcotest.fail "quit acked with bye");
      (match Wire.read_response rd with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "connection must close after quit");
      Unix.close fd)

(* The admission cap is exact: connection max_conns+1 gets a one-line
   [err busy] and a close — a clean protocol error, not a hang — and
   closing any admitted connection frees its slot. *)
let test_max_conns_cap ~acceptors () =
  with_server ~acceptors ~max_conns:4 (fun ~srv:_ ~addr ~idx:_ ~ingest_dir:_ ->
      let admitted = List.init 4 (fun _ -> connect_ok addr) in
      (* a served request proves each connection is admitted, not queued *)
      List.iter (fun c -> ignore (request_ok c "ping")) admitted;
      let fd = raw_connect addr in
      let rd = Wire.reader fd in
      (match Wire.read_response rd with
      | Error "busy" -> ()
      | Ok (h, _) -> Alcotest.failf "over-cap connection got %S, want err busy" h
      | Error e -> Alcotest.failf "over-cap connection got err %S, want busy" e
      | exception End_of_file ->
          Alcotest.fail "over-cap connection closed without err busy");
      (match Wire.read_response rd with
      | exception End_of_file -> ()
      | _ -> Alcotest.fail "over-cap connection must be closed");
      Unix.close fd;
      (* freeing one slot readmits the next client (slot release is
         asynchronous: poll until a fresh connection is served) *)
      (match admitted with c :: _ -> Client.close c | [] -> assert false);
      let rec admitted_client tries =
        if tries = 0 then Alcotest.fail "slot never freed after a client left"
        else begin
          let c = connect_ok addr in
          let ok =
            match Client.request c "ping" with
            | Ok ("pong", _) -> true
            | Ok _ | Error _ -> false
            | exception _ -> false
          in
          if ok then c
          else begin
            Client.close c;
            Thread.delay 0.02;
            admitted_client (tries - 1)
          end
        end
      in
      let c = admitted_client 250 in
      Client.close c;
      let c = admitted_client 250 in
      let _, stats = request_ok c "stats" in
      Alcotest.(check bool) "rejection counted as fault.overload" true
        (List.exists (fun l -> contains l "fault.overload ") stats);
      Client.close c;
      List.iteri (fun i c -> if i > 0 then Client.close c) admitted)

(* Accept error discrimination: drive accept(2) into EMFILE by
   exhausting the process fd table.  The failure is transient — counted
   as fault.accept, the listener backed off — and the client parked in
   the backlog is served once descriptors return. *)
let test_accept_error_recovery ~acceptors () =
  with_server ~acceptors (fun ~srv:_ ~addr ~idx:_ ~ingest_dir:_ ->
      let sock =
        match addr with Wire.Unix_sock p -> p | _ -> Alcotest.fail "unix fixture"
      in
      (* the client's fd exists before the squeeze; connect(2) allocates
         nothing new, so it queues in the listen backlog while the
         server's accept(2) is failing *)
      let cfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let soft0, _ = Evloop.nofile_limit () in
      let hoard = ref [] in
      let release () =
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !hoard;
        hoard := [];
        if soft0 >= 0 then ignore (Evloop.set_nofile_limit soft0)
      in
      Fun.protect
        ~finally:(fun () ->
          release ();
          try Unix.close cfd with Unix.Unix_error _ -> ())
        (fun () ->
          (* clamp the soft limit to just above the highest open fd and
             fill the remaining slots: the next accept(2) gets EMFILE *)
          ignore (Evloop.set_nofile_limit (max_fd_num () + 2));
          (try
             while true do
               hoard := Unix.dup cfd :: !hoard
             done
           with Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) -> ());
          Unix.connect cfd (Unix.ADDR_UNIX sock);
          (* let the accept loop hit the failure and back off a few times *)
          Thread.delay 0.3;
          release ();
          (* nothing was dropped: the parked connection is served *)
          write_all cfd "ping\n";
          (match Evloop.wait_readable ~timeout_ms:10_000 cfd with
          | `Ready -> ()
          | `Timeout -> Alcotest.fail "backlogged connection never served");
          let rd = Wire.reader cfd in
          (match Wire.read_response rd with
          | Ok ("pong", []) -> ()
          | _ -> Alcotest.fail "backlogged connection must be served after recovery");
          let c = connect_ok addr in
          let rec poll tries =
            let _, stats = request_ok c "stats" in
            let hit = List.exists (fun l -> contains l "fault.accept ") stats in
            if hit || tries = 0 then hit
            else begin
              Thread.delay 0.02;
              poll (tries - 1)
            end
          in
          Alcotest.(check bool) "failures counted as fault.accept" true (poll 100);
          Client.close c))

(* Every select(2) on a real socket is gone: the poll primitives, the
   client's connect deadline, the group-commit flusher's self-pipe wait,
   and the server on one and two loops must all work on descriptors past
   1024 — where Unix.select would reject or corrupt its fd sets. *)
let test_poll_beyond_1024 () =
  let soft0, hard = Evloop.nofile_limit () in
  let want = 1500 in
  if hard <> -1 && hard < want then () (* hard limit too low: skip *)
  else begin
    if soft0 <> -1 && soft0 < want then ignore (Evloop.set_nofile_limit want);
    let anchor = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let hoard = ref [] in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !hoard;
        (try Unix.close anchor with Unix.Unix_error _ -> ());
        if soft0 >= 0 then ignore (Evloop.set_nofile_limit soft0))
      (fun () ->
        for _ = 1 to 1100 do
          hoard := Unix.dup anchor :: !hoard
        done;
        Alcotest.(check bool) "descriptor numbers crossed 1024" true
          (max_fd_num () > 1024);
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        hoard := a :: b :: !hoard;
        (match Evloop.wait_readable ~timeout_ms:50 a with
        | `Timeout -> ()
        | `Ready -> Alcotest.fail "nothing written yet");
        ignore (Unix.write_substring b "x" 0 1);
        (match Evloop.wait_readable ~timeout_ms:5_000 a with
        | `Ready -> ()
        | `Timeout -> Alcotest.fail "poll must see the pending byte");
        (match Evloop.wait_writable ~timeout_ms:5_000 b with
        | `Ready -> ()
        | `Timeout -> Alcotest.fail "poll must see writability");
        (* full stack on high fds, including a group-commit flush *)
        List.iter
          (fun acceptors ->
            with_server ~acceptors ~group_commit_ms:2.
              (fun ~srv ~addr ~idx:_ ~ingest_dir:_ ->
                let c = connect_ok addr in
                let r =
                  mk_report ~outcome:Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0 |]
                    7000
                in
                let header, _ =
                  request_ok c ("ingest " ^ B64.encode (Codec.encode r))
                in
                Alcotest.(check string) "high-fd ingest acked" "ingested 7000" header;
                ignore (request_ok c "topk 3");
                Alcotest.(check int) "ingested" 1 (Server.ingested srv);
                Client.close c))
          [ 1; 2 ])
  end

(* The ISSUE 10 acceptance gate: >= 2000 connections held open
   concurrently against the event-loop front end — interleaved queries,
   ingest batches, abrupt resets, and silent stalls — with zero dropped
   accepts, the connection gauge draining to exactly zero, every
   descriptor returned, and bit-identical rankings afterwards. *)
let test_connection_churn () =
  let soft0, hard = Evloop.nofile_limit () in
  let want_fds = (2 * 2048) + 512 in
  if soft0 <> -1 && soft0 < want_fds && (hard = -1 || hard >= want_fds) then
    ignore (Evloop.set_nofile_limit want_fds);
  let soft, _ = Evloop.nofile_limit () in
  (* clamp-aware scaling: a squeezed container still runs the shape of
     the test, just narrower (2 fds per connection plus slack) *)
  let target = if soft = -1 || soft >= want_fds then 2048 else max 64 ((soft - 512) / 2) in
  Fun.protect
    ~finally:(fun () -> if soft0 >= 0 then ignore (Evloop.set_nofile_limit soft0))
    (fun () ->
      with_server ~acceptors:2 ~tcp:true ~fsync:false ~timeout:60.
        ~max_conns:(target + 64)
        (fun ~srv ~addr ~idx:_ ~ingest_dir:_ ->
          let baseline =
            let c = connect_ok addr in
            let r = request_ok c "topk 5" in
            Client.close c;
            r
          in
          let rec settle tries =
            if Server.worker_count srv > 0 && tries > 0 then begin
              Thread.delay 0.02;
              settle (tries - 1)
            end
          in
          settle 250;
          Alcotest.(check int) "gauge empty before the storm" 0
            (Server.worker_count srv);
          let fds_before = count_fds () in
          let nthreads = 16 in
          let per = max 1 (target / nthreads) in
          let total = per * nthreads in
          let errors = Queue.create () in
          let errors_lock = Mutex.create () in
          let fail_locked msg =
            Mutex.lock errors_lock;
            if Queue.length errors < 10 then Queue.add msg errors;
            Mutex.unlock errors_lock
          in
          (* reusable generation barrier: all drivers hold their
             connections open across the peak measurement *)
          let bar_m = Mutex.create () and bar_cv = Condition.create () in
          let bar_count = ref 0 and bar_gen = ref 0 in
          let barrier () =
            Mutex.lock bar_m;
            let gen = !bar_gen in
            incr bar_count;
            if !bar_count = nthreads then begin
              bar_count := 0;
              incr bar_gen;
              Condition.broadcast bar_cv
            end
            else
              while !bar_gen = gen do
                Condition.wait bar_cv bar_m
              done;
            Mutex.unlock bar_m
          in
          let peak = ref 0 in
          let worker tid =
            let conns =
              Array.init per (fun i ->
                  let g = (tid * per) + i in
                  match g mod 4 with
                  | 0 | 1 -> `Client (connect_ok addr)
                  | _ -> `Raw (raw_connect addr))
            in
            barrier ();
            (if tid = 0 then
               let rec wait tries =
                 let n = Server.worker_count srv in
                 peak := max !peak n;
                 if n < total && tries > 0 then begin
                   Thread.delay 0.02;
                   wait (tries - 1)
                 end
               in
               wait 1500);
            barrier ();
            Array.iteri
              (fun i conn ->
                let g = (tid * per) + i in
                match conn with
                | `Client c when g mod 4 = 0 -> (
                    match Client.request c "topk 3" with
                    | Ok (h, _) when contains h "topk" -> ()
                    | Ok (h, _) -> fail_locked ("churn topk header: " ^ h)
                    | Error e -> fail_locked ("churn topk: " ^ e)
                    | exception e -> fail_locked (Printexc.to_string e))
                | `Client c -> (
                    (* successful runs observing nothing: accepted, yet
                       unable to move any predicate's counters — the
                       ranking must come out bit-identical *)
                    let rs =
                      [
                        mk_report (100_000 + (2 * g));
                        mk_report (100_001 + (2 * g));
                      ]
                    in
                    match Client.ingest_batch c rs with
                    | Ok sts when List.for_all Result.is_ok sts -> ()
                    | Ok _ -> fail_locked "churn ingest rejected a valid report"
                    | Error e -> fail_locked ("churn ingest: " ^ e)
                    | exception e -> fail_locked (Printexc.to_string e))
                | `Raw fd when g mod 4 = 2 -> (
                    (* one request, then vanish without quit *)
                    try
                      write_all fd "ping\n";
                      let rd = Wire.reader fd in
                      match Wire.read_response rd with
                      | Ok ("pong", []) -> ()
                      | _ -> fail_locked "churn raw ping"
                    with e -> fail_locked (Printexc.to_string e))
                | `Raw _ -> (* silent peer: never sends a byte *) ())
              conns;
            Array.iter
              (function
                | `Client c -> Client.close c
                | `Raw fd -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
              conns
          in
          let threads = List.init nthreads (fun tid -> Thread.create worker tid) in
          List.iter Thread.join threads;
          Alcotest.(check (list string)) "no churn errors" []
            (List.of_seq (Queue.to_seq errors));
          Alcotest.(check int) "every connection concurrently admitted" total !peak;
          let rec drain tries =
            let n = Server.worker_count srv in
            if n = 0 || tries = 0 then n
            else begin
              Thread.delay 0.02;
              drain (tries - 1)
            end
          in
          Alcotest.(check int) "connection gauge drains to zero" 0 (drain 1500);
          let rec fds tries =
            let n = count_fds () in
            if n = fds_before || tries = 0 then n
            else begin
              Thread.delay 0.02;
              fds (tries - 1)
            end
          in
          Alcotest.(check int) "no descriptor leak" fds_before (fds 1500);
          let c = connect_ok addr in
          let after = request_ok c "topk 5" in
          Alcotest.(check bool) "rankings bit-identical after the storm" true
            (baseline = after);
          let _, stats = request_ok c "stats" in
          List.iter
            (fun l ->
              if contains l "fault.accept " || contains l "fault.overload " then
                Alcotest.failf "no accept may be dropped under churn: %s" l)
            stats;
          Client.close c))

(* --- live compaction and the ingest shard --- *)

(* [base_reports] written to [log] in [waves] slices, each indexed by its
   own build, so the index holds one segment per wave. *)
let build_wave_index ~log ~idx_dir ~waves =
  Shard_log.write_meta ~dir:log (Dataset.of_tables ~nsites ~npreds ~pred_site [||]);
  let n = Array.length base_reports in
  let per = (n + waves - 1) / waves in
  for w = 0 to waves - 1 do
    let wr = Shard_log.create_writer ~append:true ~dir:log ~shard:0 () in
    Array.iter (Shard_log.append wr) (Array.sub base_reports (w * per) (min per (n - (w * per))));
    ignore (Shard_log.close_writer wr);
    ignore (Index.build ~log ~dir:idx_dir ())
  done

let stat_value c name =
  let _, lines = request_ok c "stats" in
  let value l = Scanf.sscanf_opt l "%s %d%!" (fun k v -> if k = name then Some v else None) in
  match List.find_map (fun l -> Option.join (value l)) lines with
  | Some v -> v
  | None -> Alcotest.failf "stats has no %s line" name

(* Background compaction under load: batches are acked and top-k queries
   run until the server has compacted and swapped once.  By then the
   merged-away files are gone, the segment count dropped, every acked
   report is still in the live tail, and top-k answers as
   [Analysis.analyze] over the base runs plus the acked reports. *)
let test_live_compaction ~acceptors () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      build_wave_index ~log ~idx_dir ~waves:3;
      let seg_files () =
        List.filter (fun f -> Filename.check_suffix f ".sbix") (Array.to_list (Sys.readdir idx_dir))
      in
      let before = seg_files () in
      Alcotest.(check int) "one segment per wave" 3 (List.length before);
      let addr = Wire.Unix_sock (Filename.concat tmp "sock") in
      let config =
        {
          (Server.default_config addr) with
          Server.timeout = 10.;
          ingest_log = Some (Filename.concat tmp "ingest");
          acceptors;
          compact_every = Some 0.2;
          tier_max = 2;
        }
      in
      let srv = Server.start config (Index.open_ ~dir:idx_dir) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = connect_ok addr in
          let acked = ref [] and next_id = ref 1000 in
          let batch () =
            let reports =
              List.init 4 (fun i ->
                  let failing = i mod 2 = 0 in
                  mk_report
                    ~outcome:(if failing then Report.Failure else Report.Success)
                    ~sites:[| 0; 2 |]
                    ~preds:(if failing then [| 0; 4 |] else [| 4 |])
                    (!next_id + i))
            in
            next_id := !next_id + 4;
            match Client.ingest_batch c reports with
            | Ok statuses ->
                List.iter2
                  (fun r -> function
                    | Ok _ -> acked := r :: !acked
                    | Error e -> Alcotest.failf "report rejected: %s" e)
                  reports statuses
            | Error e -> Alcotest.failf "ingest-batch failed: %s" e
          in
          let deadline = Unix.gettimeofday () +. 10. in
          while stat_value c "compactions" < 1 do
            if Unix.gettimeofday () > deadline then Alcotest.fail "no compaction within 10 s";
            batch ();
            ignore (request_ok c "topk 10");
            Thread.delay 0.02
          done;
          List.iter
            (fun f ->
              if Sys.file_exists (Filename.concat idx_dir f) then
                Alcotest.failf "merged-away %s still on disk" f)
            before;
          Alcotest.(check int) "segments dropped" 1 (stat_value c "segments");
          (* the swapped-in index takes appends *)
          batch ();
          Alcotest.(check int) "every acked report in the live tail" (List.length !acked)
            (stat_value c "tail_runs");
          Alcotest.(check bool) "the tail's posting buffers are gauged" true
            (stat_value c "tail_bytes" > 0);
          let ds =
            Dataset.of_tables ~nsites ~npreds ~pred_site
              (Array.append base_reports (Array.of_list (List.rev !acked)))
          in
          let reference = Sbi_core.Analysis.analyze ds in
          let ranked = Sbi_core.Prune.retained_scores reference.Sbi_core.Analysis.counts in
          Array.sort Sbi_core.Scores.compare_importance_desc ranked;
          let expected =
            List.mapi
              (fun i (sc : Sbi_core.Scores.t) ->
                Printf.sprintf "%d %d %.6f %.6f %d %d %s" (i + 1) sc.Sbi_core.Scores.pred
                  sc.Sbi_core.Scores.importance sc.Sbi_core.Scores.increase sc.Sbi_core.Scores.f
                  sc.Sbi_core.Scores.s
                  (Dataset.pred_text ds sc.Sbi_core.Scores.pred))
              (Array.to_list (Array.sub ranked 0 (min 10 (Array.length ranked))))
          in
          Alcotest.(check bool) "fixture retains predicates" true (expected <> []);
          let _, lines = request_ok c "topk 10" in
          Alcotest.(check (list string)) "topk = Analysis.analyze on base + acked" expected lines;
          Client.close c))

(* Each server start opens a fresh ingest shard; one that took no report
   is removed again at stop, while one with an acked report stays. *)
let test_idle_start_leaves_no_shard () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      build_wave_index ~log ~idx_dir ~waves:1;
      let listing () = List.sort compare (Array.to_list (Sys.readdir log)) in
      let before = listing () in
      let addr = Wire.Unix_sock (Filename.concat tmp "sock") in
      let config = { (Server.default_config addr) with Server.ingest_log = Some log } in
      Server.stop (Server.start config (Index.open_ ~dir:idx_dir));
      Alcotest.(check (list string)) "idle start and stop leave the log as it was" before
        (listing ());
      let srv = Server.start config (Index.open_ ~dir:idx_dir) in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let c = connect_ok addr in
          (match Client.ingest_batch c [ mk_report ~sites:[| 0 |] ~preds:[| 1 |] 500 ] with
          | Ok [ Ok 500 ] -> ()
          | Ok _ -> Alcotest.fail "report not acked"
          | Error e -> Alcotest.failf "ingest-batch failed: %s" e);
          Client.close c);
      Alcotest.(check int) "the acked report's shard stays" (List.length before + 1)
        (List.length (listing ()));
      let ds, _ = Shard_log.read_all ~dir:log in
      Alcotest.(check int) "acked report on disk" (Array.length base_reports + 1) (Dataset.nruns ds))

(* Each lifecycle test runs on one event loop — the CLI default, a shared
   listener with no fd hand-off — and on two, where loop 0 hands every
   other accepted fd to its peer ([Adopt]). *)
let dual name f =
  [
    Alcotest.test_case (name ^ " (one-loop)") `Quick (f ~acceptors:1);
    Alcotest.test_case (name ^ " (evloop)") `Quick (f ~acceptors:2);
  ]

let suite =
  [
    Alcotest.test_case "base64 vectors" `Quick test_b64_vectors;
    QCheck_alcotest.to_alcotest qcheck_b64_round_trip;
    Alcotest.test_case "address parsing" `Quick test_addr_parsing;
    Alcotest.test_case "wire framing" `Quick test_wire_framing;
    Alcotest.test_case "metrics" `Quick test_metrics;
    Alcotest.test_case "metrics overflow bucket" `Quick test_metrics_overflow;
    Alcotest.test_case "metrics clock anomaly" `Quick test_metrics_clock_anomaly;
    Alcotest.test_case "metrics per-command errors" `Quick test_metrics_request_error;
  ]
  @ dual "server basic queries" test_server_basic
  @ dual "server metrics/trace commands" test_server_obs_commands
  @ dual "durable ingest" test_server_ingest_durable
  @ dual "batched ingest" test_server_ingest_batch
  @ dual "group-commit ingest" test_server_group_commit
  @ dual "concurrent clients" test_server_concurrent_clients
  @ dual "connection gauge drains after churn" test_conn_gauge_drains
  @ dual "send deadline on stalled peer" test_send_deadline
  @ dual "clean quit is not a fault" test_quit_is_not_a_fault
  @ dual "pipelined requests" test_pipelined
  @ dual "max-conns admission cap" test_max_conns_cap
  @ dual "accept-error recovery under fd exhaustion" test_accept_error_recovery
  @ dual "graceful shutdown" test_server_shutdown
  @ [
      Alcotest.test_case "failed start releases resources" `Quick
        test_start_failure_releases_resources;
      Alcotest.test_case "poll primitives beyond fd 1024" `Slow test_poll_beyond_1024;
      Alcotest.test_case "2k-connection churn storm" `Slow test_connection_churn;
      Alcotest.test_case "ingest-batch rejects hostile payloads one by one" `Quick
        test_server_ingest_batch_hostile;
    ]
  @ dual "live compaction swaps under load" test_live_compaction
  @ [
      Alcotest.test_case "idle start leaves no empty ingest shard" `Quick
        test_idle_start_leaves_no_shard;
    ]
