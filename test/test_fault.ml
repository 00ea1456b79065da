(* Tests for the fault-injection layer and the crash-recovery behaviour
   it exists to prove: retry backoff schedules, torn/truncated on-disk
   state across the log -> index pipeline, kill-during-atomic-write
   semantics, robust wire I/O under benign socket faults, client
   deadlines, and per-connection server fault isolation. *)
open Sbi_runtime
open Sbi_ingest
open Sbi_index
open Sbi_serve
open Sbi_fault

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_fault" "" in
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

(* --- retry --- *)

let test_retry_delays () =
  let p = { Retry.default with Retry.max_attempts = 5; seed = 7 } in
  let d1 = Retry.delays_ms p and d2 = Retry.delays_ms p in
  Alcotest.(check (list int)) "same policy, same schedule" d1 d2;
  Alcotest.(check int) "one delay per retry" (p.Retry.max_attempts - 1) (List.length d1);
  List.iteri
    (fun i d ->
      let nominal = min (p.Retry.base_delay_ms * (1 lsl i)) p.Retry.max_delay_ms in
      let lo = float_of_int nominal *. (1. -. p.Retry.jitter) in
      let hi = float_of_int nominal *. (1. +. p.Retry.jitter) in
      Alcotest.(check bool)
        (Printf.sprintf "delay %d (%dms) within jitter of %dms" i d nominal)
        true
        (float_of_int d >= lo -. 1. && float_of_int d <= hi +. 1.))
    d1;
  let other = Retry.delays_ms { p with Retry.seed = 8 } in
  Alcotest.(check bool) "different seed, different jitter" true (d1 <> other)

let test_retry_run () =
  let no_sleep _ = () in
  let p = { Retry.default with Retry.max_attempts = 4 } in
  (* succeeds on the third attempt *)
  let calls = ref 0 in
  let r =
    Retry.run ~sleep:no_sleep p (fun () ->
        incr calls;
        if !calls < 3 then Error (`Retry "flaky") else Ok "done")
  in
  Alcotest.(check (result string string)) "eventual success" (Ok "done") r;
  Alcotest.(check int) "stopped once it succeeded" 3 !calls;
  (* exhausts every attempt *)
  let calls = ref 0 in
  (match Retry.run ~sleep:no_sleep p (fun () -> incr calls; Error (`Retry "down")) with
  | Ok _ -> Alcotest.fail "must exhaust"
  | Error m -> Alcotest.(check bool) "error keeps the cause" true (m = "down" || String.length m > 0));
  Alcotest.(check int) "used every attempt" p.Retry.max_attempts !calls;
  (* fatal errors never retry *)
  let calls = ref 0 in
  (match Retry.run ~sleep:no_sleep p (fun () -> incr calls; Error (`Fatal "no route")) with
  | Ok _ -> Alcotest.fail "fatal must fail"
  | Error _ -> ());
  Alcotest.(check int) "fatal short-circuits" 1 !calls;
  (* no_retry makes exactly one attempt *)
  let calls = ref 0 in
  ignore (Retry.run ~sleep:no_sleep Retry.no_retry (fun () -> incr calls; Error (`Retry "x")));
  Alcotest.(check int) "no_retry is one attempt" 1 !calls

(* --- fixture reports --- *)

let nsites = 4
let npreds = 8
let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3 |]
let meta = Dataset.of_tables ~nsites ~npreds ~pred_site [||]

let mk_report i =
  {
    Report.run_id = i;
    outcome = (if i mod 3 = 0 then Report.Failure else Report.Success);
    observed_sites = [| 0; (i mod 3) + 1 |];
    true_preds = [| i mod npreds |];
    true_counts = [| 1 + (i mod 5) |];
    bugs = [||];
    crash_sig = None;
  }

let write_log ~dir n =
  Shard_log.write_meta ~dir meta;
  let w = Shard_log.create_writer ~dir ~shard:0 () in
  for i = 0 to n - 1 do
    Shard_log.append w (mk_report i)
  done;
  ignore (Shard_log.close_writer w)

(* --- crash-shaped on-disk state --- *)

let test_truncated_final_record () =
  with_temp_dir (fun dir ->
      write_log ~dir 20;
      let path = Shard_log.shard_path ~dir 0 in
      (* chop a few bytes off the last record: the classic kill-mid-write *)
      let sz = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
      Unix.ftruncate fd (sz - 5);
      Unix.close fd;
      let n, st =
        Shard_log.fold ~dir ~init:0 ~f:(fun acc _ -> acc + 1) ()
      in
      Alcotest.(check int) "all but the torn record survive" 19 n;
      Alcotest.(check int) "nothing miscounted as corrupt" 0 st.Shard_log.corrupt_records;
      Alcotest.(check bool) "tail counted as truncated" true (st.Shard_log.truncated_bytes > 0))

let test_torn_segment_and_stale_manifest () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" and idx = Filename.concat tmp "idx" in
      write_log ~dir:log 30;
      ignore (Index.build ~log ~dir:idx ());
      (* tear the segment: the manifest now points past the valid data *)
      let seg =
        match Array.to_list (Sys.readdir idx) |> List.filter (fun f -> Filename.check_suffix f ".sbix") with
        | s :: _ -> Filename.concat idx s
        | [] -> Alcotest.fail "no segment written"
      in
      let sz = (Unix.stat seg).Unix.st_size in
      let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o600 in
      Unix.ftruncate fd (sz / 2);
      Unix.close fd;
      let fr = Index.fsck ~dir:idx in
      Alcotest.(check int) "fsck sees the torn segment" 1 fr.Index.fsck_corrupt;
      (* open_ degrades (skips the segment) rather than dying *)
      let t = Index.open_ ~dir:idx in
      Alcotest.(check int) "open skips it too" 1 t.Index.stats.Index.segments_corrupt;
      (* repair rolls the consumed offset back; rebuild re-indexes everything *)
      let rep = Index.repair ~dir:idx in
      Alcotest.(check bool) "repair dropped the segment" true (List.length rep.Index.rep_dropped = 1);
      Alcotest.(check bool) "repair rolled the shard back" true (rep.Index.rep_rollbacks <> []);
      ignore (Index.build ~log ~dir:idx ());
      let fr = Index.fsck ~dir:idx in
      Alcotest.(check int) "clean after repair + rebuild" 0 fr.Index.fsck_corrupt;
      Alcotest.(check int) "every record re-indexed" 30 fr.Index.fsck_records)

let test_kill_during_dataset_save () =
  with_temp_dir (fun dir ->
      let path = Filename.concat dir "dataset" in
      let ds = Dataset.of_tables ~nsites ~npreds ~pred_site [||] in
      let io = Io.faulty (Fault.create (Fault.kill_at 1)) in
      (match Dataset.save ~io path ds with
      | () -> Alcotest.fail "kill_at 1 must crash the save"
      | exception Fault.Crash _ -> ());
      Alcotest.(check bool) "target never materialized" false (Sys.file_exists path);
      let strays =
        Array.to_list (Sys.readdir dir) |> List.filter (fun f -> f <> "dataset")
      in
      Alcotest.(check bool) "killed writer leaves its temp file" true (strays <> []);
      (* a restarted process just saves again; the stale temp is inert *)
      Dataset.save path ds;
      let ds' = Dataset.load path in
      Alcotest.(check int) "recovered save round-trips" npreds ds'.Dataset.npreds)

(* --- acked-prefix property --- *)

let qcheck_acked_prefix =
  QCheck2.Test.make ~name:"faulted log replays exactly the acked prefix" ~count:40
    QCheck2.Gen.(pair (int_range 1 60) (int_range 0 1000))
    (fun (kill, seed) ->
      let dir = Filename.temp_file "sbi_prefix" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let res =
        Crashsim.run_log_case ~dir ~nreports:25
          ~spec:{ (Fault.kill_at ~seed kill) with Fault.p_fsync_fail = 0.05 }
          "qcheck"
      in
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm dir;
      if not res.Crashsim.case_ok then
        QCheck2.Test.fail_reportf "invariant violated: %s" res.Crashsim.case_detail;
      true)

(* The group-commit window model: raw (buffered, unfsynced) appends with
   one sync barrier per [batch] reports, killed between appends at a
   random point — possibly mid-window, with acked-but-unflushed bytes in
   the channel buffer.  Recovery must replay the acked prefix intact;
   reports past the last barrier may vanish but never corrupt. *)
let qcheck_group_commit_prefix =
  QCheck2.Test.make ~name:"group-commit window crash keeps the acked prefix" ~count:40
    QCheck2.Gen.(pair (int_range 0 45) (int_range 1 12))
    (fun (kill_after, batch) ->
      let dir = Filename.temp_file "sbi_gcprefix" "" in
      Sys.remove dir;
      Unix.mkdir dir 0o700;
      let res =
        Crashsim.run_group_case ~dir ~nreports:40 ~batch ~kill_after ~spec:Fault.quiet
          "qcheck-group"
      in
      let rec rm path =
        if Sys.is_directory path then begin
          Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
          Sys.rmdir path
        end
        else Sys.remove path
      in
      rm dir;
      if not res.Crashsim.case_ok then
        QCheck2.Test.fail_reportf "invariant violated: %s" res.Crashsim.case_detail;
      true)

(* --- wire robustness under benign socket faults --- *)

let test_wire_benign_faults () =
  (* short reads, partial writes, EINTR at high probability: the framed
     protocol must round-trip byte-identically because every primitive
     loops *)
  let spec =
    Fault.with_p ~seed:11
      [ (Fault.Short_read, 0.4); (Fault.Torn_write, 0.4); (Fault.Eintr, 0.2) ]
  in
  let io = Io.faulty (Fault.create spec) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let payload = List.init 40 (fun i -> Printf.sprintf "line %d with some padding" i) in
  let writer =
    Thread.create
      (fun () ->
        for _ = 1 to 20 do
          Wire.write_string ~io a (Wire.render_ok ~header:"bulk 40" ~lines:payload)
        done;
        Unix.close a)
      ()
  in
  let rd = Wire.reader ~io b in
  for i = 1 to 20 do
    match Wire.read_response rd with
    | Ok (header, lines) ->
        Alcotest.(check string) (Printf.sprintf "header %d" i) "bulk 40" header;
        Alcotest.(check (list string)) (Printf.sprintf "payload %d intact" i) payload lines
    | Error e -> Alcotest.failf "response %d: unexpected err %s" i e
  done;
  Thread.join writer;
  Unix.close b;
  Alcotest.(check bool) "the injector actually fired" true
    (match Io.fault io with Some f -> Fault.total_injected f > 0 | None -> false)

(* --- server fixture --- *)

let with_server ?(max_request = 1 lsl 20) f =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" and idx_dir = Filename.concat tmp "idx" in
      write_log ~dir:log 24;
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let addr = Wire.Unix_sock (Filename.concat tmp "sock") in
      let config =
        {
          (Server.default_config addr) with
          Server.timeout = 10.;
          fsync = false;
          ingest_log = Some (Filename.concat tmp "ingest");
          max_request;
        }
      in
      let srv = Server.start config idx in
      Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f ~srv ~addr))

let connect_ok addr =
  match Client.connect addr with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect failed: %s" e

let test_oversized_request_isolated () =
  with_server ~max_request:64 (fun ~srv:_ ~addr ->
      let c = connect_ok addr in
      (match Client.request c (String.make 500 'x') with
      | Error msg ->
          Alcotest.(check bool) "diagnostic names the bound" true
            (String.length msg > 0)
      | Ok _ -> Alcotest.fail "oversized request must err"
      | exception End_of_file -> () (* server may close before the reply is read *));
      (* that connection is dead; the server is not *)
      let c2 = connect_ok addr in
      (match Client.request c2 "ping" with
      | Ok ("pong", _) -> ()
      | _ -> Alcotest.fail "server must survive an oversized request");
      let stats =
        match Client.request c2 "stats" with
        | Ok (_, lines) -> lines
        | _ -> Alcotest.fail "stats"
      in
      Alcotest.(check bool) "fault counter surfaced in stats" true
        (List.exists
           (fun l ->
             String.length l >= 14 && String.sub l 0 14 = "fault.oversize")
           stats);
      Client.close c2)

let test_client_deadline () =
  (* a server that accepts and then stays silent: the client's kernel
     receive deadline must turn the hang into Wire.Timeout *)
  with_temp_dir (fun tmp ->
      let sock = Filename.concat tmp "sock" in
      let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind listen_fd (Unix.ADDR_UNIX sock);
      Unix.listen listen_fd 4;
      let accepted = ref [] in
      let acceptor =
        Thread.create
          (fun () ->
            try
              let fd, _ = Unix.accept listen_fd in
              accepted := [ fd ]
            with Unix.Unix_error _ -> ())
          ()
      in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Thread.join acceptor;
          List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !accepted)
        (fun () ->
          match Client.connect ~timeout_ms:300 ~retry:Retry.no_retry (Wire.Unix_sock sock) with
          | Error e -> Alcotest.failf "connect failed: %s" e
          | Ok c -> (
              let t0 = Unix.gettimeofday () in
              match Client.request c "ping" with
              | exception Wire.Timeout ->
                  let dt = Unix.gettimeofday () -. t0 in
                  Alcotest.(check bool) "deadline honored (not a hang)" true (dt < 5.);
                  Unix.close listen_fd
              | Ok _ | Error _ -> Alcotest.fail "silent server must time out")))

let test_connect_retry_then_error () =
  (* nothing listening: connect must return Error after the configured
     attempts, never raise *)
  with_temp_dir (fun tmp ->
      let sock = Filename.concat tmp "nothing.sock" in
      let retry = { Retry.default with Retry.max_attempts = 2; base_delay_ms = 1 } in
      match Client.connect ~timeout_ms:200 ~retry (Wire.Unix_sock sock) with
      | Ok _ -> Alcotest.fail "connect to nothing must fail"
      | Error msg -> Alcotest.(check bool) "diagnostic non-empty" true (String.length msg > 0))

let suite =
  [
    Alcotest.test_case "retry delays are deterministic and bounded" `Quick test_retry_delays;
    Alcotest.test_case "retry run semantics" `Quick test_retry_run;
    Alcotest.test_case "truncated final record" `Quick test_truncated_final_record;
    Alcotest.test_case "torn segment, stale manifest" `Quick test_torn_segment_and_stale_manifest;
    Alcotest.test_case "kill during dataset save" `Quick test_kill_during_dataset_save;
    QCheck_alcotest.to_alcotest qcheck_acked_prefix;
    QCheck_alcotest.to_alcotest qcheck_group_commit_prefix;
    Alcotest.test_case "wire survives benign socket faults" `Quick test_wire_benign_faults;
    Alcotest.test_case "oversized request is isolated" `Quick test_oversized_request_isolated;
    Alcotest.test_case "client deadline" `Quick test_client_deadline;
    Alcotest.test_case "connect retries then errors" `Quick test_connect_retry_then_error;
  ]
