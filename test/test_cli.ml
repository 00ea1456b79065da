(* Cram-style CLI tests: drive the installed cbi binary as a subprocess
   and pin down exit codes and error messages on missing/corrupt paths,
   plus the --json contract (parses, and matches both the in-process
   analysis and the human-readable table). *)
open Sbi_runtime
open Sbi_ingest
open Sbi_util

let cbi_exe = "../bin/cbi.exe"

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_cbi args =
  let out = Filename.temp_file "cbi_out" ".txt" in
  let err = Filename.temp_file "cbi_err" ".txt" in
  let rc = Sys.command (Filename.quote_command cbi_exe args ~stdout:out ~stderr:err) in
  let stdout = slurp out and stderr = slurp err in
  Sys.remove out;
  Sys.remove err;
  (rc, stdout, stderr)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_contains msg needle hay =
  if not (contains ~needle hay) then
    Alcotest.failf "%s: expected %S in output:\n%s" msg needle hay

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_cli" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Sys.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

(* --- fixture corpus (same shape as test_index's) --- *)

let nsites = 5
let npreds = 10
let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3; 4; 4 |]

let mk_report i =
  let failing = i mod 4 = 0 in
  {
    Report.run_id = i;
    outcome = (if failing then Report.Failure else Report.Success);
    observed_sites = [| 0; 1; 2; 3; 4 |];
    true_preds = (if failing then [| 0; 5 |] else [| 1; (i mod 3) + 6 |]);
    true_counts = [| 1; 1 |];
    bugs = [||];
    crash_sig = None;
  }

let reports = Array.init 48 mk_report
let dataset = Dataset.of_tables ~nsites ~npreds ~pred_site reports

let write_log dir =
  Shard_log.write_meta ~dir (Dataset.of_tables ~nsites ~npreds ~pred_site [||]);
  let w = Shard_log.create_writer ~dir ~shard:0 () in
  Array.iter (Shard_log.append w) reports;
  ignore (Shard_log.close_writer w)

(* --- exit codes and error messages --- *)

let test_missing_paths () =
  let rc, _, err = run_cbi [ "analyze-file"; "/nonexistent/sbi-ds" ] in
  Alcotest.(check int) "analyze-file missing: exit 2" 2 rc;
  check_contains "analyze-file missing" "no such file or directory" err;
  let rc, _, err = run_cbi [ "index"; "/nonexistent/sbi-log"; "-o"; "/tmp/sbi-cli-idx" ] in
  Alcotest.(check int) "index missing log: exit 2" 2 rc;
  check_contains "index missing log" "no such shard-log directory" err;
  let rc, _, err = run_cbi [ "fsck"; "/nonexistent/sbi-idx" ] in
  Alcotest.(check int) "fsck missing: exit 2" 2 rc;
  check_contains "fsck missing" "no such index directory" err;
  let rc, _, err = run_cbi [ "query"; "/nonexistent/sbi.sock"; "ping" ] in
  Alcotest.(check int) "query unreachable: exit 2" 2 rc;
  check_contains "query unreachable" "cannot connect" err;
  let rc, _, err = run_cbi [ "query"; "not-an-address"; "ping" ] in
  Alcotest.(check int) "query bad address: exit 2" 2 rc;
  check_contains "query bad address" "bad address" err

let test_corrupt_paths () =
  with_temp_dir (fun tmp ->
      let garbage = Filename.concat tmp "garbage" in
      let oc = open_out garbage in
      output_string oc "this is not a dataset\n";
      close_out oc;
      let rc, _, err = run_cbi [ "analyze-file"; garbage ] in
      Alcotest.(check int) "garbage dataset: exit 2" 2 rc;
      check_contains "garbage dataset" "cannot read dataset" err;
      (* a directory without shard-log meta is not a log *)
      let notlog = Filename.concat tmp "notlog" in
      Sys.mkdir notlog 0o700;
      let rc, _, err = run_cbi [ "analyze-file"; notlog ] in
      Alcotest.(check int) "meta-less log: exit 2" 2 rc;
      Alcotest.(check bool) "mentions cbi:" true (contains ~needle:"cbi:" err);
      let rc, _, err = run_cbi [ "index"; notlog; "-o"; Filename.concat tmp "idx0" ] in
      Alcotest.(check int) "index meta-less log: exit 2" 2 rc;
      Alcotest.(check bool) "index error prefixed" true (contains ~needle:"cbi:" err);
      (* bad proposal value *)
      let ds_path = Filename.concat tmp "ds" in
      Dataset.save ds_path dataset;
      let rc, _, err = run_cbi [ "analyze-file"; ds_path; "--proposal"; "9" ] in
      Alcotest.(check int) "bad proposal: exit 2" 2 rc;
      check_contains "bad proposal" "--proposal must be 1, 2, or 3" err)

let test_index_fsck_cli () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx = Filename.concat tmp "idx" in
      write_log log;
      let rc, out, _ = run_cbi [ "index"; log; "-o"; idx ] in
      Alcotest.(check int) "index: exit 0" 0 rc;
      check_contains "index reports records" "+48 record(s)" out;
      let rc, out, _ = run_cbi [ "fsck"; idx ] in
      Alcotest.(check int) "fsck clean: exit 0" 0 rc;
      check_contains "fsck summary" "0 corrupt" out;
      (* flip one byte in a segment: fsck must fail with exit 1 *)
      let seg = Filename.concat idx "seg-0000.sbix" in
      let s = slurp seg in
      let b = Bytes.of_string s in
      Bytes.set b 50 (Char.chr (Char.code (Bytes.get b 50) lxor 1));
      let oc = open_out_bin seg in
      output_bytes oc b;
      close_out oc;
      let rc, out, _ = run_cbi [ "fsck"; idx ] in
      Alcotest.(check int) "fsck corrupt: exit 1" 1 rc;
      check_contains "fsck names the segment" "seg-0000.sbix" out)

(* --- the --json contract --- *)

let parse_json s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "--json output does not parse: %s\n%s" e s

let get_int doc key =
  match Option.bind (Json.member key doc) Json.to_int with
  | Some v -> v
  | None -> Alcotest.failf "--json output lacks integer %S" key

let test_analyze_file_json () =
  with_temp_dir (fun tmp ->
      let ds_path = Filename.concat tmp "ds" in
      Dataset.save ds_path dataset;
      let rc, out, _ = run_cbi [ "analyze-file"; ds_path; "--json" ] in
      Alcotest.(check int) "exit 0" 0 rc;
      let doc = parse_json out in
      (* matches the in-process analysis bit for bit *)
      let reference = Sbi_core.Analysis.analyze dataset in
      let s = Sbi_core.Analysis.summary reference in
      Alcotest.(check int) "runs" s.Sbi_core.Analysis.runs (get_int doc "runs");
      Alcotest.(check int) "failing" s.Sbi_core.Analysis.failing (get_int doc "failing");
      Alcotest.(check int) "retained" s.Sbi_core.Analysis.retained_preds
        (get_int doc "retained");
      Alcotest.(check int) "selected" s.Sbi_core.Analysis.selected_preds
        (get_int doc "selected");
      let selections =
        match Option.bind (Json.member "selections" doc) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no selections array"
      in
      Alcotest.(check int) "selection count" s.Sbi_core.Analysis.selected_preds
        (List.length selections);
      List.iteri
        (fun i sel_doc ->
          let sel =
            List.nth reference.Sbi_core.Analysis.elimination.Sbi_core.Eliminate.selections i
          in
          Alcotest.(check int) "selection pred" sel.Sbi_core.Eliminate.pred
            (get_int sel_doc "pred");
          Alcotest.(check int) "selection rank" sel.Sbi_core.Eliminate.rank
            (get_int sel_doc "rank");
          let importance =
            match
              Option.bind (Json.member "effective" sel_doc) (fun eff ->
                  Option.bind (Json.member "importance" eff) Json.to_float)
            with
            | Some v -> v
            | None -> Alcotest.fail "no effective.importance"
          in
          Alcotest.(check (float 1e-12)) "selection importance"
            sel.Sbi_core.Eliminate.effective.Sbi_core.Scores.importance importance)
        selections;
      (* and agrees with the human-readable table *)
      let rc, human, _ = run_cbi [ "analyze-file"; ds_path ] in
      Alcotest.(check int) "human table exit 0" 0 rc;
      check_contains "human summary line"
        (Printf.sprintf "%d runs (%d failing)" s.Sbi_core.Analysis.runs
           s.Sbi_core.Analysis.failing)
        human;
      List.iter
        (fun sel_doc ->
          match Option.bind (Json.member "text" sel_doc) Json.to_str with
          | Some text -> check_contains "selection text in human table" text human
          | None -> Alcotest.fail "selection lacks text")
        selections)

let test_stream_json () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      write_log log;
      let rc, out, _ = run_cbi [ "analyze-file"; log; "--stream"; "--json"; "--top"; "4" ] in
      Alcotest.(check int) "exit 0" 0 rc;
      let doc = parse_json out in
      Alcotest.(check int) "runs" (Array.length reports) (get_int doc "runs");
      Alcotest.(check int) "shards" 1 (get_int doc "shards");
      let counts = Sbi_core.Counts.compute dataset in
      let retained = Sbi_core.Prune.retained_scores counts in
      Alcotest.(check int) "retained" (Array.length retained) (get_int doc "retained");
      Array.sort Sbi_core.Scores.compare_importance_desc retained;
      let top =
        match Option.bind (Json.member "top" doc) Json.to_list with
        | Some l -> l
        | None -> Alcotest.fail "no top array"
      in
      Alcotest.(check int) "top length" (min 4 (Array.length retained)) (List.length top);
      List.iteri
        (fun i sc_doc ->
          Alcotest.(check int) "top pred" retained.(i).Sbi_core.Scores.pred
            (get_int sc_doc "pred"))
        top)

(* --- serve --slow-ms and trace-dump --- *)

let test_serve_slowlog_trace_cli () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx = Filename.concat tmp "idx" in
      write_log log;
      let rc, _, _ = run_cbi [ "index"; log; "-o"; idx ] in
      Alcotest.(check int) "index: exit 0" 0 rc;
      (* a negative threshold refuses to start *)
      let rc, _, err =
        run_cbi [ "serve"; idx; "-a"; Filename.concat tmp "x.sock"; "--slow-ms=-1" ]
      in
      Alcotest.(check int) "--slow-ms -1: exit 2" 2 rc;
      check_contains "names the flag" "--slow-ms" err;
      let rc, _, err =
        run_cbi [ "serve"; idx; "-a"; Filename.concat tmp "x.sock"; "--acceptors"; "0" ]
      in
      Alcotest.(check int) "--acceptors 0: exit 2" 2 rc;
      check_contains "names the flag" "--acceptors" err;
      (* serve with --slow-ms 0: every request lands in the slow-query log *)
      let sock = Filename.concat tmp "cbi.sock" in
      let errf = Filename.concat tmp "serve.err" in
      let err_fd = Unix.openfile errf [ Unix.O_WRONLY; Unix.O_CREAT ] 0o600 in
      let pid =
        Unix.create_process cbi_exe
          [| cbi_exe; "serve"; idx; "-a"; sock; "--slow-ms"; "0" |]
          Unix.stdin Unix.stdout err_fd
      in
      Unix.close err_fd;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        (fun () ->
          let deadline = Unix.gettimeofday () +. 10. in
          while not (Sys.file_exists sock) && Unix.gettimeofday () < deadline do
            Unix.sleepf 0.05
          done;
          Alcotest.(check bool) "server socket appears" true (Sys.file_exists sock);
          let rc, _, _ = run_cbi [ "query"; sock; "topk"; "3" ] in
          Alcotest.(check int) "query topk: exit 0" 0 rc;
          (* trace-dump shows the span the request just opened *)
          let rc, out, _ = run_cbi [ "trace-dump"; sock ] in
          Alcotest.(check int) "trace-dump: exit 0" 0 rc;
          check_contains "topk request traced" "name=serve.topk" out;
          (* the slow-query line reaches the server's stderr *)
          let deadline = Unix.gettimeofday () +. 10. in
          while
            (not (contains ~needle:"slow-query cmd=topk" (slurp errf)))
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.05
          done;
          let err = slurp errf in
          check_contains "slow-query logged" "slow-query cmd=topk" err;
          check_contains "arguments digested" "args=#" err;
          check_contains "snapshot epoch recorded" "epoch=" err))

let suite =
  [
    Alcotest.test_case "missing paths" `Quick test_missing_paths;
    Alcotest.test_case "corrupt paths" `Quick test_corrupt_paths;
    Alcotest.test_case "index + fsck" `Quick test_index_fsck_cli;
    Alcotest.test_case "analyze-file --json" `Quick test_analyze_file_json;
    Alcotest.test_case "--stream --json" `Quick test_stream_json;
    Alcotest.test_case "serve --slow-ms + trace-dump" `Quick test_serve_slowlog_trace_cli;
  ]
