(* Tests for the inverted predicate index and incremental triage queries:
   segment round-trip and corruption posture, incremental builds, fsck,
   live-tail appends, and — the load-bearing property — that every
   index-backed query equals its full-dataset counterpart in
   Sbi_core.Analysis, including after incremental segment appends. *)
open Sbi_runtime
open Sbi_ingest
open Sbi_index
open Sbi_store

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

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_idx" "" in
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

let counts_equal (a : Sbi_core.Counts.t) (b : Sbi_core.Counts.t) =
  a.Sbi_core.Counts.npreds = b.Sbi_core.Counts.npreds
  && a.Sbi_core.Counts.f = b.Sbi_core.Counts.f
  && a.Sbi_core.Counts.s = b.Sbi_core.Counts.s
  && a.Sbi_core.Counts.f_obs = b.Sbi_core.Counts.f_obs
  && a.Sbi_core.Counts.s_obs = b.Sbi_core.Counts.s_obs
  && a.Sbi_core.Counts.num_f = b.Sbi_core.Counts.num_f
  && a.Sbi_core.Counts.num_s = b.Sbi_core.Counts.num_s

(* --- random corpora (shared by the equivalence properties) --- *)

let nsites = 5
let npreds = 10
let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3; 4; 4 |]

(* A wider table for the candidate-restriction tests: 24 sites of three
   predicates each, so a random candidate subset usually spans many
   sites and leaves many others out. *)
let wide_nsites = 24
let wide_pred_site = Array.init 72 (fun p -> p / 3)

(* Runs where predicate 3 (or, in the wide table, 40) is true mostly fail. *)
let random_report ?(nsites = nsites) ?(pred_site = pred_site) st id =
  let npreds = Array.length pred_site in
  let obs = ref [] and preds = ref [] in
  let obs_mask = Array.make nsites false in
  for site = nsites - 1 downto 0 do
    if Random.State.float st 1.0 < 0.6 then begin
      obs_mask.(site) <- true;
      obs := site :: !obs
    end
  done;
  for p = npreds - 1 downto 0 do
    if obs_mask.(pred_site.(p)) && Random.State.float st 1.0 < 0.35 then preds := p :: !preds
  done;
  let preds = Array.of_list !preds in
  let buggy = Array.exists (fun p -> p = 3 || p = 40) preds in
  let failing = Random.State.float st 1.0 < if buggy then 0.85 else 0.08 in
  mk_report
    ~outcome:(if failing then Report.Failure else Report.Success)
    ~sites:(Array.of_list !obs) ~preds id

let random_reports ?nsites ?pred_site st ~start_id n =
  Array.init n (fun i -> random_report ?nsites ?pred_site st (start_id + i))

let dataset_of ?(nsites = nsites) ?(pred_site = pred_site) reports =
  Dataset.of_tables ~nsites ~npreds:(Array.length pred_site) ~pred_site reports

let write_log ~dir ?(shard = 0) ?(meta = dataset_of [||]) reports =
  if not (Sys.file_exists (Filename.concat dir "meta")) then Shard_log.write_meta ~dir meta;
  let w = Shard_log.create_writer ~dir ~shard () in
  Array.iter (Shard_log.append w) reports;
  ignore (Shard_log.close_writer w)

(* append frames to an existing shard file, as a still-open writer would *)
let grow_shard ~dir ~shard reports =
  let path = Filename.concat dir (Printf.sprintf "shard-%04d.sbil" shard) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  let buf = Buffer.create 512 in
  Array.iter
    (fun r ->
      Buffer.clear buf;
      Codec.add_framed buf r;
      Buffer.output_buffer oc buf)
    reports;
  close_out oc

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  Bytes.to_string b

let corrupt_one_byte path offset =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (flip s offset);
  close_out oc

(* --- bitset --- *)

let test_bitset () =
  let b = Bitset.create 131 in
  Alcotest.(check int) "empty count" 0 (Bitset.count b);
  List.iter (Bitset.set b) [ 0; 1; 63; 64; 100; 130 ];
  Alcotest.(check int) "count" 6 (Bitset.count b);
  Alcotest.(check bool) "get set" true (Bitset.get b 63);
  Alcotest.(check bool) "get clear" false (Bitset.get b 62);
  Bitset.clear b 63;
  Alcotest.(check int) "after clear" 5 (Bitset.count b);
  let f = Bitset.full 131 in
  Alcotest.(check int) "full" 131 (Bitset.count f);
  Alcotest.(check int) "and full" 5 (Bitset.count_and b f);
  let c = Bitset.copy b in
  Bitset.clear c 0;
  Alcotest.(check bool) "copy is independent" true (Bitset.get b 0 && not (Bitset.get c 0));
  Alcotest.(check int) "of_positions"
    3
    (Bitset.count (Bitset.of_positions 70 [| 2; 64; 69 |]));
  Alcotest.(check int) "length" 131 (Bitset.length b)

(* --- segments --- *)

let sample_reports =
  [|
    mk_report ~outcome:Report.Failure ~sites:[| 0; 1; 3 |] ~preds:[| 0; 3; 6 |] 10;
    mk_report ~sites:[| 0; 2 |] ~preds:[| 1; 4 |] 11;
    mk_report ~sites:[||] ~preds:[||] 12;
    mk_report ~outcome:Report.Failure ~sites:[| 4 |] ~preds:[| 8; 9 |] 15;
  |]

let mk_segment () =
  Segment.of_reports ~nsites ~npreds ~source_shard:2 ~start_off:6 ~end_off:999 sample_reports

let segment_equal (a : Segment.t) (b : Segment.t) =
  a.Segment.source_shard = b.Segment.source_shard
  && a.Segment.start_off = b.Segment.start_off
  && a.Segment.end_off = b.Segment.end_off
  && a.Segment.nsites = b.Segment.nsites
  && a.Segment.npreds = b.Segment.npreds
  && a.Segment.nruns = b.Segment.nruns
  && a.Segment.run_ids = b.Segment.run_ids
  && a.Segment.site_obs = b.Segment.site_obs
  && a.Segment.pred_true = b.Segment.pred_true
  && Array.init a.Segment.nruns (Bitset.get a.Segment.failing)
     = Array.init b.Segment.nruns (Bitset.get b.Segment.failing)

let test_segment_round_trip () =
  let seg = mk_segment () in
  Alcotest.(check int) "nruns" 4 seg.Segment.nruns;
  Alcotest.(check bool) "failing bit" true (Bitset.get seg.Segment.failing 0);
  Alcotest.(check bool) "success bit" false (Bitset.get seg.Segment.failing 1);
  Alcotest.(check bool) "posting for pred 3" true (seg.Segment.pred_true.(3) = [| 0 |]);
  let seg' = Segment.decode (Segment.encode seg) in
  Alcotest.(check bool) "round trip" true (segment_equal seg seg')

let test_segment_aggregator () =
  let seg = mk_segment () in
  let agg = Segment.aggregator ~pred_site seg in
  let direct = Aggregator.empty ~nsites ~npreds ~pred_site in
  Array.iter (Aggregator.observe direct) sample_reports;
  Alcotest.(check bool) "segment aggregate = fold of reports" true
    (counts_equal (Aggregator.to_counts agg) (Aggregator.to_counts direct))

let test_segment_corruption () =
  let encoded = Segment.encode (mk_segment ()) in
  Alcotest.(check bool) "decodes clean" true
    (segment_equal (mk_segment ()) (Segment.decode encoded));
  for off = 0 to String.length encoded - 1 do
    match Segment.decode (flip encoded off) with
    | _ -> Alcotest.failf "flipped byte %d must not decode" off
    | exception Segment.Corrupt _ -> ()
  done;
  (match Segment.decode (String.sub encoded 0 (String.length encoded - 1)) with
  | _ -> Alcotest.fail "truncated segment must not decode"
  | exception Segment.Corrupt _ -> ());
  match Segment.of_reports ~nsites ~npreds ~source_shard:0 ~start_off:0 ~end_off:0
          [| mk_report ~sites:[| nsites |] 0 |]
  with
  | _ -> Alcotest.fail "out-of-range site must be rejected"
  | exception Invalid_argument _ -> ()

(* A site or predicate repeated within one report must collapse to a single
   posting position; duplicates would break the strictly-increasing delta
   encoding and render the segment unreadable. *)
let test_segment_duplicate_observations () =
  let reports =
    [|
      mk_report ~outcome:Report.Failure ~sites:[| 0; 1; 1 |] ~preds:[| 3; 3 |] 0;
      mk_report ~sites:[| 1; 2 |] ~preds:[| 4 |] 1;
    |]
  in
  let seg =
    Segment.of_reports ~nsites ~npreds ~source_shard:0 ~start_off:0 ~end_off:10 reports
  in
  Alcotest.(check bool) "site posting deduped" true (seg.Segment.site_obs.(1) = [| 0; 1 |]);
  Alcotest.(check bool) "pred posting deduped" true (seg.Segment.pred_true.(3) = [| 0 |]);
  Alcotest.(check bool) "round trips" true
    (segment_equal seg (Segment.decode (Segment.encode seg)))

(* --- index build / open / incremental --- *)

let test_build_and_open () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 11 |] in
      let reports = random_reports st ~start_id:0 60 in
      write_log ~dir:log reports;
      let b = Index.build ~log ~dir:idx_dir () in
      Alcotest.(check int) "one segment" 1 b.Index.segments_added;
      Alcotest.(check int) "all records" 60 b.Index.records_indexed;
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "runs" 60 (Index.nruns idx);
      Alcotest.(check int) "failures"
        (Dataset.num_failures (dataset_of reports))
        (Index.num_failures idx);
      Alcotest.(check bool) "counts = Counts.compute" true
        (counts_equal (Triage.counts idx) (Sbi_core.Counts.compute (dataset_of reports)));
      let b2 = Index.build ~log ~dir:idx_dir () in
      Alcotest.(check int) "rebuild is a no-op" 0 b2.Index.segments_added;
      Alcotest.(check int) "no new bytes" 0 b2.Index.bytes_consumed)

let test_incremental_build () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 12 |] in
      let first = random_reports st ~start_id:0 40 in
      write_log ~dir:log first;
      ignore (Index.build ~log ~dir:idx_dir ());
      (* source shard 0 grows, and a brand-new shard 1 appears *)
      let grown = random_reports st ~start_id:40 25 in
      grow_shard ~dir:log ~shard:0 grown;
      let fresh = random_reports st ~start_id:65 30 in
      write_log ~dir:log ~shard:1 fresh;
      let b = Index.build ~log ~dir:idx_dir () in
      Alcotest.(check int) "two new segments" 2 b.Index.segments_added;
      Alcotest.(check int) "only new records" 55 b.Index.records_indexed;
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "total segments" 3 (Array.length idx.Index.segments);
      let all = Array.concat [ first; grown; fresh ] in
      Alcotest.(check int) "runs" 95 (Index.nruns idx);
      Alcotest.(check bool) "counts over all segments" true
        (counts_equal (Triage.counts idx) (Sbi_core.Counts.compute (dataset_of all))))

let test_corrupt_source_skipped () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 13 |] in
      write_log ~dir:log (random_reports st ~start_id:0 30);
      (* damage one record mid-shard: the build must skip it and keep going *)
      corrupt_one_byte (Filename.concat log "shard-0000.sbil") 200;
      let b = Index.build ~log ~dir:idx_dir () in
      Alcotest.(check bool) "skipped something" true (b.Index.corrupt_skipped >= 1);
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "intact records indexed" b.Index.records_indexed (Index.nruns idx))

let test_corrupt_segment_and_fsck () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 14 |] in
      write_log ~dir:log (random_reports st ~start_id:0 20);
      write_log ~dir:log ~shard:1 (random_reports st ~start_id:20 20);
      ignore (Index.build ~log ~dir:idx_dir ());
      let clean = Index.fsck ~dir:idx_dir in
      Alcotest.(check int) "fsck: all ok" 2 clean.Index.fsck_ok;
      Alcotest.(check int) "fsck: none corrupt" 0 clean.Index.fsck_corrupt;
      Alcotest.(check int) "fsck: records" 40 clean.Index.fsck_records;
      let seg1 = Filename.concat idx_dir "seg-0001.sbix" in
      corrupt_one_byte seg1 60;
      let damaged = Index.fsck ~dir:idx_dir in
      Alcotest.(check int) "fsck: one corrupt" 1 damaged.Index.fsck_corrupt;
      (* the lazy open reads header + footer only, so body damage is
         fsck's to find — open_ still sees a well-formed footer *)
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "lazy open does not read bodies" 0
        idx.Index.stats.Index.segments_corrupt;
      (* damage the trailer too: now the footer path open_ takes fails *)
      let sz = (Unix.stat seg1).Unix.st_size in
      corrupt_one_byte seg1 (sz - 6);
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "open skips corrupt segment" 1
        idx.Index.stats.Index.segments_corrupt;
      Alcotest.(check int) "open keeps intact segment" 20 (Index.nruns idx);
      match Index.open_ ~dir:(Filename.concat tmp "nope") with
      | _ -> Alcotest.fail "missing index must raise"
      | exception Index.Format_error _ -> ())

let test_tail_append () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 15 |] in
      let base = random_reports st ~start_id:0 35 in
      write_log ~dir:log base;
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let live = random_reports st ~start_id:35 12 in
      Array.iter (Index.append idx) live;
      Alcotest.(check int) "tail count" 12 (Index.tail_count idx);
      Alcotest.(check int) "runs include tail" 47 (Index.nruns idx);
      let all = Array.append base live in
      Alcotest.(check bool) "counts include tail" true
        (counts_equal (Triage.counts idx) (Sbi_core.Counts.compute (dataset_of all)));
      (match Index.append idx (mk_report ~sites:[| nsites + 3 |] 99) with
      | () -> Alcotest.fail "bad site must be rejected"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "rejected append left no trace" 12 (Index.tail_count idx))

(* --- equivalence with the full-dataset analysis --- *)

let scores_equal (a : Sbi_core.Scores.t) (b : Sbi_core.Scores.t) = compare a b = 0

let selection_equal (a : Sbi_core.Eliminate.selection) (b : Sbi_core.Eliminate.selection) =
  compare a b = 0

let elimination_equal (a : Sbi_core.Eliminate.result) (b : Sbi_core.Eliminate.result) =
  List.length a.Sbi_core.Eliminate.selections = List.length b.Sbi_core.Eliminate.selections
  && List.for_all2 selection_equal a.Sbi_core.Eliminate.selections
       b.Sbi_core.Eliminate.selections
  && a.Sbi_core.Eliminate.runs_remaining = b.Sbi_core.Eliminate.runs_remaining
  && a.Sbi_core.Eliminate.failures_remaining = b.Sbi_core.Eliminate.failures_remaining
  && a.Sbi_core.Eliminate.candidates_remaining = b.Sbi_core.Eliminate.candidates_remaining

let check_equivalent ~msg idx ds =
  let reference = Sbi_core.Analysis.analyze ds in
  let indexed = Triage.analyze idx in
  Alcotest.(check bool) (msg ^ ": counts") true
    (counts_equal indexed.Triage.counts reference.Sbi_core.Analysis.counts);
  Alcotest.(check (list int)) (msg ^ ": retained set") reference.Sbi_core.Analysis.retained
    indexed.Triage.retained;
  Alcotest.(check bool) (msg ^ ": elimination") true
    (elimination_equal indexed.Triage.elimination
       reference.Sbi_core.Analysis.elimination);
  (* top-k agrees with ranking every retained score *)
  let all = Sbi_core.Prune.retained_scores reference.Sbi_core.Analysis.counts in
  Array.sort Sbi_core.Scores.compare_importance_desc all;
  let k = 5 in
  let expected = Array.to_list (Array.sub all 0 (min k (Array.length all))) in
  let got = Triage.topk ~k idx in
  Alcotest.(check bool) (msg ^ ": topk") true
    (List.length expected = List.length got && List.for_all2 scores_equal expected got);
  (* per-predicate detail and affinity against the reference analysis *)
  List.iter
    (fun pred ->
      Alcotest.(check bool) (msg ^ ": pred detail") true
        (scores_equal
           (Sbi_core.Scores.score reference.Sbi_core.Analysis.counts ~pred)
           (Triage.pred_detail idx ~pred)))
    reference.Sbi_core.Analysis.retained;
  match reference.Sbi_core.Analysis.elimination.Sbi_core.Eliminate.selections with
  | [] -> ()
  | sel :: _ ->
      let pred = sel.Sbi_core.Eliminate.pred in
      let expected = Sbi_core.Analysis.affinity_for reference ~pred in
      let got =
        Triage.affinity idx ~selected:pred ~others:reference.Sbi_core.Analysis.retained
      in
      Alcotest.(check bool) (msg ^ ": affinity") true
        (List.length expected = List.length got
        && List.for_all2 (fun a b -> compare a b = 0) expected got)

let qcheck_index_matches_analysis =
  QCheck2.Test.make ~name:"index-backed analysis = Analysis.analyze (incl. incremental)"
    ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x1db |] in
          let n1 = 20 + Random.State.int st 40 in
          let first = random_reports st ~start_id:0 n1 in
          write_log ~dir:log first;
          ignore (Index.build ~log ~dir:idx_dir ());
          check_equivalent ~msg:"initial" (Index.open_ ~dir:idx_dir) (dataset_of first);
          (* incremental: shard 0 grows and shard 1 appears, only the new
             bytes are compiled, and the merged answers still match *)
          let n2 = 10 + Random.State.int st 20 in
          let grown = random_reports st ~start_id:n1 n2 in
          grow_shard ~dir:log ~shard:0 grown;
          let n3 = 10 + Random.State.int st 20 in
          let fresh = random_reports st ~start_id:(n1 + n2) n3 in
          write_log ~dir:log ~shard:1 fresh;
          let b = Index.build ~log ~dir:idx_dir () in
          if b.Index.records_indexed <> n2 + n3 then
            Alcotest.failf "incremental build re-read old records (%d <> %d)"
              b.Index.records_indexed (n2 + n3);
          let idx = Index.open_ ~dir:idx_dir in
          let all = Array.concat [ first; grown; fresh ] in
          check_equivalent ~msg:"incremental" idx (dataset_of all);
          (* live tail on top of on-disk segments *)
          let live = random_reports st ~start_id:(n1 + n2 + n3) 8 in
          Array.iter (Index.append idx) live;
          check_equivalent ~msg:"with tail" idx (dataset_of (Array.append all live));
          true))

let qcheck_discard_proposals =
  QCheck2.Test.make ~name:"index elimination matches all three discard proposals" ~count:12
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x2dc |] in
          let reports = random_reports st ~start_id:0 (30 + Random.State.int st 30) in
          write_log ~dir:log reports;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let ds = dataset_of reports in
          List.for_all
            (fun discard ->
              elimination_equal
                (Triage.eliminate ~discard idx)
                (Sbi_core.Eliminate.run ~discard ds))
            [
              Sbi_core.Eliminate.Discard_all_true;
              Sbi_core.Eliminate.Discard_failing_true;
              Sbi_core.Eliminate.Relabel_failing;
            ]))

(* The snapshot cache must be transparent: queries interleaved with
   ingest (which bumps the epoch and invalidates the cache) always match
   a fresh analysis of the materialized corpus, and repeated queries at
   one epoch reuse the same snapshot. *)
let qcheck_snapshot_cache =
  QCheck2.Test.make ~name:"snapshot-cached triage = Analysis under interleaved ingest" ~count:12
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x54a |] in
          let base = random_reports st ~start_id:0 (25 + Random.State.int st 25) in
          write_log ~dir:log base;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let all = ref (Array.to_list base) in
          let rounds = 3 + Random.State.int st 3 in
          for round = 1 to rounds do
            (* query (twice: second hit must come from the cached snapshot) *)
            let ds = dataset_of (Array.of_list !all) in
            check_equivalent ~msg:(Printf.sprintf "round %d fresh" round) idx ds;
            let epoch_before = Index.epoch idx in
            let s1 = Index.snapshot idx and s2 = Index.snapshot idx in
            if s1 != s2 then Alcotest.fail "snapshot not cached within an epoch";
            check_equivalent ~msg:(Printf.sprintf "round %d cached" round) idx ds;
            if Index.epoch idx <> epoch_before then
              Alcotest.fail "reads must not bump the epoch";
            (* ingest a few live reports: epoch bumps, cache invalidates *)
            let live = random_reports st ~start_id:(List.length !all) (1 + Random.State.int st 6) in
            Array.iter (Index.append idx) live;
            all := !all @ Array.to_list live;
            if Index.epoch idx = epoch_before then
              Alcotest.fail "append must bump the epoch";
            if Index.snapshot idx == s1 then Alcotest.fail "stale snapshot served after append"
          done;
          true))

let qcheck_cooccurrence =
  QCheck2.Test.make ~name:"posting-list co-occurrence = report rescan" ~count:20
    QCheck2.Gen.(triple (int_range 0 10_000) (int_range 0 (npreds - 1)) (int_range 0 (npreds - 1)))
    (fun (seed, a, b) ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x3c0 |] in
          let reports = random_reports st ~start_id:0 40 in
          write_log ~dir:log reports;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let naive =
            Array.fold_left
              (fun acc r -> if Report.is_true r a && Report.is_true r b then acc + 1 else acc)
              0 reports
          in
          Triage.cooccurrence idx ~a ~b = naive))

(* --- incremental epoch snapshots --- *)

(* Bit-level fingerprints: equal fingerprints mean the very same floats,
   not merely numerically equal ones. *)
let fbits = Int64.bits_of_float

let score_bits (sc : Sbi_core.Scores.t) =
  let open Sbi_core.Scores in
  let ci (i : Sbi_util.Stats.interval) = [ fbits i.Sbi_util.Stats.lo; fbits i.Sbi_util.Stats.hi ] in
  ( [ sc.pred; sc.f; sc.s; sc.f_obs; sc.s_obs ],
    List.map fbits [ sc.failure; sc.context; sc.increase; sc.z; sc.sensitivity; sc.importance ]
    @ ci sc.increase_ci @ ci sc.importance_ci )

let affinity_bits entries =
  List.map
    (fun (e : Sbi_core.Affinity.entry) ->
      ( e.Sbi_core.Affinity.pred,
        List.map fbits
          [ e.Sbi_core.Affinity.importance_before; e.Sbi_core.Affinity.importance_after;
            e.Sbi_core.Affinity.drop ] ))
    entries

let elimination_bits (r : Sbi_core.Eliminate.result) =
  let open Sbi_core.Eliminate in
  ( List.map
      (fun s ->
        ( [ s.rank; s.pred; s.runs_before; s.failures_before; s.runs_discarded ],
          score_bits s.initial,
          score_bits s.effective ))
      r.selections,
    [ r.runs_remaining; r.failures_remaining; r.candidates_remaining ] )

let naive_cooccurrence reports a b =
  Array.fold_left
    (fun acc r -> if Report.is_true r a && Report.is_true r b then acc + 1 else acc)
    0 reports

let all_preds = List.init npreds Fun.id

(* The incremental snapshot is invisible to every query: random
   interleavings of live appends with top-k, predicate detail, affinity,
   elimination under all three §5 discard proposals, and co-occurrence
   answer bit-for-bit what Sbi_core computes on the materialized corpus.
   Each append first pins the current snapshot and checks afterwards that
   its bitmap queries — whose tail bitmaps may be built only now — still
   describe the pre-append corpus. *)
let qcheck_interleaved_ingest_bit_identity =
  QCheck2.Test.make ~name:"interleaved appends and queries bit-identical to Sbi_core"
    ~count:15
    QCheck2.Gen.(pair (int_range 0 10_000) (list_size (int_range 6 20) (int_range 0 5)))
    (fun (seed, ops) ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x1e5 |] in
          let base = random_reports st ~start_id:0 (20 + Random.State.int st 20) in
          write_log ~dir:log base;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let all = ref base in
          let pred () = Random.State.int st npreds in
          let counts () = Sbi_core.Counts.compute (dataset_of !all) in
          List.for_all
            (fun op ->
              match op with
              | 0 ->
                  let before = !all and held = Index.snapshot idx in
                  let live =
                    random_reports st ~start_id:(Array.length before) (1 + Random.State.int st 3)
                  in
                  Array.iter (Index.append idx) live;
                  all := Array.append before live;
                  let a = pred () and b = pred () in
                  Triage.Snap.cooccurrence held ~a ~b = naive_cooccurrence before a b
                  && affinity_bits (Triage.Snap.affinity held ~selected:a ~others:all_preds)
                     = affinity_bits
                         (Sbi_core.Affinity.list (dataset_of before) ~selected:a
                            ~others:all_preds)
              | 1 ->
                  let all_scores = Sbi_core.Prune.retained_scores (counts ()) in
                  Array.sort Sbi_core.Scores.compare_importance_desc all_scores;
                  let expected = Array.to_list (Array.sub all_scores 0 (min 5 (Array.length all_scores))) in
                  List.map score_bits (Triage.topk ~k:5 idx) = List.map score_bits expected
              | 2 ->
                  let p = pred () in
                  score_bits (Triage.pred_detail idx ~pred:p)
                  = score_bits (Sbi_core.Scores.score (counts ()) ~pred:p)
              | 3 ->
                  let p = pred () in
                  affinity_bits (Triage.affinity idx ~selected:p ~others:all_preds)
                  = affinity_bits
                      (Sbi_core.Affinity.list (dataset_of !all) ~selected:p ~others:all_preds)
              | 4 ->
                  List.for_all
                    (fun discard ->
                      elimination_bits (Triage.eliminate ~discard idx)
                      = elimination_bits (Sbi_core.Eliminate.run ~discard (dataset_of !all)))
                    [
                      Sbi_core.Eliminate.Discard_all_true;
                      Sbi_core.Eliminate.Discard_failing_true;
                      Sbi_core.Eliminate.Relabel_failing;
                    ]
              | _ ->
                  let a = pred () and b = pred () in
                  Triage.cooccurrence idx ~a ~b = naive_cooccurrence !all a b)
            ops))

let count_spans name =
  List.length
    (List.filter (fun (s : Sbi_obs.Trace.span) -> s.Sbi_obs.Trace.name = name)
       (Sbi_obs.Trace.recent ()))

let with_tracing f =
  let was = Sbi_obs.enabled () in
  Sbi_obs.set_enabled true;
  Sbi_obs.Trace.clear ();
  Fun.protect ~finally:(fun () -> Sbi_obs.set_enabled was) f

(* [f open_live]: each [open_live ()] opens the same 30-run index afresh
   and appends the same [live] reports to its tail. *)
let with_live_index ~seed ~live f =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| seed |] in
      let base = random_reports st ~start_id:0 30 in
      write_log ~dir:log base;
      ignore (Index.build ~log ~dir:idx_dir ());
      let tail = random_reports st ~start_id:30 live in
      let open_live () =
        let idx = Index.open_ ~dir:idx_dir in
        Array.iter (Index.append idx) tail;
        idx
      in
      f open_live)

(* Aggregate-only queries decode no tail posting; the first bitmap query
   decodes the postings it reads, each once per snapshot, a second one at
   the same epoch decodes none, and the next epoch's snapshot decodes
   afresh. *)
let test_tail_bits_lazy () =
  with_live_index ~seed:31 ~live:1 (fun open_live ->
      let idx = open_live () in
      let decoded () = count_spans "index.tail_posting" in
      with_tracing (fun () ->
          ignore (Triage.topk ~k:5 idx);
          ignore (Triage.topk_f ~k:5 ~formula:Sbi_sbfl.Formula.importance idx);
          ignore (Triage.pred_detail idx ~pred:3);
          ignore (Triage.pred_score idx ~pred:3 ~formula:Sbi_sbfl.Formula.importance);
          Alcotest.(check int) "topk and pred decode no tail posting" 0 (decoded ());
          ignore (Triage.affinity idx ~selected:3 ~others:all_preds);
          let first = decoded () in
          Alcotest.(check bool) "first affinity decodes each posting it reads once" true
            (first > 0 && first <= nsites + npreds + 1);
          ignore (Triage.affinity idx ~selected:3 ~others:all_preds);
          Alcotest.(check int) "second affinity at the same epoch decodes none" first (decoded ());
          Index.append idx (mk_report ~sites:[| 1 |] ~preds:[| 3 |] 1000);
          ignore (Triage.affinity idx ~selected:3 ~others:all_preds);
          Alcotest.(check bool) "the next epoch decodes afresh" true (decoded () > first)))

(* First use of the tail view from 4 domains: four racers line up and
   reach the not-yet-decoded postings together, and every answer matches
   the sequential computation on an identical index. *)
let test_tail_view_concurrent_first_use () =
  with_live_index ~seed:32 ~live:25 (fun open_live ->
      let racers = 4 in
      let answers snap i =
        List.filter_map
          (fun p ->
            if p mod racers <> i then None
            else Some (affinity_bits (Triage.Snap.affinity snap ~selected:p ~others:all_preds)))
          all_preds
      in
      let sequential =
        let snap = Index.snapshot (open_live ()) in
        Array.init racers (answers snap)
      in
      let snap = Index.snapshot (open_live ()) in
      let arrived = Atomic.make 0 in
      (* one racer per domain; each waits (bounded) for the others *)
      let parallel =
        Array.init racers (fun i ->
            Domain.spawn (fun () ->
                Atomic.incr arrived;
                let deadline = Unix.gettimeofday () +. 2.0 in
                while Atomic.get arrived < racers && Unix.gettimeofday () < deadline do
                  Unix.sleepf 0.0001
                done;
                answers snap i))
        |> Array.map Domain.join
      in
      Alcotest.(check bool) "parallel first use = sequential" true (parallel = sequential))

(* Reports on the wide table whose predicates each have their own
   density, from one run in a thousand to most runs, so the tail's
   postings hold gaps of one varint byte and of two. *)
let sparse_reports st ~start_id n =
  let npreds = Array.length wide_pred_site in
  let density = Array.init npreds (fun _ -> 10. ** -.Random.State.float st 3.0) in
  Array.init n (fun i ->
      let preds = List.filter (fun p -> Random.State.float st 1.0 < density.(p)) (List.init npreds Fun.id) in
      let extra = List.filter (fun _ -> Random.State.float st 1.0 < 0.02) (List.init wide_nsites Fun.id) in
      let sites = List.sort_uniq Int.compare (extra @ List.map (fun p -> wide_pred_site.(p)) preds) in
      mk_report
        ~outcome:(if Random.State.float st 1.0 < 0.3 then Report.Failure else Report.Success)
        ~sites:(Array.of_list sites) ~preds:(Array.of_list preds) (start_id + i))

(* The tail view is exactly the segment its prefix would make: for random
   appends and snapshots taken at random tail lengths, each snapshot's
   tail outcome bitmap and every predicate and site bitmap equal those of
   [Segment.of_reports] over the reports appended before it — decoded
   only after every later append has grown the buffers, and again for a
   snapshot decoded at once. *)
let qcheck_tail_view_is_prefix_segment =
  QCheck2.Test.make ~name:"tail view = Segment.of_reports of its prefix, after later appends"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 10_000) (list_size (int_range 1 6) (int_range 0 400)))
    (fun (seed, batches) ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let nsites = wide_nsites and pred_site = wide_pred_site in
          let npreds = Array.length pred_site in
          let st = Random.State.make [| seed; 0x7a11 |] in
          let base = sparse_reports st ~start_id:0 5 in
          write_log ~dir:log ~meta:(dataset_of ~nsites ~pred_site [||]) base;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let live = ref [||] and snaps = ref [] in
          List.iter
            (fun n ->
              let batch = sparse_reports st ~start_id:(5 + Array.length !live) n in
              Array.iter (Index.append idx) batch;
              live := Array.append !live batch;
              snaps := (Array.length !live, Index.snapshot idx) :: !snaps)
            batches;
          let tail_matches (n, snap) =
            let views = snap.Snapshot.views in
            if n = 0 then Array.length views = Array.length idx.Index.segments
            else
              let v = views.(Array.length views - 1) in
              let seg =
                Segment.of_reports ~nsites ~npreds ~source_shard:0 ~start_off:0 ~end_off:0
                  (Array.sub !live 0 n)
              in
              let failing = v.Snapshot.v_failing () in
              v.Snapshot.v_nruns = n
              && Bitset.length failing = n
              && List.for_all (fun i -> Bitset.get failing i = Bitset.get seg.Segment.failing i)
                   (List.init n Fun.id)
              && Array.for_all Fun.id
                   (Array.init npreds (fun p ->
                        Rbitmap.to_positions (v.Snapshot.v_pred_bits p) = seg.Segment.pred_true.(p)))
              && Array.for_all Fun.id
                   (Array.init nsites (fun i ->
                        Rbitmap.to_positions (v.Snapshot.v_site_bits i) = seg.Segment.site_obs.(i)))
          in
          let now = (Array.length !live, Index.snapshot idx) in
          tail_matches now && List.for_all tail_matches !snaps))

(* The tail keeps postings, not reports: after 10,000 synthetic reports it
   holds at most 20 words per report. *)
let test_tail_memory_bound () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let nsites = Sbi_corpus.Synth.default_nsites and npreds = Sbi_corpus.Synth.default_npreds in
      write_log ~dir:log ~meta:(Sbi_corpus.Synth.meta ~nsites ~npreds) [||];
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let n = 10_000 in
      for run_id = 0 to n - 1 do
        Index.append idx
          (Sbi_corpus.Synth.report ~nsites ~npreds ~seed:Sbi_corpus.Synth.default_seed ~run_id)
      done;
      let words = Obj.reachable_words (Obj.repr idx.Index.tail) in
      Alcotest.(check bool)
        (Printf.sprintf "%d words per report (at most 20)" (words / n))
        true
        (words <= 20 * n);
      Alcotest.(check bool) "tail_bytes counts the buffers" true
        (Index.tail_bytes idx > 0 && Index.tail_bytes idx <= words * (Sys.word_size / 8)))

(* --- candidate-restricted rescoring --- *)

(* [f idx ds]: a wide-table index with two on-disk segments (one per
   shard) plus a live tail, and the same runs as a dataset. *)
let with_wide_index ~st ~tail f =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let nsites = wide_nsites and pred_site = wide_pred_site in
      let meta = dataset_of ~nsites ~pred_site [||] in
      let gen start_id n = random_reports ~nsites ~pred_site st ~start_id n in
      let s0 = gen 0 (30 + Random.State.int st 20) in
      let s1 = gen (Array.length s0) (30 + Random.State.int st 20) in
      write_log ~dir:log ~meta ~shard:0 s0;
      write_log ~dir:log ~meta ~shard:1 s1;
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let live = gen (Array.length s0 + Array.length s1) tail in
      Array.iter (Index.append idx) live;
      f idx (dataset_of ~nsites ~pred_site (Array.concat [ s0; s1; live ])))

(* A random strict subset of the wide table's predicates, in random
   order; any size from empty to all but one. *)
let random_strict_subset st =
  let n = Array.length wide_pred_site in
  let keep = Random.State.float st 1.0 in
  let drop = Random.State.int st n in
  let picked = List.filter (fun p -> p <> drop && Random.State.float st 1.0 < keep) (List.init n Fun.id) in
  List.map snd (List.sort compare (List.map (fun p -> (Random.State.bits st, p)) picked))

(* The kernel counts only the predicates being ranked, so elimination over
   an explicit candidate subset and affinity over a subset of [others]
   must still equal Sbi_core bit for bit — over on-disk segments plus a
   live tail, under all three §5 discard proposals. *)
let qcheck_candidate_subsets =
  QCheck2.Test.make ~name:"strict-subset candidates: elimination and affinity = Sbi_core"
    ~count:10
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xca7 |] in
      with_wide_index ~st ~tail:(1 + Random.State.int st 12) (fun idx ds ->
          let same_elim a b = compare a b = 0 && elimination_bits a = elimination_bits b in
          let same_aff a b = compare a b = 0 && affinity_bits a = affinity_bits b in
          let reference = Sbi_core.Analysis.analyze ds in
          List.for_all
            (fun discard ->
              let s = random_strict_subset st in
              same_elim
                (Triage.eliminate ~discard ~candidates:s idx)
                (Sbi_core.Eliminate.run ~discard ~candidates:s ds)
              &&
              let s = random_strict_subset st in
              let selected = Random.State.int st (Array.length wide_pred_site) in
              same_aff
                (Triage.affinity idx ~selected ~others:s)
                (Sbi_core.Analysis.affinity_for
                   { reference with Sbi_core.Analysis.retained = s }
                   ~pred:selected))
            [
              Sbi_core.Eliminate.Discard_all_true;
              Sbi_core.Eliminate.Discard_failing_true;
              Sbi_core.Eliminate.Relabel_failing;
            ]))

(* A cold analysis loads, per on-disk segment, at most the retained
   predicates' postings and their distinct sites' postings — not the
   whole table's. *)
let test_cold_analysis_posting_loads () =
  let st = Random.State.make [| 41 |] in
  with_wide_index ~st ~tail:0 (fun idx _ ->
      let segments = Array.length idx.Index.segments in
      Alcotest.(check int) "two on-disk segments" 2 segments;
      let a = Triage.analyze idx in
      let retained = a.Triage.retained in
      if List.length retained < 2 then Alcotest.fail "corpus retains too few predicates";
      let sites = List.sort_uniq Int.compare (List.map (fun p -> wide_pred_site.(p)) retained) in
      let bound = segments * (List.length retained + List.length sites) in
      let misses = (Index.cache_stats idx).Sbi_store.Lru.misses in
      if misses > bound then
        Alcotest.failf "cold analysis loaded %d postings; retained set needs at most %d" misses
          bound)

(* --- tiered compaction --- *)

(* grow the log in waves, compiling each wave into its own segment *)
let build_waves ~log ~idx_dir ~st ~waves ~per_wave =
  let total = ref 0 in
  for w = 0 to waves - 1 do
    let reports = random_reports st ~start_id:!total per_wave in
    if w = 0 then write_log ~dir:log reports else grow_shard ~dir:log ~shard:0 reports;
    ignore (Index.build ~log ~dir:idx_dir ());
    total := !total + per_wave
  done;
  !total

let test_compact_reduces_and_preserves () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 21 |] in
      let total = build_waves ~log ~idx_dir ~st ~waves:6 ~per_wave:15 in
      let before = Index.fsck ~dir:idx_dir in
      Alcotest.(check int) "six segments before" 6 (List.length before.Index.fsck_segments);
      (* the whole query surface, recorded before compaction via the
         reference analysis — equality on both sides is bit-identity *)
      let ds =
        let st = Random.State.make [| 21 |] in
        dataset_of (random_reports st ~start_id:0 total)
      in
      check_equivalent ~msg:"before compact" (Index.open_ ~dir:idx_dir) ds;
      let stats = Index.compact ~tier_max:2 ~dir:idx_dir () in
      Alcotest.(check bool) "segments reduced" true
        (stats.Index.cp_segments_after < stats.Index.cp_segments_before);
      Alcotest.(check int) "before count matches fsck" 6 stats.Index.cp_segments_before;
      Alcotest.(check bool) "rounds ran" true (stats.Index.cp_rounds >= 1);
      Alcotest.(check bool) "live bytes shrink" true
        (stats.Index.cp_bytes_after <= stats.Index.cp_bytes_before);
      (* compaction deletes the merged-away inputs *)
      List.iter
        (fun f ->
          if Sys.file_exists (Filename.concat idx_dir f) then
            Alcotest.failf "reclaimed file %s still present" f)
        stats.Index.cp_reclaimed;
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "no run lost" total (Index.nruns idx);
      check_equivalent ~msg:"after compact" idx ds;
      (* the compacted index still takes appends and incremental builds *)
      let st2 = Random.State.make [| 22 |] in
      let live = random_reports st2 ~start_id:total 7 in
      Array.iter (Index.append idx) live;
      Alcotest.(check int) "tail after compact" 7 (Index.tail_count idx);
      let after = Index.fsck ~dir:idx_dir in
      Alcotest.(check int) "fsck clean" 0 after.Index.fsck_corrupt;
      Alcotest.(check int) "fsck records" total after.Index.fsck_records;
      Alcotest.(check bool) "no dead files" true (after.Index.fsck_dead_files = []))

(* A snapshot taken before compaction keeps answering after compaction
   deletes the files it reads: its segments are mapped, not reopened by
   path.  Nothing touches a posting before the deletion, so every bitmap
   below is first read from an unlinked file; each answer must equal the
   compacted index's bit for bit. *)
let test_snapshot_survives_compaction () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 26 |] in
      ignore (build_waves ~log ~idx_dir ~st ~waves:6 ~per_wave:15);
      let held = Index.snapshot (Index.open_ ~dir:idx_dir) in
      let stats = Index.compact ~tier_max:2 ~dir:idx_dir () in
      Alcotest.(check bool) "files were merged away" true (stats.Index.cp_reclaimed <> []);
      List.iter
        (fun f ->
          if Sys.file_exists (Filename.concat idx_dir f) then
            Alcotest.failf "reclaimed file %s still present" f)
        stats.Index.cp_reclaimed;
      Gc.full_major ();
      let compacted = Index.snapshot (Index.open_ ~dir:idx_dir) in
      let both f = (f held, f compacted) in
      let same what (a, b) = Alcotest.(check bool) what true (a = b) in
      same "topk" (both (fun s -> List.map score_bits (Triage.Snap.topk ~k:npreds s)));
      List.iter
        (fun p ->
          same
            (Printf.sprintf "affinity of %d" p)
            (both (fun s -> affinity_bits (Triage.Snap.affinity s ~selected:p ~others:all_preds))))
        all_preds;
      List.iter
        (fun discard ->
          same
            (Sbi_core.Eliminate.discard_to_string discard)
            (both (fun s -> elimination_bits (Triage.Snap.eliminate ~discard s))))
        [
          Sbi_core.Eliminate.Discard_all_true;
          Sbi_core.Eliminate.Discard_failing_true;
          Sbi_core.Eliminate.Relabel_failing;
        ];
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              same
                (Printf.sprintf "cooccurrence %d %d" a b)
                (both (fun s -> Triage.Snap.cooccurrence s ~a ~b)))
            all_preds)
        all_preds)

let test_compact_plan_is_dry () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 23 |] in
      ignore (build_waves ~log ~idx_dir ~st ~waves:4 ~per_wave:10);
      let listing () = List.sort compare (Array.to_list (Sys.readdir idx_dir)) in
      let files = listing () in
      let plan = Index.compact_plan ~tier_max:2 ~dir:idx_dir () in
      Alcotest.(check bool) "plan proposes a merge" true (plan.Index.pl_groups <> []);
      let tier0_files =
        match plan.Index.pl_groups with (_, fs) :: _ -> List.length fs | [] -> 0
      in
      Alcotest.(check int) "all four members listed" 4 tier0_files;
      Alcotest.(check bool) "dry run wrote nothing" true (listing () = files);
      (* an already-compacted index plans nothing *)
      ignore (Index.compact ~tier_max:2 ~dir:idx_dir ());
      let plan2 = Index.compact_plan ~tier_max:2 ~dir:idx_dir () in
      Alcotest.(check bool) "quiescent after compact" true (plan2.Index.pl_groups = []))

let test_compact_rejects_corrupt_member () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 24 |] in
      ignore (build_waves ~log ~idx_dir ~st ~waves:3 ~per_wave:10);
      corrupt_one_byte (Filename.concat idx_dir "seg-0001.sbix") 40;
      (match Index.compact ~tier_max:2 ~dir:idx_dir () with
      | _ -> Alcotest.fail "compacting a corrupt member must fail loudly"
      | exception Index.Format_error _ -> ());
      (* nothing was half-merged: the index still opens and fsck still
         sees exactly one damaged segment *)
      Alcotest.(check int) "damage still isolated" 1
        (Index.fsck ~dir:idx_dir).Index.fsck_corrupt)

let test_fsck_tier_report () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 25 |] in
      let total = build_waves ~log ~idx_dir ~st ~waves:3 ~per_wave:12 in
      let r = Index.fsck ~dir:idx_dir in
      List.iter
        (fun seg ->
          Alcotest.(check int)
            (Printf.sprintf "tier of %s" seg.Index.seg_file)
            (Sbi_store.Tier.tier_of seg.Index.seg_runs)
            seg.Index.seg_tier)
        r.Index.fsck_segments;
      (* the per-tier rollup accounts for every intact segment and run *)
      let tier_segs = List.fold_left (fun a (_, s, _, _) -> a + s) 0 r.Index.fsck_tiers in
      let tier_runs = List.fold_left (fun a (_, _, n, _) -> a + n) 0 r.Index.fsck_tiers in
      Alcotest.(check int) "tier rollup covers all segments" r.Index.fsck_ok tier_segs;
      Alcotest.(check int) "tier rollup covers all runs" total tier_runs;
      let tiers_listed = List.map (fun (t, _, _, _) -> t) r.Index.fsck_tiers in
      Alcotest.(check bool) "tiers ascend" true
        (tiers_listed = List.sort_uniq compare tiers_listed))

let qcheck_compaction_bit_identity =
  QCheck2.Test.make ~name:"compaction preserves every triage answer bit-for-bit" ~count:10
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 2 5))
    (fun (seed, waves) ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          let st = Random.State.make [| seed; 0x7e4 |] in
          let per_wave = 8 + Random.State.int st 20 in
          let total = build_waves ~log ~idx_dir ~st ~waves ~per_wave in
          let ds =
            let st = Random.State.make [| seed; 0x7e4 |] in
            ignore (8 + Random.State.int st 20);
            dataset_of (random_reports st ~start_id:0 total)
          in
          let stats = Index.compact ~tier_max:2 ~dir:idx_dir () in
          if stats.Index.cp_segments_after >= waves then
            Alcotest.fail "compaction left too many segments";
          check_equivalent ~msg:"post-compact" (Index.open_ ~dir:idx_dir) ds;
          (Index.fsck ~dir:idx_dir).Index.fsck_corrupt = 0))

(* [Report.t] ids are sorted and distinct.  A report that breaks this is
   refused before it touches the live tail: the tail aggregate would count
   a repeated predicate once per occurrence while its postings keep it
   once, so F(P) could exceed NumF. *)
let test_append_rejects_unsorted_ids () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let base =
        Array.init 6 (fun i ->
            let outcome = if i < 3 then Report.Failure else Report.Success in
            mk_report ~outcome ~sites:[| 0; 1 |] ~preds:[| 0; 2 |] i)
      in
      write_log ~dir:log base;
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      let counts = Triage.counts idx and epoch = Index.epoch idx in
      List.iter
        (fun (what, sites, preds) ->
          let r = mk_report ~outcome:Report.Failure ~sites ~preds 6 in
          (match Index.validate idx r with
          | () -> Alcotest.failf "validate accepted %s" what
          | exception Invalid_argument _ -> ());
          (match Index.append idx r with
          | () -> Alcotest.failf "append accepted %s" what
          | exception Invalid_argument _ -> ());
          Alcotest.(check int) (what ^ ": epoch unchanged") epoch (Index.epoch idx);
          Alcotest.(check bool) (what ^ ": counts unchanged") true
            (counts_equal counts (Triage.counts idx)))
        [
          ("a repeated predicate", [| 0 |], [| 0; 0 |]);
          ("descending predicates", [| 0; 1 |], [| 2; 0 |]);
          ("a repeated site", [| 1; 1 |], [| 2 |]);
          ("descending sites", [| 1; 0 |], [| 0; 2 |]);
        ];
      Alcotest.(check int) "nothing reached the tail" 0 (Index.tail_count idx);
      Index.append idx (mk_report ~outcome:Report.Failure ~sites:[| 0; 1 |] ~preds:[| 0; 2 |] 6);
      Alcotest.(check int) "a sorted report is accepted" 1 (Index.tail_count idx))

(* One §5 seeding rule: under every discard proposal, Analysis.analyze,
   Eliminate.run and the index's Triage.analyze run the same elimination.
   The first world is §5's P/¬P case — P (pred 0) and ¬P (pred 1)
   predict different bugs and ¬P starts pruned — where proposal 3 must
   select both; the others are random corpora. *)
let test_seeding_rule_agrees () =
  let complementary =
    Array.concat
      [
        Array.init 300 (fun i -> mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] i);
        Array.init 40 (fun i ->
            mk_report ~outcome:Report.Failure ~sites:[| 0 |] ~preds:[| 1 |] (300 + i));
        Array.init 30 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 0 |] (340 + i));
        Array.init 70 (fun i -> mk_report ~sites:[| 0 |] ~preds:[| 1 |] (370 + i));
      ]
  in
  let worlds =
    ("P/not-P", complementary)
    :: List.init 4 (fun seed ->
           ( Printf.sprintf "random %d" seed,
             random_reports (Random.State.make [| seed; 0x5ee |]) ~start_id:0 60 ))
  in
  List.iter
    (fun (name, reports) ->
      with_temp_dir (fun tmp ->
          let log = Filename.concat tmp "log" in
          let idx_dir = Filename.concat tmp "idx" in
          write_log ~dir:log reports;
          ignore (Index.build ~log ~dir:idx_dir ());
          let idx = Index.open_ ~dir:idx_dir in
          let ds = dataset_of reports in
          List.iter
            (fun discard ->
              let what = Printf.sprintf "%s, %s" name (Sbi_core.Eliminate.discard_to_string discard) in
              let run = Sbi_core.Eliminate.run ~discard ds in
              let analysis = (Sbi_core.Analysis.analyze ~discard ds).Sbi_core.Analysis.elimination in
              let indexed = (Triage.analyze ~discard idx).Triage.elimination in
              let selected = Sbi_core.Eliminate.selected_preds in
              Alcotest.(check (list int)) (what ^ ": Analysis.analyze = Eliminate.run")
                (selected run) (selected analysis);
              Alcotest.(check (list int)) (what ^ ": Triage.analyze = Eliminate.run")
                (selected run) (selected indexed);
              Alcotest.(check bool) (what ^ ": bit-identical") true
                (elimination_bits run = elimination_bits analysis
                && elimination_bits run = elimination_bits indexed);
              if name = "P/not-P" && discard = Sbi_core.Eliminate.Relabel_failing then
                Alcotest.(check (list int)) "proposal 3 selects P then not-P" [ 0; 1 ]
                  (selected analysis))
            [
              Sbi_core.Eliminate.Discard_all_true;
              Sbi_core.Eliminate.Discard_failing_true;
              Sbi_core.Eliminate.Relabel_failing;
            ]))
    worlds

(* Every damaged segment file ends as a counted corrupt segment, never an
   exception from its mapping.  A file of the old version 1 is one of
   them: fsck names it, repair drops it and rolls its shard back, and the
   next build re-indexes the range in the current format. *)
let test_damaged_segment_files_counted () =
  with_temp_dir (fun tmp ->
      let log = Filename.concat tmp "log" in
      let idx_dir = Filename.concat tmp "idx" in
      let st = Random.State.make [| 27 |] in
      let s0 = random_reports st ~start_id:0 20 and s1 = random_reports st ~start_id:20 20 in
      write_log ~dir:log s0;
      write_log ~dir:log ~shard:1 s1;
      ignore (Index.build ~log ~dir:idx_dir ());
      let seg1 = Filename.concat idx_dir "seg-0001.sbix" in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s) in
      let good = read seg1 in
      let n = String.length good in
      let open_corrupt what =
        let idx = Index.open_ ~dir:idx_dir in
        Alcotest.(check int) (what ^ ": one corrupt segment") 1
          idx.Index.stats.Index.segments_corrupt;
        Alcotest.(check int) (what ^ ": intact segment still serves") 20 (Index.nruns idx)
      in
      Sys.remove seg1;
      open_corrupt "missing file";
      List.iter
        (fun len ->
          write seg1 (String.sub good 0 len);
          open_corrupt (Printf.sprintf "%d-byte prefix" len))
        [ n - 3; Segment.trailer_len; 0 ];
      (* version 1, with the file CRC recomputed so only the version is off *)
      let b = Bytes.of_string good in
      Bytes.set b (String.length Segment.magic) '\001';
      let crc =
        Sbi_util.Crc32.sub (Bytes.to_string b) ~pos:(String.length Segment.magic)
          ~len:(n - 4 - String.length Segment.magic)
      in
      for i = 0 to 3 do
        Bytes.set b (n - 4 + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
      done;
      write seg1 (Bytes.to_string b);
      open_corrupt "version 1";
      let r = Index.fsck ~dir:idx_dir in
      Alcotest.(check (list (option string))) "fsck names the version"
        [ None; Some "unsupported segment version 1" ]
        (List.map (fun sg -> sg.Index.seg_error) r.Index.fsck_segments);
      let rep = Index.repair ~dir:idx_dir in
      Alcotest.(check (list string)) "repair drops it" [ "seg-0001.sbix" ] rep.Index.rep_dropped;
      ignore (Index.build ~log ~dir:idx_dir ());
      let idx = Index.open_ ~dir:idx_dir in
      Alcotest.(check int) "rebuilt: nothing corrupt" 0 idx.Index.stats.Index.segments_corrupt;
      check_equivalent ~msg:"rebuilt" idx (dataset_of (Array.append s0 s1)))

let suite =
  [
    Alcotest.test_case "bitset" `Quick test_bitset;
    Alcotest.test_case "segment round trip" `Quick test_segment_round_trip;
    Alcotest.test_case "segment aggregator" `Quick test_segment_aggregator;
    Alcotest.test_case "segment corruption" `Quick test_segment_corruption;
    Alcotest.test_case "segment duplicate observations" `Quick
      test_segment_duplicate_observations;
    Alcotest.test_case "build and open" `Quick test_build_and_open;
    Alcotest.test_case "incremental build" `Quick test_incremental_build;
    Alcotest.test_case "corrupt source record skipped" `Quick test_corrupt_source_skipped;
    Alcotest.test_case "corrupt segment + fsck" `Quick test_corrupt_segment_and_fsck;
    Alcotest.test_case "live tail append" `Quick test_tail_append;
    Alcotest.test_case "compact reduces segments, preserves answers" `Quick
      test_compact_reduces_and_preserves;
    Alcotest.test_case "compact --dry-run plans without writing" `Quick
      test_compact_plan_is_dry;
    Alcotest.test_case "compact rejects corrupt member" `Quick
      test_compact_rejects_corrupt_member;
    Alcotest.test_case "fsck tier report" `Quick test_fsck_tier_report;
    QCheck_alcotest.to_alcotest qcheck_compaction_bit_identity;
    QCheck_alcotest.to_alcotest qcheck_index_matches_analysis;
    QCheck_alcotest.to_alcotest qcheck_discard_proposals;
    QCheck_alcotest.to_alcotest qcheck_snapshot_cache;
    QCheck_alcotest.to_alcotest qcheck_candidate_subsets;
    QCheck_alcotest.to_alcotest qcheck_cooccurrence;
    QCheck_alcotest.to_alcotest qcheck_interleaved_ingest_bit_identity;
    Alcotest.test_case "tail bitmaps built lazily, once per snapshot" `Quick
      test_tail_bits_lazy;
    Alcotest.test_case "tail view first used from 4 domains = sequential" `Quick
      test_tail_view_concurrent_first_use;
    Alcotest.test_case "cold analysis loads only retained postings" `Quick
      test_cold_analysis_posting_loads;
    Alcotest.test_case "append rejects unsorted or repeated ids" `Quick
      test_append_rejects_unsorted_ids;
    Alcotest.test_case "snapshot answers after compaction deletes its files" `Quick
      test_snapshot_survives_compaction;
    Alcotest.test_case "one seeding rule: analyze = Eliminate.run, every proposal" `Quick
      test_seeding_rule_agrees;
    Alcotest.test_case "damaged or old-version segment files are counted corrupt" `Quick
      test_damaged_segment_files_counted;
    QCheck_alcotest.to_alcotest qcheck_tail_view_is_prefix_segment;
    Alcotest.test_case "tail holds at most 20 words per report" `Quick test_tail_memory_bound;
  ]
