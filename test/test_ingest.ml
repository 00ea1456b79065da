(* Tests for the feedback ingestion pipeline: binary report codec
   (round-trip + corruption behaviour), sharded crash-tolerant report log,
   mergeable streaming aggregation, and parallel collection. *)
open Sbi_lang
open Sbi_instrument
open Sbi_runtime
open Sbi_ingest

let mk_report ?(outcome = Report.Success) ?(sites = [||]) ?(preds = [||])
    ?(counts = None) ?(bugs = [||]) ?crash_sig id =
  {
    Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = (match counts with Some c -> c | None -> Array.map (fun _ -> 1) preds);
    bugs;
    crash_sig;
  }

let report_equal (a : Report.t) (b : Report.t) =
  a.Report.run_id = b.Report.run_id
  && a.Report.outcome = b.Report.outcome
  && a.Report.observed_sites = b.Report.observed_sites
  && a.Report.true_preds = b.Report.true_preds
  && a.Report.true_counts = b.Report.true_counts
  && a.Report.bugs = b.Report.bugs
  && a.Report.crash_sig = b.Report.crash_sig

let check_report msg a b = Alcotest.(check bool) msg true (report_equal a b)

(* --- crc32 --- *)

let test_crc32 () =
  Alcotest.(check int) "check vector" 0xCBF43926 (Sbi_util.Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Sbi_util.Crc32.string "");
  Alcotest.(check int) "sub matches string" (Sbi_util.Crc32.string "456")
    (Sbi_util.Crc32.sub "123456789" ~pos:3 ~len:3);
  Alcotest.(check bool) "one flipped bit changes crc" true
    (Sbi_util.Crc32.string "123456788" <> Sbi_util.Crc32.string "123456789")

(* --- varints --- *)

let test_varint () =
  let buf = Buffer.create 64 in
  let values = [ 0; 1; 127; 128; 300; 16_383; 16_384; 1_000_000_007; max_int / 2 ] in
  List.iter (Codec.add_varint buf) values;
  let s = Buffer.contents buf in
  let pos = ref 0 in
  List.iter
    (fun v -> Alcotest.(check int) "varint round trip" v (Codec.read_varint s pos (String.length s)))
    values;
  Alcotest.(check int) "all bytes consumed" (String.length s) !pos;
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Codec.add_varint: negative") (fun () ->
      Codec.add_varint buf (-1));
  (match Codec.read_varint "\x80\x80" (ref 0) 2 with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "unterminated varint must raise")

(* --- codec round trips --- *)

let sample_reports =
  [
    mk_report 0;
    mk_report ~outcome:Report.Failure ~sites:[| 0; 1; 2; 900 |] ~preds:[| 0; 7; 8; 4096 |]
      ~counts:(Some [| 1; 130; 2; 99 |])
      ~bugs:[| 5; 1 |] ~crash_sig:"memcpy<save<main" 12345;
    mk_report ~crash_sig:"" 7;
    mk_report ~crash_sig:"weird % , \n sig \255" 1;
    mk_report ~sites:[| 3 |] ~preds:[||] 999_999_999;
  ]

let test_codec_round_trip () =
  List.iter
    (fun r -> check_report "codec round trip" r (Codec.decode (Codec.encode r)))
    sample_reports

let test_codec_rejects_garbage () =
  let r = List.nth sample_reports 1 in
  let enc = Codec.encode r in
  (match Codec.decode (enc ^ "x") with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "trailing bytes must raise");
  (match Codec.decode (String.sub enc 0 (String.length enc - 1)) with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "truncated payload must raise");
  match Codec.decode "\x42" with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad version must raise"

let qcheck_codec_round_trip =
  let gen_report =
    QCheck2.Gen.(
      let sorted upper = map (fun l -> Array.of_list (List.sort_uniq compare l)) (list (int_range 0 upper)) in
      map
        (fun ((id, fail, sites, preds), (counts, bugs, sg)) ->
          let preds_n = Array.length preds in
          mk_report
            ~outcome:(if fail then Report.Failure else Report.Success)
            ~sites ~preds
            ~counts:(Some (Array.init preds_n (fun i -> 1 + List.nth counts (i mod max 1 (List.length counts)))))
            ~bugs:(Array.of_list bugs) ?crash_sig:sg (abs id))
        (pair
           (quad int bool (sorted 600) (sorted 5000))
           (triple (list_size (int_range 1 8) (int_range 0 200)) (list (int_range 0 20))
              (option string))))
  in
  QCheck2.Test.make ~name:"codec round-trips arbitrary reports" ~count:300 gen_report
    (fun r -> report_equal r (Codec.decode (Codec.encode r)))

(* --- hostile payloads --- *)

(* Nine bytes whose last 7-bit group sets bit 62, the sign bit of a
   63-bit int: well-formed LEB128, but no non-negative int. *)
let wide_varint = String.make 8 '\xff' ^ "\x40"

(* A failing run's payload by hand: version and run id, then [body]. *)
let raw_payload ?(run_id = 7) body =
  let b = Buffer.create 32 in
  Codec.add_varint b Codec.version;
  Codec.add_varint b run_id;
  Buffer.add_char b '\001';
  Buffer.add_string b body;
  Buffer.contents b

let expect_corrupt what s =
  match Codec.decode s with
  | exception Codec.Corrupt _ -> ()
  | _ -> Alcotest.failf "%s: decoded" what

let test_codec_rejects_wide_varints () =
  (match Codec.read_varint wide_varint (ref 0) (String.length wide_varint) with
  | exception Codec.Corrupt _ -> ()
  | v -> Alcotest.failf "varint past max_int read as %d" v);
  let buf = Buffer.create 9 in
  Codec.add_varint buf max_int;
  let s = Buffer.contents buf in
  Alcotest.(check int) "max_int still round-trips" max_int
    (Codec.read_varint s (ref 0) (String.length s));
  (* in every integer field the decoder reads before the counts *)
  expect_corrupt "run id" ("\001" ^ wide_varint ^ "\001\000\000\000\000");
  expect_corrupt "site count" (raw_payload (wide_varint ^ "\000\000\000\000"));
  expect_corrupt "predicate count" (raw_payload ("\000" ^ wide_varint ^ "\000\000"));
  expect_corrupt "bug count" (raw_payload ("\000\000" ^ wide_varint ^ "\000"));
  expect_corrupt "signature length" (raw_payload ("\000\000\000\001" ^ wide_varint))

let test_codec_rejects_duplicate_ids () =
  (* sites [0; 2], then predicates [0; 0]: a zero delta *)
  expect_corrupt "repeated predicate" (raw_payload "\002\000\002\002\000\000\001\001\000\000");
  expect_corrupt "repeated site" (raw_payload "\002\001\000\000\000\000");
  (* a delta sum past max_int wraps below its predecessor *)
  let b = Buffer.create 16 in
  Buffer.add_char b '\002';
  Codec.add_varint b 5;
  Codec.add_varint b max_int;
  Buffer.add_string b "\000\000\000";
  expect_corrupt "overflowing delta" (raw_payload (Buffer.contents b));
  (* the writer refuses what its reader would reject *)
  List.iter
    (fun (what, r) ->
      match Codec.encode r with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s: encoded" what)
    [
      ("repeated predicate", mk_report ~sites:[| 0; 2 |] ~preds:[| 0; 0 |] 1);
      ("repeated site", mk_report ~sites:[| 1; 1 |] 1);
      ("descending predicates", mk_report ~sites:[| 0 |] ~preds:[| 3; 1 |] 1);
    ]

let strictly_ascending a =
  let ok = ref true in
  Array.iteri (fun i v -> if v < 0 || (i > 0 && v <= a.(i - 1)) then ok := false) a;
  !ok

(* [Report.t]'s documented invariants *)
let well_formed (r : Report.t) =
  r.Report.run_id >= 0
  && strictly_ascending r.Report.observed_sites
  && strictly_ascending r.Report.true_preds
  && Array.length r.Report.true_counts = Array.length r.Report.true_preds
  && Array.for_all (fun v -> v >= 0) r.Report.true_counts
  && Array.for_all (fun v -> v >= 0) r.Report.bugs

(* Whatever bytes arrive, [Codec.decode] returns a well-formed report or
   raises [Corrupt]: never another exception, which would escape the
   server's per-report rejection.  Inputs are arbitrary bytes and valid
   records with one byte replaced, a wide varint spliced over one byte,
   or the tail cut off. *)
let qcheck_codec_hostile_bytes =
  let small_report =
    QCheck2.Gen.(
      let ids upper =
        map
          (fun l -> Array.of_list (List.sort_uniq compare l))
          (list_size (int_range 0 6) (int_range 0 upper))
      in
      map
        (fun (id, fail, sites, preds, bugs, sg) ->
          mk_report
            ~outcome:(if fail then Report.Failure else Report.Success)
            ~sites ~preds ~bugs:(Array.of_list bugs) ?crash_sig:sg id)
        (tup6 (int_range 0 300) bool (ids 40) (ids 120)
           (list_size (int_range 0 3) (int_range 0 9))
           (option (string_size (int_range 0 4)))))
  in
  let at s k = k mod String.length s in
  let hostile =
    QCheck2.Gen.(
      oneof
        [
          string_size (int_range 0 40);
          map3
            (fun r k c ->
              let s = Bytes.of_string (Codec.encode r) in
              Bytes.set s (k mod Bytes.length s) c;
              Bytes.to_string s)
            small_report nat char;
          map2
            (fun r k ->
              let s = Codec.encode r in
              let k = at s k in
              String.sub s 0 k ^ wide_varint ^ String.sub s (k + 1) (String.length s - k - 1))
            small_report nat;
          map2
            (fun r k ->
              let s = Codec.encode r in
              String.sub s 0 (k mod String.length s))
            small_report nat;
        ])
  in
  QCheck2.Test.make ~name:"codec decode: hostile bytes give a report or Corrupt" ~count:500
    ~print:String.escaped hostile (fun s ->
      match Codec.decode s with
      | exception Codec.Corrupt _ -> true
      | r -> well_formed r)

(* --- framing --- *)

let frame_all reports =
  let buf = Buffer.create 1024 in
  List.iter (Codec.add_framed buf) reports;
  Buffer.contents buf

let read_frames s =
  let n = String.length s in
  let rec go pos ok corrupt =
    if pos >= n then (List.rev ok, corrupt, 0)
    else
      match Codec.read_framed s ~pos with
      | Codec.Frame (r, next) -> go next (r :: ok) corrupt
      | Codec.Frame_corrupt next -> go next ok (corrupt + 1)
      | Codec.Frame_truncated -> (List.rev ok, corrupt, n - pos)
  in
  go 0 [] 0

let test_framed_round_trip () =
  let s = frame_all sample_reports in
  let ok, corrupt, truncated = read_frames s in
  Alcotest.(check int) "no corruption" 0 corrupt;
  Alcotest.(check int) "no truncation" 0 truncated;
  Alcotest.(check int) "all frames" (List.length sample_reports) (List.length ok);
  List.iter2 (fun a b -> check_report "framed round trip" a b) sample_reports ok

let flip s i =
  let b = Bytes.of_string s in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
  Bytes.to_string b

let test_framed_corruption () =
  let r0 = List.hd sample_reports and r1 = List.nth sample_reports 1 in
  let frame0 = frame_all [ r0 ] in
  let s = frame_all [ r0; r1; r0 ] in
  (* flip a payload byte inside the middle record: only that record is lost *)
  let s' = flip s (String.length frame0 + 4) in
  let ok, corrupt, truncated = read_frames s' in
  Alcotest.(check int) "one corrupt record" 1 corrupt;
  Alcotest.(check int) "no truncation" 0 truncated;
  Alcotest.(check int) "two intact records" 2 (List.length ok);
  check_report "first survives" r0 (List.hd ok);
  check_report "third survives" r0 (List.nth ok 1);
  (* chop mid-record: intact prefix plus a truncated tail *)
  let s'' = String.sub s 0 (String.length s - 3) in
  let ok, corrupt, truncated = read_frames s'' in
  Alcotest.(check int) "no corrupt record" 0 corrupt;
  Alcotest.(check int) "two intact records" 2 (List.length ok);
  Alcotest.(check bool) "truncated tail bytes counted" true (truncated > 0)

(* --- shard log --- *)

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_log" "" in
  Sys.remove dir;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm dir) (fun () -> f dir)

let mk_dataset runs =
  Dataset.of_tables ~nsites:4 ~npreds:8
    ~pred_site:[| 0; 0; 1; 1; 2; 2; 3; 3 |]
    (Array.of_list runs)

let log_reports =
  List.init 23 (fun i ->
      mk_report
        ~outcome:(if i mod 3 = 0 then Report.Failure else Report.Success)
        ~sites:[| i mod 4 |]
        ~preds:[| 2 * (i mod 4); (2 * (i mod 4)) + 1 |]
        ~bugs:(if i mod 3 = 0 then [| i mod 5 |] else [||])
        ?crash_sig:(if i mod 6 = 0 then Some (Printf.sprintf "f%d<main" i) else None)
        i)

let test_shard_log_round_trip () =
  with_temp_dir (fun dir ->
      let ds = mk_dataset log_reports in
      let wstats = Shard_log.write_dataset ~dir ~shards:4 ds in
      Alcotest.(check int) "records written" 23 wstats.Shard_log.records;
      Alcotest.(check int) "four shards" 4 (List.length (Shard_log.shard_files ~dir));
      let ds', rstats = Shard_log.read_all ~dir in
      Alcotest.(check int) "records read" 23 rstats.Shard_log.records;
      Alcotest.(check int) "no corruption" 0 rstats.Shard_log.corrupt_records;
      Alcotest.(check int) "nsites" ds.Dataset.nsites ds'.Dataset.nsites;
      Alcotest.(check int) "npreds" ds.Dataset.npreds ds'.Dataset.npreds;
      Alcotest.(check (array int)) "pred_site" ds.Dataset.pred_site ds'.Dataset.pred_site;
      Array.iteri
        (fun i r -> check_report "report round trip" r ds'.Dataset.runs.(i))
        ds.Dataset.runs)

let test_shard_log_empty_and_missing () =
  with_temp_dir (fun dir ->
      let ds = mk_dataset [] in
      ignore (Shard_log.write_dataset ~dir ~shards:2 ds);
      let ds', stats = Shard_log.read_all ~dir in
      Alcotest.(check int) "no records" 0 (Array.length ds'.Dataset.runs);
      Alcotest.(check int) "no corruption" 0 stats.Shard_log.corrupt_records;
      Alcotest.(check int) "meta preserved" 8 ds'.Dataset.npreds);
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      match Shard_log.read_meta ~dir with
      | exception Shard_log.Format_error _ -> ()
      | _ -> Alcotest.fail "missing meta must raise Format_error")

let test_shard_log_bad_header () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Shard_log.shard_path ~dir 0 in
      let oc = open_out_bin path in
      output_string oc "JUNKJUNK";
      close_out oc;
      match Shard_log.fold_shard path ~init:() ~f:(fun () _ -> ()) with
      | exception Shard_log.Format_error _ -> ()
      | _ -> Alcotest.fail "bad magic must raise Format_error")

let corrupt_one_byte path offset =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (flip s offset);
  close_out oc

let test_shard_log_corruption_recovery () =
  with_temp_dir (fun dir ->
      let ds = mk_dataset log_reports in
      ignore (Shard_log.write_dataset ~dir ~shards:1 ds);
      let path = Shard_log.shard_path ~dir 0 in
      (* flip a byte well inside some record's payload *)
      corrupt_one_byte path 40;
      let ds', stats = Shard_log.read_all ~dir in
      Alcotest.(check int) "one record skipped" 1 stats.Shard_log.corrupt_records;
      Alcotest.(check int) "rest recovered" 22 stats.Shard_log.records;
      Alcotest.(check int) "dataset holds intact records" 22 (Array.length ds'.Dataset.runs);
      Array.iter
        (fun (r : Report.t) ->
          check_report "intact record unchanged" (List.nth log_reports r.Report.run_id) r)
        ds'.Dataset.runs)

let test_shard_log_truncated_tail () =
  with_temp_dir (fun dir ->
      let ds = mk_dataset log_reports in
      ignore (Shard_log.write_dataset ~dir ~shards:1 ds);
      let path = Shard_log.shard_path ~dir 0 in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub s 0 (String.length s - 5));
      close_out oc;
      let ds', stats = Shard_log.read_all ~dir in
      Alcotest.(check int) "last record dropped" 22 stats.Shard_log.records;
      Alcotest.(check int) "no corrupt records" 0 stats.Shard_log.corrupt_records;
      Alcotest.(check bool) "truncated bytes counted" true (stats.Shard_log.truncated_bytes > 0);
      Alcotest.(check int) "dataset holds the prefix" 22 (Array.length ds'.Dataset.runs))

(* --- aggregator --- *)

let crashy_src =
  {|
  int main() {
    int x = arg_int(0);
    int s = 0;
    for (int i = 0; i < x; i = i + 1) { s = s + i; }
    if (x > 5) {
      __bug(1);
      int[] a = null;
      return a[0];
    }
    println("ok " + to_str(s));
    return 0;
  }
  |}

let crashy_spec ?(plan = Sampler.Uniform 0.4) () =
  let t = Transform.instrument (Check.check_string crashy_src) in
  Collect.make_spec ~transform:t ~plan
    ~gen_input:(fun run -> [| string_of_int (run mod 10) |])
    ()

let counts_equal (a : Sbi_core.Counts.t) (b : Sbi_core.Counts.t) =
  a.Sbi_core.Counts.npreds = b.Sbi_core.Counts.npreds
  && a.Sbi_core.Counts.f = b.Sbi_core.Counts.f
  && a.Sbi_core.Counts.s = b.Sbi_core.Counts.s
  && a.Sbi_core.Counts.f_obs = b.Sbi_core.Counts.f_obs
  && a.Sbi_core.Counts.s_obs = b.Sbi_core.Counts.s_obs
  && a.Sbi_core.Counts.num_f = b.Sbi_core.Counts.num_f
  && a.Sbi_core.Counts.num_s = b.Sbi_core.Counts.num_s

let test_aggregator_equals_counts () =
  let ds = Collect.collect ~seed:3 (crashy_spec ()) ~nruns:60 in
  let agg = Aggregator.of_meta ds in
  Array.iter (Aggregator.observe agg) ds.Dataset.runs;
  Alcotest.(check bool) "aggregator = Counts.compute" true
    (counts_equal (Aggregator.to_counts agg) (Sbi_core.Counts.compute ds))

let test_aggregator_merge_monoid () =
  let ds = Collect.collect ~seed:4 (crashy_spec ()) ~nruns:45 in
  let part lo hi =
    let a = Aggregator.of_meta ds in
    for i = lo to hi - 1 do
      Aggregator.observe a ds.Dataset.runs.(i)
    done;
    a
  in
  let merged = Aggregator.merge (Aggregator.merge (part 0 11) (part 11 29)) (part 29 45) in
  Alcotest.(check bool) "merge of partitions = whole" true
    (counts_equal (Aggregator.to_counts merged) (Sbi_core.Counts.compute ds));
  let with_empty = Aggregator.merge merged (Aggregator.of_meta ds) in
  Alcotest.(check bool) "empty is neutral" true
    (counts_equal (Aggregator.to_counts with_empty) (Aggregator.to_counts merged))

let test_aggregator_streams_log () =
  with_temp_dir (fun dir ->
      let ds = Collect.collect ~seed:5 (crashy_spec ()) ~nruns:50 in
      ignore (Shard_log.write_dataset ~dir ~shards:3 ds);
      let agg, meta, stats = Aggregator.of_log ~dir in
      Alcotest.(check int) "streamed every record" 50 stats.Shard_log.records;
      Alcotest.(check int) "meta tables" ds.Dataset.npreds meta.Dataset.npreds;
      Alcotest.(check bool) "streamed counts = in-memory counts" true
        (counts_equal (Aggregator.to_counts agg) (Sbi_core.Counts.compute ds)))

(* --- parallel collection --- *)

let datasets_equal (a : Dataset.t) (b : Dataset.t) =
  a.Dataset.nsites = b.Dataset.nsites
  && a.Dataset.npreds = b.Dataset.npreds
  && a.Dataset.pred_site = b.Dataset.pred_site
  && Array.length a.Dataset.runs = Array.length b.Dataset.runs
  && Array.for_all2 report_equal a.Dataset.runs b.Dataset.runs

let test_par_collect_equals_sequential () =
  let spec = crashy_spec () in
  let seq = Collect.collect ~seed:11 spec ~nruns:40 in
  List.iter
    (fun domains ->
      let par = Par_collect.collect ~seed:11 ~domains spec ~nruns:40 in
      Alcotest.(check bool)
        (Printf.sprintf "parallel (%d domains) = sequential" domains)
        true (datasets_equal seq par))
    [ 1; 2; 3; 64 ]

let test_par_collect_to_log_equals_sequential () =
  with_temp_dir (fun dir ->
      let spec = crashy_spec () in
      let seq = Collect.collect ~seed:12 spec ~nruns:35 in
      let stats = Par_collect.collect_to_log ~seed:12 ~domains:4 spec ~nruns:35 ~dir in
      Alcotest.(check int) "all reports logged" 35 stats.Shard_log.records;
      Alcotest.(check int) "one shard per domain" 4
        (List.length (Shard_log.shard_files ~dir));
      let merged, rstats = Shard_log.read_all ~dir in
      Alcotest.(check int) "all reports recovered" 35 rstats.Shard_log.records;
      Alcotest.(check bool) "merged log = sequential dataset" true
        (datasets_equal seq merged))

let test_par_collect_first_run () =
  let spec = crashy_spec () in
  let seq = Collect.collect ~seed:13 ~first_run:100 spec ~nruns:20 in
  let par = Par_collect.collect ~seed:13 ~first_run:100 ~domains:3 spec ~nruns:20 in
  Alcotest.(check bool) "offset runs identical" true (datasets_equal seq par);
  Alcotest.(check int) "run ids offset" 100 seq.Dataset.runs.(0).Report.run_id

(* A run that raises: the exception reaches the caller whether the run is
   in the caller's own block (block 0) or in a spawned domain's, the first
   block's failure wins when several raise, and the calling domain is
   left as it was — a following collect succeeds, and a run on it
   allocates what it did before the failure. *)
let test_par_collect_run_raises () =
  let spec = crashy_spec () in
  let failing_at bad =
    { spec with
      Collect.gen_input =
        (fun i -> if List.mem i bad then failwith (Printf.sprintf "input %d" i) else spec.Collect.gen_input i) }
  in
  let run_words () =
    let sampler = Sampler.create ~nsites:(Transform.num_sites spec.Collect.transform) spec.Collect.plan in
    let w0 = Gc.minor_words () in
    ignore (Collect.run_one spec ~sampler ~run_index:3);
    Gc.minor_words () -. w0
  in
  ignore (run_words ());
  let before = run_words () in
  (* 30 runs on 3 domains: blocks [0, 10), [10, 20) and [20, 30) *)
  List.iter
    (fun (bad, expect) ->
      match Par_collect.collect ~seed:14 ~domains:3 (failing_at bad) ~nruns:30 with
      | _ -> Alcotest.failf "input %d raised, yet collect returned" expect
      | exception Failure m ->
          Alcotest.(check string) "the run's exception reaches the caller" (Printf.sprintf "input %d" expect) m)
    [ ([ 2 ], 2); ([ 15 ], 15); ([ 29 ], 29); ([ 25; 4 ], 4); ([ 25; 12 ], 12) ];
  Alcotest.(check bool) "a following collect succeeds" true
    (datasets_equal (Collect.collect ~seed:14 spec ~nruns:30)
       (Par_collect.collect ~seed:14 ~domains:3 spec ~nruns:30));
  Alcotest.(check (float 0.)) "a run on the calling domain allocates as before" before (run_words ())

(* --- atomic dataset save --- *)

let test_atomic_save_no_droppings () =
  with_temp_dir (fun dir ->
      Sys.mkdir dir 0o755;
      let path = Filename.concat dir "ds.dataset" in
      let ds = mk_dataset log_reports in
      Dataset.save path ds;
      Dataset.save path ds;
      (* overwrite works *)
      Alcotest.(check (list string)) "only the dataset file remains" [ "ds.dataset" ]
        (Array.to_list (Sys.readdir dir));
      let ds' = Dataset.load path in
      Alcotest.(check int) "content intact" 23 (Array.length ds'.Dataset.runs))

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32;
    Alcotest.test_case "varint round trip" `Quick test_varint;
    Alcotest.test_case "codec round trip" `Quick test_codec_round_trip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    QCheck_alcotest.to_alcotest qcheck_codec_round_trip;
    Alcotest.test_case "framed round trip" `Quick test_framed_round_trip;
    Alcotest.test_case "framed corruption isolation" `Quick test_framed_corruption;
    Alcotest.test_case "shard log round trip" `Quick test_shard_log_round_trip;
    Alcotest.test_case "shard log empty / missing meta" `Quick test_shard_log_empty_and_missing;
    Alcotest.test_case "shard log bad header" `Quick test_shard_log_bad_header;
    Alcotest.test_case "corruption recovery" `Quick test_shard_log_corruption_recovery;
    Alcotest.test_case "truncated tail recovery" `Quick test_shard_log_truncated_tail;
    Alcotest.test_case "aggregator equals Counts.compute" `Quick test_aggregator_equals_counts;
    Alcotest.test_case "aggregator merge monoid" `Quick test_aggregator_merge_monoid;
    Alcotest.test_case "aggregator streams a log" `Quick test_aggregator_streams_log;
    Alcotest.test_case "parallel = sequential collection" `Quick test_par_collect_equals_sequential;
    Alcotest.test_case "parallel log = sequential dataset" `Quick test_par_collect_to_log_equals_sequential;
    Alcotest.test_case "parallel collection with first_run" `Quick test_par_collect_first_run;
    Alcotest.test_case "atomic dataset save" `Quick test_atomic_save_no_droppings;
    Alcotest.test_case "codec rejects varints past max_int" `Quick
      test_codec_rejects_wide_varints;
    Alcotest.test_case "codec rejects repeated ids" `Quick test_codec_rejects_duplicate_ids;
    QCheck_alcotest.to_alcotest qcheck_codec_hostile_bytes;
    Alcotest.test_case "parallel collection: a raising run reaches the caller" `Quick
      test_par_collect_run_raises;
  ]
