(* Tests for the tiered-store primitives beneath the index: the dense
   Bitset kernels against bit-at-a-time references, compressed run
   bitmaps (Rbitmap) against the dense Bitset reference across every
   counting kernel, the cost-budgeted LRU posting cache, the size-tiered
   compaction planner, and the segment footer's lazy-read path through
   one mapping per file. *)
open Sbi_store

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_store" "" in
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

(* --- random bitsets (shared by the kernel properties) --- *)

(* A bitset whose density changes in stretches, so one value exercises
   every container shape: empty chunks, sparse position arrays, dense
   word blocks, and long homogeneous runs (including all-set chunks). *)
let random_bitset st n =
  let b = Bitset.create n in
  let densities = [| 0.0; 0.001; 0.05; 0.5; 0.95; 1.0 |] in
  let pos = ref 0 in
  while !pos < n do
    let d = densities.(Random.State.int st (Array.length densities)) in
    let len = 1 + Random.State.int st (1 + (n / 3)) in
    let stop = min n (!pos + len) in
    while !pos < stop do
      if d >= 1.0 || (d > 0.0 && Random.State.float st 1.0 < d) then Bitset.set b !pos;
      incr pos
    done
  done;
  b

let positions_of_bitset b =
  let out = ref [] in
  for i = Bitset.length b - 1 downto 0 do
    if Bitset.get b i then out := i :: !out
  done;
  Array.of_list !out

(* --- dense bitset kernels vs bit-at-a-time references --- *)

let naive_inter_count a b len =
  let n = ref 0 in
  for i = 0 to len - 1 do
    if Bitset.get a i && Bitset.get b i then incr n
  done;
  !n

let naive_inter_count3 a b c len =
  let n = ref 0 in
  for i = 0 to len - 1 do
    if Bitset.get a i && Bitset.get b i && Bitset.get c i then incr n
  done;
  !n

let qcheck_kernels =
  QCheck2.Test.make ~name:"bitset kernels = bit-at-a-time reference" ~count:100
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 300))
    (fun (seed, len) ->
      let st = Random.State.make [| seed; 0xb17 |] in
      let a = random_bitset st len
      and b = random_bitset st len
      and c = random_bitset st len in
      let ok_counts =
        Bitset.count a = naive_inter_count a a len
        && Bitset.inter_count a b = naive_inter_count a b len
        && Bitset.inter_count3 a b c = naive_inter_count3 a b c len
      in
      (* diff_inplace: a := a \ b *)
      let d = Bitset.copy a in
      Bitset.diff_inplace d b;
      let ok_diff =
        Array.init len (fun i -> Bitset.get d i)
        = Array.init len (fun i -> Bitset.get a i && not (Bitset.get b i))
      in
      (* diff_inter_inplace: a := a \ (b ∧ c) *)
      let e = Bitset.copy a in
      Bitset.diff_inter_inplace e b c;
      let ok_diff3 =
        Array.init len (fun i -> Bitset.get e i)
        = Array.init len (fun i -> Bitset.get a i && not (Bitset.get b i && Bitset.get c i))
      in
      (* full: every bit below len set, none above (popcount proves the tail) *)
      let f = Bitset.full len in
      let ok_full = Bitset.count f = len && Bitset.inter_count f a = Bitset.count a in
      ok_counts && ok_diff && ok_diff3 && ok_full)

let qcheck_of_positions =
  QCheck2.Test.make ~name:"of_positions = set loop" ~count:100
    QCheck2.Gen.(pair (int_range 1 500) (list_size (int_range 0 50) (int_range 0 499)))
    (fun (len, positions) ->
      let positions = List.filter (fun p -> p < len) positions in
      let a = Bitset.of_positions len (Array.of_list positions) in
      let b = Bitset.create len in
      List.iter (Bitset.set b) positions;
      Array.init len (fun i -> Bitset.get a i) = Array.init len (fun i -> Bitset.get b i)
      && Bitset.count a = List.length (List.sort_uniq Int.compare positions))

(* --- compressed bitmaps vs the dense reference --- *)

(* lengths around the chunk boundary plus a ~2.2-chunk multi-chunk case *)
let interesting_lengths =
  let c = Rbitmap.chunk_bits in
  [| 1; 63; 64; 65; c - 1; c; c + 1; (2 * c) + (c / 5) |]

let qcheck_rbitmap_kernels =
  QCheck2.Test.make ~name:"rbitmap kernels = dense bitset kernels" ~count:60
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 (Array.length interesting_lengths - 1)))
    (fun (seed, li) ->
      let n = interesting_lengths.(li) in
      let st = Random.State.make [| seed; n; 0x5b1 |] in
      let dense = random_bitset st n in
      let r = Rbitmap.of_bitset dense in
      if Rbitmap.length r <> n then Alcotest.failf "length %d <> %d" (Rbitmap.length r) n;
      if Rbitmap.count r <> Bitset.count dense then Alcotest.fail "count mismatch";
      for i = 0 to n - 1 do
        if Rbitmap.get r i <> Bitset.get dense i then Alcotest.failf "get %d mismatch" i
      done;
      let expected_pos = positions_of_bitset dense in
      if Rbitmap.to_positions r <> expected_pos then Alcotest.fail "to_positions mismatch";
      let iterated = ref [] in
      Rbitmap.iter (fun i -> iterated := i :: !iterated) r;
      if Array.of_list (List.rev !iterated) <> expected_pos then
        Alcotest.fail "iter order/content mismatch";
      if Rbitmap.to_positions (Rbitmap.of_positions n expected_pos) <> expected_pos then
        Alcotest.fail "of_positions round trip";
      let back = Rbitmap.to_bitset r in
      if positions_of_bitset back <> expected_pos then Alcotest.fail "to_bitset mismatch";
      (* binary/ternary kernels against independent dense operands *)
      let b = random_bitset st n and c = random_bitset st n in
      if Rbitmap.inter_count r b <> Bitset.inter_count dense b then
        Alcotest.fail "inter_count mismatch";
      if Rbitmap.inter_count3 r b c <> Bitset.inter_count3 dense b c then
        Alcotest.fail "inter_count3 mismatch";
      let a1 = random_bitset st n in
      let a2 = Bitset.copy a1 in
      Rbitmap.diff_inplace a1 r;
      Bitset.diff_inplace a2 dense;
      if positions_of_bitset a1 <> positions_of_bitset a2 then
        Alcotest.fail "diff_inplace mismatch";
      let a1 = random_bitset st n in
      let a2 = Bitset.copy a1 in
      Rbitmap.diff_inter_inplace a1 r c;
      Bitset.diff_inter_inplace a2 dense c;
      if positions_of_bitset a1 <> positions_of_bitset a2 then
        Alcotest.fail "diff_inter_inplace mismatch";
      true)

let test_rbitmap_shapes () =
  let c = Rbitmap.chunk_bits in
  let n = 3 * c in
  (* chunk 0 empty, chunk 1 sparse, chunk 2 all-set *)
  let b = Bitset.create n in
  List.iter (fun i -> Bitset.set b (c + i)) [ 1; 77; 300 ];
  for i = 2 * c to n - 1 do
    Bitset.set b i
  done;
  let r = Rbitmap.of_bitset b in
  let empty, pos, words, runs = Rbitmap.shape r in
  Alcotest.(check int) "one empty chunk" 1 empty;
  Alcotest.(check int) "one sparse chunk" 1 pos;
  Alcotest.(check int) "no dense chunk" 0 words;
  Alcotest.(check int) "one run chunk" 1 runs;
  Alcotest.(check int) "count" (3 + c) (Rbitmap.count r);
  (* the all-set run chunk must be far cheaper than its dense form *)
  Alcotest.(check bool) "compression beats dense" true (Rbitmap.memory_words r < n / 32);
  (* unsorted duplicated input is normalized *)
  let r2 = Rbitmap.of_positions 10 [| 7; 2; 7; 0 |] in
  Alcotest.(check bool) "dedup + sort" true (Rbitmap.to_positions r2 = [| 0; 2; 7 |]);
  match Rbitmap.of_positions 10 [| 10 |] with
  | _ -> Alcotest.fail "out-of-range position must be rejected"
  | exception Invalid_argument _ -> ()

(* --- LRU posting cache --- *)

let test_lru () =
  let loads = ref 0 in
  let load k () =
    incr loads;
    k
  in
  (* cost of an int value is the int itself: budget 100 *)
  let cache = Lru.create ~budget:100 ~cost:(fun v -> v) () in
  Alcotest.(check int) "first load" 40 (Lru.find_or_add cache "a" (load 40));
  Alcotest.(check int) "cached" 40 (Lru.find_or_add cache "a" (load 40));
  Alcotest.(check int) "loads once" 1 !loads;
  ignore (Lru.find_or_add cache "b" (load 30));
  let s = Lru.stats cache in
  Alcotest.(check int) "hits" 1 s.Lru.hits;
  Alcotest.(check int) "misses" 2 s.Lru.misses;
  Alcotest.(check int) "used" 70 s.Lru.used;
  Alcotest.(check int) "entries" 2 s.Lru.entries;
  (* touch "a" so "b" is the LRU victim, then overflow the budget *)
  ignore (Lru.find_or_add cache "a" (load 40));
  ignore (Lru.find_or_add cache "c" (load 50));
  ignore (Lru.find_or_add cache "a" (load 40));
  Alcotest.(check int) "a survived eviction" 3 !loads;
  ignore (Lru.find_or_add cache "b" (load 30));
  Alcotest.(check int) "b was evicted" 4 !loads;
  let s = Lru.stats cache in
  Alcotest.(check bool) "evictions counted" true (s.Lru.evictions >= 1);
  Alcotest.(check bool) "budget respected" true (s.Lru.used <= 100);
  Lru.clear cache;
  Alcotest.(check int) "clear empties" 0 (Lru.stats cache).Lru.entries;
  match Lru.create ~budget:0 ~cost:(fun _ -> 1) () with
  | _ -> Alcotest.fail "zero budget must be rejected"
  | exception Invalid_argument _ -> ()

(* --- size-tiered planner --- *)

let test_tier_policy () =
  let base = Tier.default_base and fanout = Tier.default_fanout in
  Alcotest.(check int) "below base" 0 (Tier.tier_of (base - 1));
  Alcotest.(check int) "at base" 1 (Tier.tier_of base);
  Alcotest.(check int) "below base*fanout" 1 (Tier.tier_of ((base * fanout) - 1));
  Alcotest.(check int) "at base*fanout" 2 (Tier.tier_of (base * fanout));
  Alcotest.(check int) "custom base" 1 (Tier.tier_of ~base:10 ~fanout:2 10);
  let seg i runs = { Tier.ts_index = i; ts_runs = runs; ts_bytes = runs * 3 } in
  (* three tier-0 segments under the default tier_max of 4: nothing to do *)
  let small = [ seg 0 10; seg 1 20; seg 2 30 ] in
  Alcotest.(check bool) "underfull tier: no plan" true (Tier.plan small = []);
  (* a fourth makes tier 0 overfull; every member merges, in input order *)
  let plan = Tier.plan (small @ [ seg 3 5 ]) in
  Alcotest.(check bool) "overfull tier merges all members" true
    (plan = [ (0, [ 0; 1; 2; 3 ]) ]);
  (* members of other tiers are untouched *)
  let mixed = [ seg 0 10; seg 1 (base * 2); seg 2 20; seg 3 30; seg 4 40 ] in
  Alcotest.(check bool) "only the overfull tier is planned" true
    (Tier.plan mixed = [ (0, [ 0; 2; 3; 4 ]) ]);
  let tiers = Tier.tiers mixed in
  Alcotest.(check bool) "bucketing keeps input order" true
    (List.assoc 0 tiers = [ seg 0 10; seg 2 20; seg 3 30; seg 4 40 ]
    && List.assoc 1 tiers = [ seg 1 (base * 2) ]);
  Alcotest.(check bool) "describe sums runs and bytes" true
    (Tier.describe mixed
    = [ (0, 4, 100, 300); (1, 1, base * 2, base * 2 * 3) ]);
  match Tier.plan ~tier_max:1 small with
  | _ -> Alcotest.fail "tier_max < 2 must be rejected"
  | exception Invalid_argument _ -> ()

(* --- segment v2 footer: lazy reads --- *)

let nsites = 3
let npreds = 6
let pred_site = [| 0; 0; 1; 1; 2; 2 |]

let mk_report ?(outcome = Sbi_runtime.Report.Success) ?(sites = [||]) ?(preds = [||]) id =
  {
    Sbi_runtime.Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = Array.map (fun _ -> 1) preds;
    bugs = [||];
    crash_sig = None;
  }

let sample_segment () =
  Segment.of_reports ~nsites ~npreds ~source_shard:1 ~start_off:12 ~end_off:480
    [|
      mk_report ~outcome:Sbi_runtime.Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0; 4 |] 3;
      mk_report ~sites:[| 1 |] ~preds:[| 2; 3 |] 4;
      mk_report ~sites:[| 0; 1; 2 |] ~preds:[| 1 |] 7;
      mk_report ~outcome:Sbi_runtime.Report.Failure ~sites:[| 1; 2 |] ~preds:[| 2; 5 |] 9;
    |]

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_footer_lazy_reads () =
  with_temp_dir (fun tmp ->
      let seg = sample_segment () in
      let path = Filename.concat tmp "seg.sbix" in
      write_file path (Segment.encode seg);
      let m = Segment.map path in
      let ft = Segment.read_footer m in
      Alcotest.(check int) "version" Segment.format_version ft.Segment.ft_version;
      Alcotest.(check int) "nruns" seg.Segment.nruns ft.Segment.ft_nruns;
      Alcotest.(check int) "nsites" nsites ft.Segment.ft_nsites;
      Alcotest.(check int) "npreds" npreds ft.Segment.ft_npreds;
      Alcotest.(check int) "num_f" (Bitset.count seg.Segment.failing) ft.Segment.ft_num_f;
      Alcotest.(check int) "provenance shard" 1 ft.Segment.ft_source_shard;
      (* every posting is fetchable alone and equals the decoded array *)
      for s = 0 to nsites - 1 do
        Alcotest.(check bool) (Printf.sprintf "site posting %d" s) true
          (Segment.read_posting m ft `Site s = seg.Segment.site_obs.(s))
      done;
      for p = 0 to npreds - 1 do
        Alcotest.(check bool) (Printf.sprintf "pred posting %d" p) true
          (Segment.read_posting m ft `Pred p = seg.Segment.pred_true.(p))
      done;
      let failing = Segment.read_failing m ft in
      Alcotest.(check bool) "failing bitmap" true
        (Array.init seg.Segment.nruns (Bitset.get failing)
        = Array.init seg.Segment.nruns (Bitset.get seg.Segment.failing));
      (* footer statistics reconstruct the §3.1 aggregate exactly *)
      let of_footer = Segment.footer_aggregator ~pred_site ft in
      let of_body = Segment.aggregator ~pred_site seg in
      Alcotest.(check bool) "footer aggregate = body aggregate" true
        (compare
           (Sbi_ingest.Aggregator.to_counts of_footer)
           (Sbi_ingest.Aggregator.to_counts of_body)
        = 0))

(* A segment file read through its mapping keeps answering after it is
   unlinked: every posting and the outcome bitmap still read back.  An
   empty posting comes from the footer directory alone, and a count-0
   entry that claims bytes is rejected. *)
let test_unlinked_segment_reads () =
  with_temp_dir (fun tmp ->
      (* site 2 and predicates 3..5 are never observed *)
      let seg =
        Segment.of_reports ~nsites ~npreds ~source_shard:0 ~start_off:0 ~end_off:0
          [|
            mk_report ~outcome:Sbi_runtime.Report.Failure ~sites:[| 0 |] ~preds:[| 0 |] 1;
            mk_report ~sites:[| 0; 1 |] ~preds:[| 1; 2 |] 2;
          |]
      in
      let path = Filename.concat tmp "seg.sbix" in
      write_file path (Segment.encode seg);
      let m = Segment.map path in
      let ft = Segment.read_footer m in
      Sys.remove path;
      Gc.full_major ();
      for p = 0 to npreds - 1 do
        Alcotest.(check bool) (Printf.sprintf "pred posting %d after unlink" p) true
          (Segment.read_posting m ft `Pred p = seg.Segment.pred_true.(p))
      done;
      for s = 0 to nsites - 1 do
        Alcotest.(check bool) (Printf.sprintf "site posting %d after unlink" s) true
          (Segment.read_posting m ft `Site s = seg.Segment.site_obs.(s))
      done;
      Alcotest.(check bool) "failing bitmap after unlink" true
        (Array.init seg.Segment.nruns (Bitset.get (Segment.read_failing m ft))
        = Array.init seg.Segment.nruns (Bitset.get seg.Segment.failing));
      (match Segment.map path with
      | _ -> Alcotest.fail "mapping a missing file must fail"
      | exception Segment.Corrupt _ -> ());
      let claims_bytes =
        {
          ft with
          Segment.ft_pred_dir =
            Array.mapi
              (fun p (off, blen, count) -> if p = 4 then (off, 3, 0) else (off, blen, count))
              ft.Segment.ft_pred_dir;
        }
      in
      match Segment.read_posting m claims_bytes `Pred 4 with
      | _ -> Alcotest.fail "a count-0 posting with a byte length must be corrupt"
      | exception Segment.Corrupt _ -> ())

(* [encoded] with its version varint set to [v] and the whole-file CRC
   recomputed, so only the version is wrong. *)
let with_version encoded v =
  let b = Bytes.of_string encoded in
  Bytes.set b (String.length Segment.magic) (Char.chr v);
  let n = Bytes.length b in
  let crc =
    Sbi_util.Crc32.sub (Bytes.unsafe_to_string b) ~pos:(String.length Segment.magic)
      ~len:(n - 4 - String.length Segment.magic)
  in
  for i = 0 to 3 do
    Bytes.set b (n - 4 + i) (Char.chr ((crc lsr (8 * i)) land 0xFF))
  done;
  Bytes.to_string b

let test_version_1_and_corruption () =
  with_temp_dir (fun tmp ->
      let seg = sample_segment () in
      let encoded = Segment.encode seg in
      let bad = Filename.concat tmp "bad.sbix" in
      let read_footer_of bytes =
        write_file bad bytes;
        Segment.read_footer (Segment.map bad)
      in
      (* one format: a version-1 file is corrupt on both read paths *)
      let v1 = with_version encoded 1 in
      (match read_footer_of v1 with
      | _ -> Alcotest.fail "a version-1 segment must not expose a footer"
      | exception Segment.Corrupt m ->
          Alcotest.(check string) "lazy open names the version" "unsupported segment version 1" m);
      (match Segment.decode v1 with
      | _ -> Alcotest.fail "a version-1 segment must not decode"
      | exception Segment.Corrupt m ->
          Alcotest.(check string) "decode names the version" "unsupported segment version 1" m);
      let sz = String.length encoded in
      let flip s i =
        let b = Bytes.of_string s in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x08));
        Bytes.to_string b
      in
      let detected = ref 0 in
      (* last 4 footer bytes + footer offset + footer CRC; the final
         4 bytes (the whole-file CRC) are deliberately excluded — the
         lazy open leaves file-level integrity to decode/fsck *)
      for off = sz - Segment.trailer_len - 4 to sz - 5 do
        match read_footer_of (flip encoded off) with
        | exception Segment.Corrupt _ -> incr detected
        | _ -> ()
      done;
      Alcotest.(check int) "every damaged footer/trailer byte detected"
        (Segment.trailer_len + 4 - 4) !detected;
      (* a flipped file CRC is fsck's to find, via the full decode *)
      (match Segment.decode (flip encoded (sz - 1)) with
      | _ -> Alcotest.fail "full decode must verify the file CRC"
      | exception Segment.Corrupt _ -> ());
      (* truncation is damage, not a short read; so is a file too small
         to hold a trailer, down to an empty one *)
      List.iter
        (fun len ->
          match read_footer_of (String.sub encoded 0 len) with
          | _ -> Alcotest.failf "a %d-byte prefix must not expose a footer" len
          | exception Segment.Corrupt _ -> ())
        [ sz - 3; Segment.trailer_len; 4; 0 ])

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_rbitmap_kernels;
    Alcotest.test_case "rbitmap container shapes" `Quick test_rbitmap_shapes;
    Alcotest.test_case "lru cache" `Quick test_lru;
    Alcotest.test_case "tier policy" `Quick test_tier_policy;
    Alcotest.test_case "segment v2 footer lazy reads" `Quick test_footer_lazy_reads;
    Alcotest.test_case "unlinked segment reads through its mapping" `Quick
      test_unlinked_segment_reads;
    Alcotest.test_case "segment v1 is Corrupt + footer damage detected" `Quick
      test_version_1_and_corruption;
    QCheck_alcotest.to_alcotest qcheck_kernels;
    QCheck_alcotest.to_alcotest qcheck_of_positions;
  ]
