(* Tests for the SBFL formula zoo: hand-computed formula values on a
   canonical counter cell, division-by-zero conventions, the registry,
   deterministic tie-breaking, bit-identity of sbfl:importance /
   sbfl:increase with the legacy Scores/Rank path (random datasets,
   through Triage.Snap, and after incremental ingest), the ground-truth
   evaluation harness, and the per-study bug-label pins backing it. *)
open Sbi_runtime
open Sbi_core
open Sbi_sbfl

let feq = Alcotest.float 1e-12

(* --- canonical counter table: hand-computed formula values ---

   ef = 8 failing and ep = 2 successful runs with P true, out of F = 10
   failing and S = 30 successful runs; P's site sampled in 10 failing
   and 20 successful runs. *)

let canon =
  { Formula.f = 8; s = 2; f_obs = 10; s_obs = 20; num_f = 10; num_s = 30 }

let test_formula_values () =
  let score (fm : Formula.t) = fm.Formula.score canon in
  Alcotest.check feq "tarantula" (0.8 /. (0.8 +. (2. /. 30.))) (score Formula.tarantula);
  Alcotest.check feq "ochiai" (8. /. sqrt (10. *. 10.)) (score Formula.ochiai);
  Alcotest.check feq "dstar2" (64. /. 4.) (score Formula.dstar2);
  Alcotest.check feq "dstar3" (512. /. 4.) (score Formula.dstar3);
  Alcotest.check feq "jaccard" (8. /. 12.) (score Formula.jaccard);
  Alcotest.check feq "op2" (8. -. (2. /. 31.)) (score Formula.op2);
  (* increase = Failure - Context = 8/10 - 10/30 *)
  let increase = (8. /. 10.) -. (10. /. 30.) in
  Alcotest.check feq "increase" increase (score Formula.increase);
  (* importance = harmonic mean of increase and log 8 / log 10 *)
  let sens = log 8. /. log 10. in
  Alcotest.check feq "importance" (2. /. ((1. /. increase) +. (1. /. sens)))
    (score Formula.importance)

let test_formula_conventions () =
  let zero = { Formula.f = 0; s = 0; f_obs = 0; s_obs = 0; num_f = 10; num_s = 30 } in
  List.iter
    (fun (fm : Formula.t) ->
      Alcotest.check feq ("zero cell: " ^ fm.Formula.name) 0. (fm.Formula.score zero))
    Formula.builtins;
  (* perfect predictor: true in every failing run, never in a success *)
  let perfect = { Formula.f = 5; s = 0; f_obs = 5; s_obs = 10; num_f = 5; num_s = 10 } in
  Alcotest.(check bool) "dstar2 perfect = inf" true
    (Formula.dstar2.Formula.score perfect = infinity);
  Alcotest.(check bool) "dstar3 perfect = inf" true
    (Formula.dstar3.Formula.score perfect = infinity);
  Alcotest.check feq "tarantula perfect" 1. (Formula.tarantula.Formula.score perfect);
  (* every built-in is NaN-free on adversarial cells *)
  let cells =
    [
      zero; perfect; canon;
      { Formula.f = 0; s = 7; f_obs = 0; s_obs = 7; num_f = 0; num_s = 7 };
      { Formula.f = 3; s = 0; f_obs = 3; s_obs = 0; num_f = 3; num_s = 0 };
      { Formula.f = 1; s = 1; f_obs = 1; s_obs = 1; num_f = 1; num_s = 1 };
    ]
  in
  List.iter
    (fun (fm : Formula.t) ->
      List.iter
        (fun c ->
          Alcotest.(check bool)
            (fm.Formula.name ^ " never NaN")
            false
            (Float.is_nan (fm.Formula.score c)))
        cells)
    Formula.builtins;
  (* non-finite scores must serialize as JSON null, not break the emitter *)
  Alcotest.(check string) "inf -> json null" "null"
    (Sbi_util.Json.to_string (Sbi_util.Json.Num infinity))

let test_registry () =
  Alcotest.(check string) "default is importance" "importance"
    Registry.default.Formula.name;
  (match Registry.find "OCHIAI" with
  | Some f -> Alcotest.(check string) "case-insensitive find" "ochiai" f.Formula.name
  | None -> Alcotest.fail "find OCHIAI");
  Alcotest.(check bool) "unknown find" true (Registry.find "nope" = None);
  (match Registry.find_exn "zzz-custom" with
  | exception Invalid_argument m ->
      Alcotest.(check bool) "error names the known formulas" true
        (String.length m > 0
        && List.for_all
             (fun n ->
               let rec contains i =
                 i + String.length n <= String.length m
                 && (String.sub m i (String.length n) = n || contains (i + 1))
               in
               contains 0)
             (Registry.names ()))
  | _ -> Alcotest.fail "find_exn should raise on unknown");
  (match Registry.register Formula.ochiai with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "duplicate register should raise");
  let custom =
    { Formula.name = "zzz-custom"; descr = "test formula"; score = (fun c -> float_of_int c.Formula.f) }
  in
  Registry.register custom;
  (match Registry.find "zzz-custom" with
  | Some f -> Alcotest.check feq "custom scores" 8. (f.Formula.score canon)
  | None -> Alcotest.fail "custom formula not found");
  Alcotest.(check bool) "custom listed" true (List.mem "zzz-custom" (Registry.names ()))

(* --- deterministic tie-breaking --- *)

let mk_counts ~num_f ~num_s rows =
  let npreds = Array.length rows in
  {
    Counts.npreds;
    f = Array.map (fun (f, _, _, _) -> f) rows;
    s = Array.map (fun (_, s, _, _) -> s) rows;
    f_obs = Array.map (fun (_, _, fo, _) -> fo) rows;
    s_obs = Array.map (fun (_, _, _, so) -> so) rows;
    num_f;
    num_s;
  }

let test_tie_breaking () =
  (* preds 0/2/4 share identical counters (exact score ties under every
     formula); 1/3 share a tarantula score with them but different F *)
  let c =
    mk_counts ~num_f:10 ~num_s:10
      [|
        (6, 0, 10, 10);
        (4, 0, 10, 10);
        (6, 0, 10, 10);
        (4, 0, 10, 10);
        (6, 0, 10, 10);
      |]
  in
  List.iter
    (fun (fm : Formula.t) ->
      let order =
        Array.to_list (Array.map (fun (e : Ranking.entry) -> e.Ranking.pred) (Ranking.rank fm c))
      in
      (* score desc, then F desc, then id asc.  Tarantula scores all five
         rows 1.0 (an exact five-way tie, resolved purely by F then id);
         the other formulas separate F=6 from F=4 but still tie within
         each group.  Every formula must produce the same order. *)
      Alcotest.(check (list int)) ("tie order: " ^ fm.Formula.name) [ 0; 2; 4; 1; 3 ] order)
    [ Formula.tarantula; Formula.ochiai; Formula.dstar2; Formula.jaccard; Formula.op2 ];
  (* reproducible: the same ranking from repeated calls and from topk *)
  let r1 = Ranking.rank Formula.tarantula c in
  let r2 = Ranking.rank Formula.tarantula c in
  Alcotest.(check bool) "rank deterministic" true (r1 = r2);
  let t3 = Ranking.topk ~k:3 Formula.tarantula c in
  Alcotest.(check (list int)) "topk = rank prefix"
    (Array.to_list (Array.map (fun (e : Ranking.entry) -> e.Ranking.pred) (Array.sub r1 0 3)))
    (List.map (fun (e : Ranking.entry) -> e.Ranking.pred) t3);
  (* the generic comparator agrees with the legacy importance ordering *)
  let scores = Scores.score_all c in
  let legacy = Rank.sort Rank.By_importance scores in
  let sbfl = Ranking.rank Formula.importance c in
  Array.iteri
    (fun i (sc : Scores.t) ->
      Alcotest.(check int) "same order as compare_importance_desc" sc.Scores.pred
        sbfl.(i).Ranking.pred)
    legacy

(* --- bit-identity with the legacy Scores/Rank path --- *)

let bits = Int64.bits_of_float

let mk_report ?(outcome = Report.Success) ?(sites = [||]) ?(preds = [||]) ?(bugs = [||]) id =
  {
    Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = Array.map (fun _ -> 1) preds;
    bugs;
    crash_sig = None;
  }

let nsites = 5
let npreds = 10
let pred_site = [| 0; 0; 1; 1; 2; 2; 3; 3; 4; 4 |]

let random_report st id =
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
  let buggy = Array.exists (fun p -> p = 3) preds in
  let failing = Random.State.float st 1.0 < if buggy then 0.85 else 0.08 in
  mk_report
    ~outcome:(if failing then Report.Failure else Report.Success)
    ~sites:(Array.of_list !obs) ~preds id

let random_reports st ~start_id n = Array.init n (fun i -> random_report st (start_id + i))
let dataset_of reports = Dataset.of_tables ~nsites ~npreds ~pred_site reports

let qcheck_importance_bit_identical =
  QCheck2.Test.make ~name:"sbfl:importance = Scores/Rank By_importance, bit-identical"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x5bf1 |] in
      let counts = Counts.compute (dataset_of (random_reports st ~start_id:0 80)) in
      let legacy = Rank.sort Rank.By_importance (Scores.score_all counts) in
      let sbfl = Ranking.rank Formula.importance counts in
      Array.length legacy = Array.length sbfl
      && Array.for_all2
           (fun (sc : Scores.t) (e : Ranking.entry) ->
             sc.Scores.pred = e.Ranking.pred
             && bits sc.Scores.importance = bits e.Ranking.score)
           legacy sbfl)

let qcheck_increase_bit_identical =
  QCheck2.Test.make ~name:"sbfl:increase = Scores/Rank By_increase, bit-identical"
    ~count:40
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x17c |] in
      let counts = Counts.compute (dataset_of (random_reports st ~start_id:0 80)) in
      let legacy = Rank.sort Rank.By_increase (Scores.score_all counts) in
      let sbfl = Ranking.rank Formula.increase counts in
      Array.length legacy = Array.length sbfl
      && Array.for_all2
           (fun (sc : Scores.t) (e : Ranking.entry) ->
             sc.Scores.pred = e.Ranking.pred && bits sc.Scores.increase = bits e.Ranking.score)
           legacy sbfl)

let with_temp_dir f =
  let dir = Filename.temp_file "sbi_sbfl" "" in
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

let write_log ~dir ?(shard = 0) reports =
  let open Sbi_ingest in
  if not (Sys.file_exists (Filename.concat dir "meta")) then
    Shard_log.write_meta ~dir (dataset_of [||]);
  let w = Shard_log.create_writer ~dir ~shard () in
  Array.iter (Shard_log.append w) reports;
  ignore (Shard_log.close_writer w)

(* topk through Triage.Snap must match topk_f importance pred-for-pred and
   bit-for-bit — including after incremental ingest bumps the epoch. *)
let qcheck_snapshot_path_bit_identical =
  QCheck2.Test.make ~name:"Triage topk_f importance = topk (snapshot path, incl. ingest)"
    ~count:12
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let open Sbi_index in
      let st = Random.State.make [| seed; 0x70c |] in
      with_temp_dir (fun root ->
          let log = Filename.concat root "log" in
          let dir = Filename.concat root "idx" in
          Sys.mkdir log 0o700;
          Sys.mkdir dir 0o700;
          write_log ~dir:log (random_reports st ~start_id:0 60);
          ignore (Index.build ~log ~dir ());
          let idx = Index.open_ ~dir in
          let same snap =
            let hard = Triage.Snap.topk ~k:8 snap in
            let plug = Triage.Snap.topk_f ~k:8 ~formula:Formula.importance snap in
            List.length hard = List.length plug
            && List.for_all2
                 (fun (sc : Scores.t) (e : Ranking.entry) ->
                   sc.Scores.pred = e.Ranking.pred
                   && bits sc.Scores.importance = bits e.Ranking.score
                   && sc.Scores.f = e.Ranking.f && sc.Scores.s = e.Ranking.s)
                 hard plug
          in
          let ok0 = same (Index.snapshot idx) in
          (* incremental ingest: live-tail appends bump the epoch *)
          Array.iter (Index.append idx) (random_reports st ~start_id:60 15);
          let ok1 = same (Index.snapshot idx) in
          ok0 && ok1))

(* --- evaluation harness on a synthetic ground truth --- *)

(* 8 failing runs: five exhibit bug 1 (marker pred 0), four bug 2 (marker
   pred 2), one both; pred 1 co-occurs once with each bug (tie -> bug 1).
   Bug 3 occurs only in a successful run, so it has no marker.  Pred 4 is
   true only in successes (never a marker). *)
let eval_ds =
  let all_sites = [| 0; 1; 2 |] in
  let r ?(outcome = Report.Failure) ~preds ~bugs id =
    mk_report ~outcome ~sites:all_sites ~preds ~bugs id
  in
  Dataset.of_tables ~nsites:3 ~npreds:6 ~pred_site:[| 0; 0; 1; 1; 2; 2 |]
    [|
      r ~preds:[| 0 |] ~bugs:[| 1 |] 0;
      r ~preds:[| 0 |] ~bugs:[| 1 |] 1;
      r ~preds:[| 0 |] ~bugs:[| 1 |] 2;
      r ~preds:[| 0; 1 |] ~bugs:[| 1 |] 3;
      r ~preds:[| 2 |] ~bugs:[| 2 |] 4;
      r ~preds:[| 2 |] ~bugs:[| 2 |] 5;
      r ~preds:[| 1; 2 |] ~bugs:[| 2 |] 6;
      r ~preds:[| 0; 2 |] ~bugs:[| 1; 2 |] 7;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[| 3 |] 8;
      r ~outcome:Report.Success ~preds:[| 4 |] ~bugs:[||] 9;
      r ~outcome:Report.Success ~preds:[| 4 |] ~bugs:[||] 10;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 11;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 12;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 13;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 14;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 15;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 16;
      r ~outcome:Report.Success ~preds:[||] ~bugs:[||] 17;
    |]

let test_eval_truth () =
  let truth = Eval.truth eval_ds in
  Alcotest.(check int) "three bugs occur" 3 (List.length truth);
  let find b = List.find (fun (t : Eval.bug) -> t.Eval.bug = b) truth in
  Alcotest.(check (list int)) "bug 1 markers (tie pred 1 -> smaller id)" [ 0; 1 ]
    (find 1).Eval.markers;
  Alcotest.(check (list int)) "bug 2 markers" [ 2 ] (find 2).Eval.markers;
  Alcotest.(check (list int)) "bug 3 has no marker" [] (find 3).Eval.markers;
  Alcotest.(check int) "bug 1 failing runs" 5 (find 1).Eval.failing_runs;
  Alcotest.(check int) "bug 3 failing runs" 0 (find 3).Eval.failing_runs

let test_eval_metrics () =
  let ev = Eval.evaluate ~formulas:[ Formula.importance; Formula.dstar2 ] eval_ds in
  Alcotest.(check int) "runs" 18 ev.Eval.runs;
  Alcotest.(check int) "failing" 8 ev.Eval.failing;
  Alcotest.(check int) "evaluable" 2 ev.Eval.evaluable;
  Alcotest.(check int) "one result per formula" 2 (List.length ev.Eval.results);
  List.iter
    (fun (fr : Eval.formula_result) ->
      (* pred 0 (F=5) outranks pred 2 (F=4) under both formulas *)
      Alcotest.(check (option int)) (fr.Eval.formula ^ ": first bug at rank 1") (Some 1)
        fr.Eval.first_true_bug_rank;
      Alcotest.check feq (fr.Eval.formula ^ ": top1") 0.5 fr.Eval.top1;
      Alcotest.check feq (fr.Eval.formula ^ ": top5") 1.0 fr.Eval.top5;
      Alcotest.check feq (fr.Eval.formula ^ ": top10") 1.0 fr.Eval.top10;
      (match fr.Eval.mean_exam with
      | None -> Alcotest.fail "mean exam expected"
      | Some e -> Alcotest.check feq (fr.Eval.formula ^ ": mean EXAM") 0.25 e);
      let pb b = List.find (fun (pb : Eval.per_bug) -> pb.Eval.pb_bug = b) fr.Eval.bugs in
      Alcotest.(check (option int)) "bug 1 first rank" (Some 1) (pb 1).Eval.pb_first_rank;
      Alcotest.(check (option int)) "bug 2 first rank" (Some 2) (pb 2).Eval.pb_first_rank;
      Alcotest.(check (option int)) "markerless bug unranked" None (pb 3).Eval.pb_first_rank)
    ev.Eval.results

(* --- ground-truth accessor + per-study label pins --- *)

let test_bug_runs_accessor () =
  let mask = Dataset.bug_runs eval_ds 3 in
  Alcotest.(check int) "mask length" 18 (Array.length mask);
  Array.iteri
    (fun i v -> Alcotest.(check bool) "bug 3 only in run 8" (i = 8) v)
    mask;
  (* occurrence regardless of outcome: bug 3 triggered but never failed *)
  Alcotest.(check int) "bug 3 failing count" 0 (Dataset.runs_with_bug eval_ds 3);
  let mask1 = Dataset.bug_runs eval_ds 1 in
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "bug 1 in run %d" i) true mask1.(i))
    [ 0; 1; 2; 3; 7 ];
  Alcotest.(check int) "bug 1 failing count" 5 (Dataset.runs_with_bug eval_ds 1)

(* Pinned per-program ground-truth labels: (bug id, failing runs with the
   bug, total runs with the bug) for every bug observed in a deterministic
   120-run collection of each corpus program.  Collection is fully seeded,
   so these are stable across machines; a change here means the
   ground-truth channel itself changed. *)
let label_pins =
  [
    ("mossim", 56,
     [ (1, 15, 17); (2, 2, 2); (3, 7, 7); (4, 4, 4); (5, 27, 27); (6, 6, 6);
       (7, 51, 95); (9, 17, 17) ]);
    ("ccryptim", 32, [ (1, 32, 32) ]);
    ("bcim", 34, [ (1, 34, 34) ]);
    ("exifim", 16, [ (1, 12, 12); (2, 2, 2); (3, 2, 2) ]);
    ("rhythmim", 35, [ (1, 25, 26); (2, 11, 13) ]);
  ]

let test_study_label_pins () =
  let open Sbi_experiments in
  let config = { Harness.seed = 42; nruns = Some 120; sampling = Harness.Uniform 0.05 } in
  List.iter
    (fun (name, failing, pins) ->
      let study =
        match Sbi_corpus.Corpus.by_name name with
        | Some s -> s
        | None -> Alcotest.failf "unknown study %s" name
      in
      let ds = (Harness.collect_study ~config study).Harness.dataset in
      Alcotest.(check int) (name ^ ": failing runs") failing (Dataset.num_failures ds);
      Alcotest.(check (list int))
        (name ^ ": occurring bug ids")
        (List.map (fun (b, _, _) -> b) pins)
        (Dataset.bug_ids ds);
      let inventory =
        List.map (fun (b : Sbi_corpus.Study.bug) -> b.Sbi_corpus.Study.bug_id)
          study.Sbi_corpus.Study.bugs
      in
      List.iter
        (fun (bug, with_failing, with_total) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s bug %d is in the study inventory" name bug)
            true (List.mem bug inventory);
          Alcotest.(check int)
            (Printf.sprintf "%s bug %d failing occurrences" name bug)
            with_failing (Dataset.runs_with_bug ds bug);
          let mask = Dataset.bug_runs ds bug in
          Alcotest.(check int)
            (Printf.sprintf "%s bug %d total occurrences" name bug)
            with_total
            (Array.fold_left (fun a x -> if x then a + 1 else a) 0 mask);
          (* the mask is exactly the per-run has_bug channel *)
          Array.iteri
            (fun i v ->
              Alcotest.(check bool)
                (Printf.sprintf "%s bug %d mask run %d" name bug i)
                (Report.has_bug ds.Dataset.runs.(i) bug)
                v)
            mask)
        pins)
    label_pins

let suite =
  [
    Alcotest.test_case "formula values on the canonical cell" `Quick test_formula_values;
    Alcotest.test_case "division-by-zero conventions" `Quick test_formula_conventions;
    Alcotest.test_case "registry" `Quick test_registry;
    Alcotest.test_case "deterministic tie-breaking" `Quick test_tie_breaking;
    QCheck_alcotest.to_alcotest qcheck_importance_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_increase_bit_identical;
    QCheck_alcotest.to_alcotest qcheck_snapshot_path_bit_identical;
    Alcotest.test_case "eval ground truth + markers" `Quick test_eval_truth;
    Alcotest.test_case "eval metrics" `Quick test_eval_metrics;
    Alcotest.test_case "Dataset.bug_runs accessor" `Quick test_bug_runs_accessor;
    Alcotest.test_case "per-study ground-truth label pins" `Slow test_study_label_pins;
  ]
