(* Tests for feedback reports, datasets (incl. serialization round-trip),
   and the collection driver. *)
open Sbi_lang
open Sbi_instrument
open Sbi_runtime

let mk_report ?(outcome = Report.Success) ?(sites = [||]) ?(preds = [||]) ?(bugs = [||])
    ?crash_sig id =
  {
    Report.run_id = id;
    outcome;
    observed_sites = sites;
    true_preds = preds;
    true_counts = Array.map (fun _ -> 1) preds;
    bugs;
    crash_sig;
  }

let test_report_membership () =
  let r = mk_report ~sites:[| 1; 4; 9 |] ~preds:[| 2; 3; 17 |] ~bugs:[| 5 |] 0 in
  Alcotest.(check bool) "site present" true (Report.observed_site r 4);
  Alcotest.(check bool) "site absent" false (Report.observed_site r 5);
  Alcotest.(check bool) "pred present" true (Report.is_true r 17);
  Alcotest.(check bool) "pred absent" false (Report.is_true r 16);
  Alcotest.(check bool) "bug present" true (Report.has_bug r 5);
  Alcotest.(check bool) "bug absent" false (Report.has_bug r 4);
  Alcotest.(check bool) "empty arrays" false (Report.is_true (mk_report 1) 0)

let test_stack_signature () =
  Alcotest.(check string) "signature" "memcpy<save<main"
    (Report.stack_signature [ "memcpy"; "save"; "main" ]);
  Alcotest.(check string) "empty" "" (Report.stack_signature [])

let mk_dataset runs =
  Dataset.of_tables ~nsites:4 ~npreds:8
    ~pred_site:[| 0; 0; 1; 1; 2; 2; 3; 3 |]
    (Array.of_list runs)

let test_dataset_counting () =
  let ds =
    mk_dataset
      [
        mk_report ~outcome:Report.Failure ~bugs:[| 1 |] 0;
        mk_report 1;
        mk_report ~outcome:Report.Failure ~bugs:[| 1; 2 |] 2;
        mk_report 3;
      ]
  in
  Alcotest.(check int) "nruns" 4 (Dataset.nruns ds);
  Alcotest.(check int) "failures" 2 (Dataset.num_failures ds);
  Alcotest.(check int) "successes" 2 (Dataset.num_successes ds);
  Alcotest.(check int) "failures array" 2 (Array.length (Dataset.failures ds));
  Alcotest.(check int) "successes array" 2 (Array.length (Dataset.successes ds));
  Alcotest.(check (list int)) "bug ids" [ 1; 2 ] (Dataset.bug_ids ds);
  Alcotest.(check int) "runs with bug 1" 2 (Dataset.runs_with_bug ds 1);
  Alcotest.(check int) "runs with bug 2" 1 (Dataset.runs_with_bug ds 2)

let test_dataset_filter_sub () =
  let ds =
    mk_dataset [ mk_report 0; mk_report ~outcome:Report.Failure 1; mk_report 2 ]
  in
  let only_failing = Dataset.filter_runs ds (fun r -> Report.outcome_is_failure r.Report.outcome) in
  Alcotest.(check int) "filtered" 1 (Dataset.nruns only_failing);
  let first_two = Dataset.sub ds 2 in
  Alcotest.(check int) "sub" 2 (Dataset.nruns first_two);
  Alcotest.check_raises "sub too large" (Invalid_argument "Dataset.sub: not enough runs")
    (fun () -> ignore (Dataset.sub ds 9))

let test_serialization_round_trip () =
  let ds =
    mk_dataset
      [
        mk_report ~outcome:Report.Failure ~sites:[| 0; 2 |] ~preds:[| 0; 4; 5 |] ~bugs:[| 3 |]
          ~crash_sig:"f<g<main" 0;
        mk_report ~sites:[| 1 |] ~preds:[| 2 |] 1;
        mk_report 2;
      ]
  in
  let path = Filename.temp_file "sbi_test" ".dataset" in
  Dataset.save path ds;
  let ds' = Dataset.load path in
  Sys.remove path;
  Alcotest.(check int) "nsites" ds.Dataset.nsites ds'.Dataset.nsites;
  Alcotest.(check int) "npreds" ds.Dataset.npreds ds'.Dataset.npreds;
  Alcotest.(check (array int)) "pred_site" ds.Dataset.pred_site ds'.Dataset.pred_site;
  Alcotest.(check int) "nruns" (Dataset.nruns ds) (Dataset.nruns ds');
  Array.iteri
    (fun i (r : Report.t) ->
      let r' = ds'.Dataset.runs.(i) in
      Alcotest.(check int) "run id" r.Report.run_id r'.Report.run_id;
      Alcotest.(check bool) "outcome" (Report.outcome_is_failure r.Report.outcome)
        (Report.outcome_is_failure r'.Report.outcome);
      Alcotest.(check (array int)) "sites" r.Report.observed_sites r'.Report.observed_sites;
      Alcotest.(check (array int)) "preds" r.Report.true_preds r'.Report.true_preds;
      Alcotest.(check (array int)) "bugs" r.Report.bugs r'.Report.bugs;
      Alcotest.(check (option string)) "sig" r.Report.crash_sig r'.Report.crash_sig)
    ds.Dataset.runs

let qcheck_serialization =
  let gen_run =
    QCheck2.Gen.(
      map
        (fun (id, fail, sites, preds) ->
          mk_report
            ~outcome:(if fail then Report.Failure else Report.Success)
            ~sites:(Array.of_list (List.sort_uniq compare sites))
            ~preds:(Array.of_list (List.sort_uniq compare preds))
            (abs id))
        (quad small_int bool (list (int_range 0 3)) (list (int_range 0 7))))
  in
  QCheck2.Test.make ~name:"dataset serialization round-trips" ~count:50
    QCheck2.Gen.(list_size (int_range 0 20) gen_run)
    (fun runs ->
      let ds = mk_dataset runs in
      let path = Filename.temp_file "sbi_qc" ".dataset" in
      Dataset.save path ds;
      let ds' = Dataset.load path in
      Sys.remove path;
      Dataset.nruns ds = Dataset.nruns ds'
      && Array.for_all2
           (fun (a : Report.t) (b : Report.t) ->
             a.Report.run_id = b.Report.run_id
             && a.Report.observed_sites = b.Report.observed_sites
             && a.Report.true_preds = b.Report.true_preds)
           ds.Dataset.runs ds'.Dataset.runs)

let test_parse_error () =
  let path = Filename.temp_file "sbi_bad" ".dataset" in
  let oc = open_out path in
  output_string oc "not a dataset\n";
  close_out oc;
  (match Dataset.load path with
  | exception Dataset.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error");
  Sys.remove path

(* --- collection on a tiny program --- *)

let crashy_src =
  {|
  int main() {
    int x = arg_int(0);
    if (x > 5) {
      __bug(1);
      int[] a = null;
      return a[0];
    }
    println("ok " + to_str(x));
    return 0;
  }
  |}

let crashy_spec ?(plan = Sampler.Always) () =
  let t = Transform.instrument (Check.check_string crashy_src) in
  Collect.make_spec ~transform:t ~plan
    ~gen_input:(fun run -> [| string_of_int (run mod 10) |])
    ()

let test_collect_labels () =
  let spec = crashy_spec () in
  let ds = Collect.collect spec ~nruns:20 in
  (* inputs 0..9 twice: x>5 for 6,7,8,9 -> 8 failures *)
  Alcotest.(check int) "20 runs" 20 (Dataset.nruns ds);
  Alcotest.(check int) "8 failures" 8 (Dataset.num_failures ds);
  Alcotest.(check int) "bug 1 everywhere failing" 8 (Dataset.runs_with_bug ds 1);
  Array.iter
    (fun (r : Report.t) ->
      if Report.outcome_is_failure r.Report.outcome then
        Alcotest.(check bool) "crash signature recorded" true (r.Report.crash_sig <> None))
    ds.Dataset.runs

let test_collect_observed_predicate () =
  let spec = crashy_spec () in
  let ds = Collect.collect spec ~nruns:20 in
  let t = spec.Collect.transform in
  (* find the branch predicate "x > 5 is TRUE" *)
  let pred = ref (-1) in
  Array.iter
    (fun (p : Site.predicate) -> if p.Site.pred_text = "x > 5 is TRUE" then pred := p.Site.pred_id)
    t.Transform.preds;
  Alcotest.(check bool) "predicate exists" true (!pred >= 0);
  Array.iter
    (fun (r : Report.t) ->
      let is_true = Report.is_true r !pred in
      let failing = Report.outcome_is_failure r.Report.outcome in
      Alcotest.(check bool) "true iff failing (deterministic bug, full sampling)" failing is_true)
    ds.Dataset.runs

let test_collect_deterministic () =
  let spec = crashy_spec () in
  let a = Collect.collect ~seed:5 spec ~nruns:30 in
  let b = Collect.collect ~seed:5 spec ~nruns:30 in
  Array.iteri
    (fun i (r : Report.t) ->
      let r' = b.Dataset.runs.(i) in
      Alcotest.(check (array int)) "same true preds" r.Report.true_preds r'.Report.true_preds)
    a.Dataset.runs

let test_collect_oracle () =
  (* program with wrong output on x=3; oracle flags it *)
  let src = {|
    int main() {
      int x = arg_int(0);
      if (x == 3) { __bug(9); println("wrong"); } else { println("right " + to_str(x)); }
      return 0;
    }
    |} in
  let t = Transform.instrument (Check.check_string src) in
  let oracle ~run_index:_ ~args (result : Interp.result) =
    let expected = "right " ^ args.(0) ^ "\n" in
    not (String.equal expected result.Interp.output)
  in
  let spec =
    Collect.make_spec ~oracle ~transform:t ~plan:Sampler.Always
      ~gen_input:(fun run -> [| string_of_int (run mod 5) |])
      ()
  in
  let ds = Collect.collect spec ~nruns:10 in
  Alcotest.(check int) "2 oracle failures (x=3 twice)" 2 (Dataset.num_failures ds);
  Array.iter
    (fun (r : Report.t) ->
      if Report.outcome_is_failure r.Report.outcome then
        Alcotest.(check (option string)) "oracle failure has no crash sig" None r.Report.crash_sig)
    ds.Dataset.runs

let test_run_uninstrumented () =
  let spec = crashy_spec () in
  let r = Collect.run_uninstrumented spec ~run_index:0 in
  match r.Interp.outcome with
  | Interp.Finished _ -> ()
  | Interp.Crashed _ -> Alcotest.fail "input 0 should succeed"

let test_sampled_collection_subsets () =
  (* with sampling, observed predicates are a subset of the full-observation
     run's; outcomes are identical *)
  let full = Collect.collect (crashy_spec ()) ~nruns:40 in
  let sampled = Collect.collect (crashy_spec ~plan:(Sampler.Uniform 0.3) ()) ~nruns:40 in
  Array.iteri
    (fun i (r : Report.t) ->
      let f = full.Dataset.runs.(i) in
      Alcotest.(check bool) "same outcome" (Report.outcome_is_failure f.Report.outcome)
        (Report.outcome_is_failure r.Report.outcome);
      Array.iter
        (fun p -> Alcotest.(check bool) "sampled true implies fully-observed true" true (Report.is_true f p))
        r.Report.true_preds)
    sampled.Dataset.runs

let test_true_counts () =
  (* the crashy program's loop predicates are observed true multiple times
     under full sampling; counts must exceed 1 while is_true stays boolean *)
  let src = {|
    int main() {
      int s = 0;
      for (int i = 0; i < 5; i = i + 1) { s = s + i; }
      return s;
    }
  |} in
  let t = Transform.instrument (Check.check_string src) in
  let spec = Collect.make_spec ~transform:t ~plan:Sampler.Always ~gen_input:(fun _ -> [||]) () in
  let ds = Collect.collect spec ~nruns:1 in
  let r = ds.Dataset.runs.(0) in
  Alcotest.(check bool) "counts parallel to preds" true
    (Array.length r.Report.true_counts = Array.length r.Report.true_preds);
  Alcotest.(check bool) "some predicate observed true more than once" true
    (Array.exists (fun c -> c > 1) r.Report.true_counts);
  Alcotest.(check bool) "all counts positive" true
    (Array.for_all (fun c -> c >= 1) r.Report.true_counts);
  (* true_count lookup *)
  Array.iteri
    (fun i p -> Alcotest.(check int) "true_count lookup" r.Report.true_counts.(i) (Report.true_count r p))
    r.Report.true_preds;
  Alcotest.(check int) "absent pred count 0" 0 (Report.true_count r 999_999)

let test_site_coverage () =
  let src = {|
    int main() {
      int s = 0;
      for (int i = 0; i < 50; i = i + 1) { s = s + 1; }
      if (s > 100) { s = 0; }
      return s;
    }
  |} in
  let t = Transform.instrument (Check.check_string src) in
  let spec = Collect.make_spec ~transform:t ~plan:Sampler.Always ~gen_input:(fun _ -> [||]) () in
  let ds = Collect.collect spec ~nruns:3 in
  let cov = Dataset.site_coverage ds in
  Alcotest.(check int) "per site" ds.Dataset.nsites (Array.length cov);
  Alcotest.(check bool) "max is 1" true (Array.exists (fun c -> c = 1.) cov);
  Alcotest.(check bool) "hot loop sites dominate cold if" true
    (Array.exists (fun c -> c < 0.5) cov)

let test_pred_texts_round_trip () =
  let t = Transform.instrument (Check.check_string "int main() { int x = 1; if (x > 0) { } return x; }") in
  let spec = Collect.make_spec ~transform:t ~plan:Sampler.Always ~gen_input:(fun _ -> [||]) () in
  let ds = Collect.collect spec ~nruns:2 in
  Alcotest.(check bool) "texts embedded" true (ds.Dataset.pred_texts <> None);
  Alcotest.(check bool) "readable name" true
    (String.length (Dataset.pred_text ds 0) > 3);
  let path = Filename.temp_file "sbi_v2" ".dataset" in
  Dataset.save path ds;
  let ds' = Dataset.load path in
  Sys.remove path;
  Alcotest.(check string) "texts survive round trip" (Dataset.pred_text ds 0)
    (Dataset.pred_text ds' 0);
  Array.iteri
    (fun i (r : Report.t) ->
      Alcotest.(check (array int)) "counts survive" r.Report.true_counts
        ds'.Dataset.runs.(i).Report.true_counts)
    ds.Dataset.runs

(* --- recording pins --- *)

module Harness = Sbi_experiments.Harness

let sampling_plans =
  [ ("always", Harness.No_sampling); ("uniform", Harness.Uniform 0.05); ("adaptive", Harness.Adaptive 150) ]

(* MD5 of the codec bytes of runs 0-199 of each study under each plan
   (quick config: seed 42; the adaptive plan trained on 150 runs), taken
   when recording still built a truth array per observation and a fresh
   accumulator per run.  Which sites a run observes, which predicates
   hold and how often all reach these bytes. *)
let collection_pins =
  [
    ("mossim", "always", "bffd86896e88abc53adce4eaf0029047");
    ("mossim", "uniform", "ebc3f05a678e52a246c943d410349da1");
    ("mossim", "adaptive", "3d3b7ad973838fe4da03e1ae21cc3021");
    ("ccryptim", "always", "a99292144c983a4701c38b039cfb074c");
    ("ccryptim", "uniform", "605fb9b598e4346821148f0fbe42eb6d");
    ("ccryptim", "adaptive", "a99292144c983a4701c38b039cfb074c");
    ("bcim", "always", "85bacec952ee889e1bb08986afe2bbb5");
    ("bcim", "uniform", "35d4161e3082c4a543804e62448e9f0c");
    ("bcim", "adaptive", "730444e291970a652a784b47ef14c51d");
    ("exifim", "always", "b233a34192cb6cf86f5134b8585284dd");
    ("exifim", "uniform", "1ccfa65e244422c68485420e0f2040cd");
    ("exifim", "adaptive", "6f376c2f6621406d92f060665ac30a2b");
    ("rhythmim", "always", "e14ad6995584d1259ba441e6061669c0");
    ("rhythmim", "uniform", "f96add383f9241d689493f3833557c3b");
    ("rhythmim", "adaptive", "e14ad6995584d1259ba441e6061669c0");
  ]

let reports_digest reports =
  let b = Buffer.create 65_536 in
  Array.iter (fun r -> Buffer.add_string b (Sbi_ingest.Codec.encode r)) reports;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_collection_pins () =
  List.iter
    (fun (study_name, plan, expected) ->
      let study =
        List.find (fun (s : Sbi_corpus.Study.t) -> s.Sbi_corpus.Study.name = study_name)
          Sbi_corpus.Corpus.all
      in
      let sampling = List.assoc plan sampling_plans in
      let _, _, spec = Harness.prepare ~config:{ Harness.quick_config with sampling } study in
      let name = Printf.sprintf "%s, %s plan" study_name plan in
      Alcotest.(check string) (name ^ ", sequential") expected
        (reports_digest (Collect.collect_reports spec ~nruns:200));
      Alcotest.(check string) (name ^ ", 2 domains") expected
        (reports_digest (Sbi_ingest.Par_collect.collect ~domains:2 spec ~nruns:200).Dataset.runs))
    collection_pins

let minor_words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* Recording allocates nothing per observation, so an instrumented run
   allocates about what the bare interpreter does (before truth masks:
   6.4-14x on these runs). *)
let test_recording_allocation () =
  let t, plan, spec = Harness.prepare ~config:Harness.quick_config Sbi_corpus.Exifim.study in
  let sampler = Sampler.create ~nsites:(Transform.num_sites t) plan in
  (* size this domain's accumulator for exifim *)
  ignore (Collect.run_one spec ~sampler ~run_index:0);
  for run_index = 0 to 4 do
    let instrumented = minor_words (fun () -> Collect.run_one spec ~sampler ~run_index) in
    let bare = minor_words (fun () -> Collect.run_uninstrumented spec ~run_index) in
    Alcotest.(check bool)
      (Printf.sprintf "run %d: %.0f instrumented words <= 2 x %.0f bare" run_index instrumented bare)
      true
      (instrumented <= 2. *. bare)
  done

let suite =
  [
    Alcotest.test_case "report membership" `Quick test_report_membership;
    Alcotest.test_case "observed-true counts (footnote 2)" `Quick test_true_counts;
    Alcotest.test_case "site coverage (§6)" `Quick test_site_coverage;
    Alcotest.test_case "dataset v2 texts round trip" `Quick test_pred_texts_round_trip;
    Alcotest.test_case "stack signature" `Quick test_stack_signature;
    Alcotest.test_case "dataset counting" `Quick test_dataset_counting;
    Alcotest.test_case "dataset filter and sub" `Quick test_dataset_filter_sub;
    Alcotest.test_case "serialization round trip" `Quick test_serialization_round_trip;
    QCheck_alcotest.to_alcotest qcheck_serialization;
    Alcotest.test_case "parse error on junk" `Quick test_parse_error;
    Alcotest.test_case "collection labels crashes" `Quick test_collect_labels;
    Alcotest.test_case "collection observes predicates" `Quick test_collect_observed_predicate;
    Alcotest.test_case "collection deterministic" `Quick test_collect_deterministic;
    Alcotest.test_case "oracle labelling" `Quick test_collect_oracle;
    Alcotest.test_case "uninstrumented run" `Quick test_run_uninstrumented;
    Alcotest.test_case "sampled observation subsets" `Quick test_sampled_collection_subsets;
    Alcotest.test_case "collection pinned for every study and plan" `Slow test_collection_pins;
    Alcotest.test_case "instrumented run allocates <= 2x bare" `Quick test_recording_allocation;
  ]
