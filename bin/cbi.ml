(* cbi — command-line driver for the statistical bug isolation
   reproduction: regenerate the paper's tables, run corpus programs,
   collect/analyze datasets, and browse predictors. *)

open Cmdliner
open Sbi_experiments

(* --- shared options --- *)

let seed_t =
  let doc = "PRNG seed for input generation and sampling." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let runs_t =
  let doc = "Number of monitored runs (default: per-study default; the paper used ~32,000)." in
  Arg.(value & opt (some int) None & info [ "runs" ] ~docv:"N" ~doc)

let quick_t =
  let doc = "Quick mode: 600 runs, adaptive training on 150 runs." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let sampling_t =
  let doc =
    "Sampling mode: 'adaptive[:NTRAIN]' (paper default, non-uniform rates), \
     'uniform:RATE', or 'none' (observe everything)."
  in
  Arg.(value & opt string "adaptive:1000" & info [ "sampling" ] ~docv:"MODE" ~doc)

let parse_sampling s =
  match String.split_on_char ':' s with
  | [ "none" ] -> Ok Harness.No_sampling
  | [ "adaptive" ] -> Ok (Harness.Adaptive 1000)
  | [ "adaptive"; n ] -> (
      match int_of_string_opt n with
      | Some n when n > 0 -> Ok (Harness.Adaptive n)
      | _ -> Error "bad adaptive training count")
  | [ "uniform"; r ] -> (
      match float_of_string_opt r with
      | Some r when r > 0. && r <= 1. -> Ok (Harness.Uniform r)
      | _ -> Error "uniform rate must be in (0,1]")
  | _ -> Error "sampling must be none | adaptive[:N] | uniform:RATE"

let config_of ~seed ~runs ~quick ~sampling =
  match parse_sampling sampling with
  | Error e -> Error e
  | Ok sampling_mode ->
      let base = if quick then Harness.quick_config else Harness.default_config in
      Ok
        {
          Harness.seed;
          nruns = (match runs with Some n -> Some n | None -> base.Harness.nruns);
          sampling = (if quick && sampling = "adaptive:1000" then base.Harness.sampling
                      else sampling_mode);
        }

let study_conv =
  let parse s =
    match Sbi_corpus.Corpus.by_name s with
    | Some study -> Ok study
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown study %s (expected: %s)" s
               (String.concat ", "
                  (List.map (fun st -> st.Sbi_corpus.Study.name) Sbi_corpus.Corpus.all))))
  in
  let print fmt st = Format.pp_print_string fmt st.Sbi_corpus.Study.name in
  Arg.conv (parse, print)

let or_fail = function
  | Ok x -> x
  | Error msg ->
      prerr_endline ("cbi: " ^ msg);
      exit 2

(* --- table command --- *)

let bundle_cache : (string, Harness.bundle) Hashtbl.t = Hashtbl.create 8

let get_bundle config study =
  let key = study.Sbi_corpus.Study.name in
  match Hashtbl.find_opt bundle_cache key with
  | Some b -> b
  | None ->
      Printf.eprintf "[cbi] collecting %s...\n%!" key;
      let b = Harness.collect_study ~config study in
      Hashtbl.replace bundle_cache key b;
      b

let all_rows config =
  List.map
    (fun study ->
      let b = get_bundle config study in
      (b, Harness.analyze b))
    Sbi_corpus.Corpus.all

let render_table config n =
  let moss () = get_bundle config Sbi_corpus.Corpus.mossim in
  match n with
  | 1 -> Ok (Table1.render (moss ()))
  | 2 -> Ok (Table2.render (all_rows config))
  | 3 -> Ok (Table3.render (moss ()))
  | 4 ->
      Ok
        (Predictor_table.render ~title:"Table 4: Predictors for CCRYPT (analogue)"
           (get_bundle config Sbi_corpus.Corpus.ccryptim))
  | 5 ->
      Ok
        (Predictor_table.render ~title:"Table 5: Predictors for BC (analogue)"
           (get_bundle config Sbi_corpus.Corpus.bcim))
  | 6 ->
      Ok
        (Predictor_table.render ~title:"Table 6: Predictors for EXIF (analogue)"
           (get_bundle config Sbi_corpus.Corpus.exifim))
  | 7 ->
      Ok
        (Predictor_table.render ~title:"Table 7: Predictors for RHYTHMBOX (analogue)"
           (get_bundle config Sbi_corpus.Corpus.rhythmim))
  | 8 -> Ok (Table8.render (all_rows config))
  | 9 -> Ok (Table9.render (moss ()))
  | _ -> Error "table number must be 1..9"

let table_cmd =
  let n_t =
    let doc = "Paper table number (1–9), or 0 for all tables." in
    Arg.(required & pos 0 (some int) None & info [] ~docv:"TABLE" ~doc)
  in
  let run n seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    if n = 0 then
      List.iter
        (fun i ->
          print_endline (or_fail (render_table config i));
          print_newline ())
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    else print_endline (or_fail (render_table config n))
  in
  let info = Cmd.info "table" ~doc:"Regenerate one of the paper's tables (1-9; 0 = all)." in
  Cmd.v info Term.(const run $ n_t $ seed_t $ runs_t $ quick_t $ sampling_t)

(* --- auxiliary experiments --- *)

let simple_experiment name doc f =
  let run seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    print_endline (f config)
  in
  let info = Cmd.info name ~doc in
  Cmd.v info Term.(const run $ seed_t $ runs_t $ quick_t $ sampling_t)

let stack_cmd =
  simple_experiment "stack-study"
    "Reproduce the stack-trace usefulness study (§6): per-bug crash-stack uniqueness."
    (fun config -> Stack_study.render (all_rows config))

let validation_cmd =
  simple_experiment "sampling-validation"
    "Compare sampled vs. unsampled analyses (§4): selected sites and bug coverage."
    (fun config -> Sampling_validation.run ~config ())

let ablation_cmd =
  simple_experiment "ablation"
    "Compare the three §5 run-discard proposals on the MOSS analogue."
    (fun config -> Ablation.render (get_bundle config Sbi_corpus.Corpus.mossim))

let static_followup_cmd =
  simple_experiment "static-followup"
    "Run the §1 follow-up: scan for the unsafe dispose-then-use pattern that the \
     RHYTHMBOX-analogue predictors expose."
    (fun config -> Static_followup.render (get_bundle config Sbi_corpus.Corpus.rhythmim))

let curves_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let run study seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    print_endline (Curves.render (get_bundle config study))
  in
  let info =
    Cmd.info "curves"
      ~doc:"Plot Importance_N convergence curves for each bug's chosen predictor (§4.3)."
  in
  Cmd.v info Term.(const run $ study_t $ seed_t $ runs_t $ quick_t $ sampling_t)

let report_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let out_t =
    Arg.(required & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE" ~doc:"HTML output path.")
  in
  let run study out seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let bundle = get_bundle config study in
    Html_report.write ~path:out bundle;
    Printf.printf "wrote %s\n" out
  in
  let info =
    Cmd.info "report" ~doc:"Analyze a study and write a self-contained HTML report."
  in
  Cmd.v info Term.(const run $ study_t $ out_t $ seed_t $ runs_t $ quick_t $ sampling_t)

(* --- studies --- *)

let studies_cmd =
  let run () =
    List.iter
      (fun st ->
        Printf.printf "%-10s %5d LoC, %d seeded bug(s), default %d runs\n    %s\n"
          st.Sbi_corpus.Study.name
          (Sbi_corpus.Study.loc_count st)
          (List.length st.Sbi_corpus.Study.bugs)
          st.Sbi_corpus.Study.default_runs st.Sbi_corpus.Study.descr;
        List.iter
          (fun (b : Sbi_corpus.Study.bug) ->
            Printf.printf "      #%d %s%s\n" b.Sbi_corpus.Study.bug_id
              b.Sbi_corpus.Study.bug_descr
              (if b.Sbi_corpus.Study.crashing then "" else " [non-crashing]"))
          st.Sbi_corpus.Study.bugs)
      Sbi_corpus.Corpus.all
  in
  let info = Cmd.info "studies" ~doc:"List the corpus case studies and their seeded bugs." in
  Cmd.v info Term.(const run $ const ())

let run_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let index_t =
    Arg.(value & opt int 0 & info [ "input" ] ~docv:"I" ~doc:"Generated-input index to run.")
  in
  let run study index seed =
    let args = study.Sbi_corpus.Study.gen_input ~seed ~run:index in
    Printf.printf "args: %s\n" (String.concat " | " (Array.to_list args));
    let prog = Sbi_corpus.Study.checked study in
    let result =
      Sbi_lang.Interp.run prog
        {
          Sbi_lang.Interp.default_config with
          Sbi_lang.Interp.args;
          nondet_seed = (0x7a11 * 1_000_003) + index;
        }
    in
    print_string result.Sbi_lang.Interp.output;
    (match result.Sbi_lang.Interp.outcome with
    | Sbi_lang.Interp.Finished v ->
        Printf.printf "[finished: %s]\n" (Sbi_lang.Value.to_string v)
    | Sbi_lang.Interp.Crashed c ->
        Printf.printf "[CRASH: %s at %s in %s; stack: %s]\n"
          (Sbi_lang.Interp.crash_kind_to_string c.Sbi_lang.Interp.kind)
          (Sbi_lang.Loc.to_string c.Sbi_lang.Interp.crash_loc)
          c.Sbi_lang.Interp.crash_fn
          (String.concat " < " c.Sbi_lang.Interp.stack));
    if result.Sbi_lang.Interp.bugs_triggered <> [] then
      Printf.printf "[ground-truth bugs: %s]\n"
        (String.concat " "
           (List.map (fun b -> "#" ^ string_of_int b) result.Sbi_lang.Interp.bugs_triggered))
  in
  let info = Cmd.info "run" ~doc:"Run one corpus program on a generated input and show the outcome." in
  Cmd.v info Term.(const run $ study_t $ index_t $ seed_t)

let collect_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let out_t =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Dataset output path.")
  in
  let run study out seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let bundle = Harness.collect_study ~config study in
    Sbi_runtime.Dataset.save out bundle.Harness.dataset;
    Printf.printf "wrote %s: %d runs (%d failing), %d sites, %d predicates\n" out
      (Sbi_runtime.Dataset.nruns bundle.Harness.dataset)
      (Sbi_runtime.Dataset.num_failures bundle.Harness.dataset)
      bundle.Harness.dataset.Sbi_runtime.Dataset.nsites
      bundle.Harness.dataset.Sbi_runtime.Dataset.npreds
  in
  let info = Cmd.info "collect" ~doc:"Collect a feedback-report dataset and save it to disk." in
  Cmd.v info Term.(const run $ study_t $ out_t $ seed_t $ runs_t $ quick_t $ sampling_t)

(* --- ingestion pipeline --- *)

let print_log_stats (s : Sbi_ingest.Shard_log.stats) =
  if s.Sbi_ingest.Shard_log.corrupt_records > 0 || s.Sbi_ingest.Shard_log.truncated_bytes > 0
  then
    Printf.printf "recovery: skipped %d corrupt record(s), dropped %d truncated tail byte(s)\n"
      s.Sbi_ingest.Shard_log.corrupt_records s.Sbi_ingest.Shard_log.truncated_bytes

let ingest_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let out_t =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Shard-log output directory.")
  in
  let domains_t =
    Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
           ~doc:"Collection domains (= shards written); default: all cores.")
  in
  let run study out domains seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let _, _, spec = Harness.prepare ~config study in
    let nruns = Harness.study_runs config study in
    let domains =
      match domains with Some d when d > 0 -> d | _ -> Sbi_ingest.Par_collect.default_domains ()
    in
    let t0 = Unix.gettimeofday () in
    let stats =
      Sbi_ingest.Par_collect.collect_to_log ~seed:config.Harness.seed ~domains spec ~nruns
        ~dir:out
    in
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "wrote %s: %d shard(s), %s\n" out
      (List.length (Sbi_ingest.Shard_log.shard_files ~dir:out))
      (Sbi_ingest.Shard_log.pp_stats stats);
    Printf.printf "throughput: %.0f reports/sec (%d domain(s), %.2fs wall)\n"
      (float_of_int stats.Sbi_ingest.Shard_log.records /. Float.max dt 1e-9)
      domains dt
  in
  let info =
    Cmd.info "ingest"
      ~doc:"Collect feedback reports in parallel (one OCaml domain per shard) into a \
            crash-tolerant binary shard log."
  in
  Cmd.v info
    Term.(const run $ study_t $ out_t $ domains_t $ seed_t $ runs_t $ quick_t $ sampling_t)

let log_stats_cmd =
  let dir_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Shard-log directory written by 'cbi ingest'.")
  in
  let run dir =
    let meta =
      try Sbi_ingest.Shard_log.read_meta ~dir
      with Sbi_ingest.Shard_log.Format_error m ->
        prerr_endline ("cbi: " ^ m);
        exit 2
    in
    Printf.printf "%s: %d sites, %d predicates\n" dir meta.Sbi_runtime.Dataset.nsites
      meta.Sbi_runtime.Dataset.npreds;
    let total =
      List.fold_left
        (fun total (shard, path) ->
          let (), s = Sbi_ingest.Shard_log.fold_shard path ~init:() ~f:(fun () _ -> ()) in
          Printf.printf "  shard %04d: %s\n" shard (Sbi_ingest.Shard_log.pp_stats s);
          Sbi_ingest.Shard_log.add_stats total s)
        Sbi_ingest.Shard_log.zero_stats
        (Sbi_ingest.Shard_log.shard_files ~dir)
    in
    Printf.printf "  total:      %s\n" (Sbi_ingest.Shard_log.pp_stats total)
  in
  let info =
    Cmd.info "log-stats"
      ~doc:"Scan a shard log and report per-shard record/byte/corruption statistics."
  in
  Cmd.v info Term.(const run $ dir_t)

(* --- analysis rendering (shared by analyze / analyze-file) --- *)

module J = Sbi_util.Json

let json_t =
  let doc = "Emit machine-readable JSON instead of the human table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let discard_of_proposal = function
  | 1 -> Ok Sbi_core.Eliminate.Discard_all_true
  | 2 -> Ok Sbi_core.Eliminate.Discard_failing_true
  | 3 -> Ok Sbi_core.Eliminate.Relabel_failing
  | _ -> Error "--proposal must be 1, 2, or 3"

let interval_json (iv : Sbi_util.Stats.interval) =
  J.Obj [ ("lo", J.Num iv.Sbi_util.Stats.lo); ("hi", J.Num iv.Sbi_util.Stats.hi) ]

let score_json ~text (sc : Sbi_core.Scores.t) =
  J.Obj
    [
      ("pred", J.int sc.Sbi_core.Scores.pred);
      ("text", J.Str text);
      ("f", J.int sc.Sbi_core.Scores.f);
      ("s", J.int sc.Sbi_core.Scores.s);
      ("f_obs", J.int sc.Sbi_core.Scores.f_obs);
      ("s_obs", J.int sc.Sbi_core.Scores.s_obs);
      ("failure", J.Num sc.Sbi_core.Scores.failure);
      ("context", J.Num sc.Sbi_core.Scores.context);
      ("increase", J.Num sc.Sbi_core.Scores.increase);
      ("increase_ci", interval_json sc.Sbi_core.Scores.increase_ci);
      ("importance", J.Num sc.Sbi_core.Scores.importance);
      ("importance_ci", interval_json sc.Sbi_core.Scores.importance_ci);
    ]

let analysis_json ~discard ds (analysis : Sbi_core.Analysis.t) =
  let s = Sbi_core.Analysis.summary analysis in
  let text pred = Sbi_runtime.Dataset.pred_text ds pred in
  J.Obj
    [
      ("mode", J.Str "analyze");
      ("proposal", J.Str (Sbi_core.Eliminate.discard_to_string discard));
      ("runs", J.int s.Sbi_core.Analysis.runs);
      ("successful", J.int s.Sbi_core.Analysis.successful);
      ("failing", J.int s.Sbi_core.Analysis.failing);
      ("sites", J.int s.Sbi_core.Analysis.sites);
      ("predicates", J.int s.Sbi_core.Analysis.initial_preds);
      ("retained", J.int s.Sbi_core.Analysis.retained_preds);
      ("selected", J.int s.Sbi_core.Analysis.selected_preds);
      ( "selections",
        J.List
          (List.map
             (fun (sel : Sbi_core.Eliminate.selection) ->
               J.Obj
                 [
                   ("rank", J.int sel.Sbi_core.Eliminate.rank);
                   ("pred", J.int sel.Sbi_core.Eliminate.pred);
                   ("text", J.Str (text sel.Sbi_core.Eliminate.pred));
                   ("runs_before", J.int sel.Sbi_core.Eliminate.runs_before);
                   ("failures_before", J.int sel.Sbi_core.Eliminate.failures_before);
                   ("runs_discarded", J.int sel.Sbi_core.Eliminate.runs_discarded);
                   ( "initial",
                     score_json ~text:(text sel.Sbi_core.Eliminate.pred)
                       sel.Sbi_core.Eliminate.initial );
                   ( "effective",
                     score_json ~text:(text sel.Sbi_core.Eliminate.pred)
                       sel.Sbi_core.Eliminate.effective );
                 ])
             analysis.Sbi_core.Analysis.elimination.Sbi_core.Eliminate.selections) );
    ]

let print_analysis ds (analysis : Sbi_core.Analysis.t) =
  let s = Sbi_core.Analysis.summary analysis in
  Printf.printf
    "%d runs (%d failing); %d sites, %d predicates; %d after pruning; %d selected:\n"
    s.Sbi_core.Analysis.runs s.Sbi_core.Analysis.failing s.Sbi_core.Analysis.sites
    s.Sbi_core.Analysis.initial_preds s.Sbi_core.Analysis.retained_preds
    s.Sbi_core.Analysis.selected_preds;
  List.iter
    (fun (sel : Sbi_core.Eliminate.selection) ->
      Printf.printf "  %d. [imp %.3f, F=%d, S=%d]  %s\n" sel.Sbi_core.Eliminate.rank
        sel.Sbi_core.Eliminate.effective.Sbi_core.Scores.importance
        sel.Sbi_core.Eliminate.effective.Sbi_core.Scores.f
        sel.Sbi_core.Eliminate.effective.Sbi_core.Scores.s
        (Sbi_runtime.Dataset.pred_text ds sel.Sbi_core.Eliminate.pred))
    analysis.Sbi_core.Analysis.elimination.Sbi_core.Eliminate.selections

let analyze_file_cmd =
  let file_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Dataset file written by 'cbi collect', or a shard-log directory written \
                 by 'cbi ingest'.")
  in
  let discard_t =
    let doc = "Run-discard proposal: 1 (discard all covered runs), 2 (failing only), 3 (relabel)." in
    Arg.(value & opt int 1 & info [ "proposal" ] ~docv:"N" ~doc)
  in
  let stream_t =
    let doc =
      "Streaming mode (shard logs only): aggregate §3.1 counts shard by shard without \
       materializing reports, and print the top pruned predicates by importance.  Skips \
       the redundancy-elimination stage, which needs per-run data."
    in
    Arg.(value & flag & info [ "stream" ] ~doc)
  in
  let top_t =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K"
           ~doc:"Predicates to print in --stream mode.")
  in
  let stream_analyze dir top json =
    let agg, meta, stats =
      try Sbi_ingest.Aggregator.of_log ~dir
      with Sbi_ingest.Shard_log.Format_error m ->
        prerr_endline ("cbi: " ^ m);
        exit 2
    in
    if not json then print_log_stats stats;
    let counts = Sbi_ingest.Aggregator.to_counts agg in
    let retained = Sbi_core.Prune.retained_scores counts in
    let sorted = Array.copy retained in
    Array.sort Sbi_core.Scores.compare_importance_desc sorted;
    let nshards = List.length (Sbi_ingest.Shard_log.shard_files ~dir) in
    if json then
      let top_scores =
        Array.to_list (Array.sub sorted 0 (min top (Array.length sorted)))
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("mode", J.Str "stream");
                ("runs", J.int (counts.Sbi_core.Counts.num_f + counts.Sbi_core.Counts.num_s));
                ("failing", J.int counts.Sbi_core.Counts.num_f);
                ("shards", J.int nshards);
                ("predicates", J.int counts.Sbi_core.Counts.npreds);
                ("retained", J.int (Array.length retained));
                ( "top",
                  J.List
                    (List.map
                       (fun (sc : Sbi_core.Scores.t) ->
                         score_json
                           ~text:(Sbi_runtime.Dataset.pred_text meta sc.Sbi_core.Scores.pred)
                           sc)
                       top_scores) );
              ]))
    else begin
      Printf.printf
        "%d runs (%d failing) streamed from %d shard(s); %d predicates, %d after pruning:\n"
        (counts.Sbi_core.Counts.num_f + counts.Sbi_core.Counts.num_s)
        counts.Sbi_core.Counts.num_f nshards counts.Sbi_core.Counts.npreds
        (Array.length retained);
      Array.iteri
        (fun i (sc : Sbi_core.Scores.t) ->
          if i < top then
            Printf.printf "  %2d. [imp %.3f, F=%d, S=%d]  %s\n" (i + 1)
              sc.Sbi_core.Scores.importance sc.Sbi_core.Scores.f sc.Sbi_core.Scores.s
              (Sbi_runtime.Dataset.pred_text meta sc.Sbi_core.Scores.pred))
        sorted
    end
  in
  let run file proposal stream top json =
    if not (Sys.file_exists file) then begin
      prerr_endline ("cbi: no such file or directory: " ^ file);
      exit 2
    end;
    if stream then begin
      if not (Sys.file_exists file && Sys.is_directory file) then begin
        prerr_endline "cbi: --stream needs a shard-log directory";
        exit 2
      end;
      stream_analyze file top json;
      exit 0
    end;
    let ds =
      if Sys.file_exists file && Sys.is_directory file then begin
        match Sbi_ingest.Shard_log.read_all ~dir:file with
        | ds, stats ->
            if not json then print_log_stats stats;
            ds
        | exception Sbi_ingest.Shard_log.Format_error m ->
            prerr_endline ("cbi: " ^ m);
            exit 2
      end
      else
        try Sbi_runtime.Dataset.load file
        with Sbi_runtime.Dataset.Parse_error msg ->
          prerr_endline ("cbi: cannot read dataset: " ^ msg);
          exit 2
    in
    let discard = or_fail (discard_of_proposal proposal) in
    let analysis = Sbi_core.Analysis.analyze ~discard ds in
    if json then print_endline (J.to_string (analysis_json ~discard ds analysis))
    else print_analysis ds analysis
  in
  let info =
    Cmd.info "analyze-file"
      ~doc:"Run the cause-isolation analysis on a dataset saved by 'cbi collect' or on a \
            shard-log directory written by 'cbi ingest' (--stream for log-only streaming \
            aggregation; --json for machine-readable output)."
  in
  Cmd.v info Term.(const run $ file_t $ discard_t $ stream_t $ top_t $ json_t)

let analyze_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let discard_t =
    let doc = "Run-discard proposal: 1 (discard all covered runs), 2 (failing only), 3 (relabel)." in
    Arg.(value & opt int 1 & info [ "proposal" ] ~docv:"N" ~doc)
  in
  let run study proposal json seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let discard = or_fail (discard_of_proposal proposal) in
    let bundle = get_bundle config study in
    let ds = bundle.Harness.dataset in
    let analysis = Sbi_core.Analysis.analyze ~discard ds in
    if json then print_endline (J.to_string (analysis_json ~discard ds analysis))
    else print_analysis ds analysis
  in
  let info =
    Cmd.info "analyze"
      ~doc:"Collect a study and run the cause-isolation analysis (--json for \
            machine-readable output)."
  in
  Cmd.v info
    Term.(const run $ study_t $ discard_t $ json_t $ seed_t $ runs_t $ quick_t $ sampling_t)

(* --- predicate index + triage service --- *)

let index_cmd =
  let log_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"LOG"
           ~doc:"Shard-log directory written by 'cbi ingest'.")
  in
  let out_t =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Index directory (created, or incrementally extended with the log's \
                 unseen records).")
  in
  let run log out =
    if not (Sys.file_exists log && Sys.is_directory log) then begin
      prerr_endline ("cbi: no such shard-log directory: " ^ log);
      exit 2
    end;
    let st =
      match Sbi_index.Index.build ~log ~dir:out () with
      | st -> st
      | exception Sbi_index.Index.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
      | exception Sbi_ingest.Shard_log.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    in
    Printf.printf "indexed %s -> %s: +%d segment(s), +%d record(s) (%d corrupt skipped), %d byte(s) consumed\n"
      log out st.Sbi_index.Index.segments_added st.Sbi_index.Index.records_indexed
      st.Sbi_index.Index.corrupt_skipped st.Sbi_index.Index.bytes_consumed;
    let idx = Sbi_index.Index.open_ ~dir:out in
    Printf.printf "index now: %d run(s) (%d failing) in %d segment(s)\n"
      (Sbi_index.Index.nruns idx)
      (Sbi_index.Index.num_failures idx)
      (Array.length idx.Sbi_index.Index.segments)
  in
  let info =
    Cmd.info "index"
      ~doc:"Compile (or incrementally extend) an inverted predicate index from a shard \
            log, for 'cbi serve' and indexed triage queries."
  in
  Cmd.v info Term.(const run $ log_t $ out_t)

let gen_cmd =
  let runs_t =
    Arg.(required & opt (some int) None & info [ "runs" ] ~docv:"N"
           ~doc:"Number of synthetic runs to generate.")
  in
  let out_t =
    Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"DIR"
           ~doc:"Shard-log directory to create or extend.")
  in
  let shards_t =
    Arg.(value & opt int Sbi_corpus.Synth.default_shards & info [ "shards" ] ~docv:"K"
           ~doc:"Shard files to spread runs over (round-robin).")
  in
  let sites_t =
    Arg.(value & opt int Sbi_corpus.Synth.default_nsites & info [ "sites" ] ~docv:"S"
           ~doc:"Instrumentation sites in the synthetic tables.")
  in
  let preds_t =
    Arg.(value & opt int Sbi_corpus.Synth.default_npreds & info [ "preds" ] ~docv:"P"
           ~doc:"Predicates in the synthetic tables (>= --sites).")
  in
  let seed_gen_t =
    Arg.(value & opt int Sbi_corpus.Synth.default_seed & info [ "seed" ] ~docv:"X"
           ~doc:"Generator seed; each report is a pure function of (seed, run id).")
  in
  let start_t =
    Arg.(value & opt int 0 & info [ "start" ] ~docv:"ID"
           ~doc:"First run id.  0 (the default) writes a fresh log; a positive value \
                 appends a wave to an existing log whose runs end at ID - 1.")
  in
  let run runs out shards sites preds seed start =
    if runs <= 0 then begin
      prerr_endline "cbi: --runs must be positive";
      exit 2
    end;
    match
      Sbi_corpus.Synth.generate ~shards ~nsites:sites ~npreds:preds ~seed ~start ~runs
        ~dir:out ()
    with
    | exception Invalid_argument m ->
        prerr_endline ("cbi: " ^ m);
        exit 2
    | st ->
        Printf.printf "generated %d run(s) (ids %d..%d) -> %s: %s\n" runs start
          (start + runs - 1) out
          (Sbi_ingest.Shard_log.pp_stats st)
  in
  let info =
    Cmd.info "gen"
      ~doc:"Stream a deterministic synthetic corpus into a shard log in constant \
            memory (for scale testing: generate waves with --start, indexing \
            incrementally between them)."
  in
  Cmd.v info
    Term.(const run $ runs_t $ out_t $ shards_t $ sites_t $ preds_t $ seed_gen_t $ start_t)

let compact_cmd =
  let dir_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX"
           ~doc:"Index directory built by 'cbi index'.")
  in
  let tier_max_t =
    Arg.(value & opt int Sbi_store.Tier.default_tier_max & info [ "tier-max" ] ~docv:"N"
           ~doc:"Merge a size tier when it holds at least N segments.")
  in
  let dry_run_t =
    Arg.(value & flag & info [ "dry-run" ]
           ~doc:"Print the tier layout and what would merge, without writing.")
  in
  let run dir tier_max dry_run =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      prerr_endline ("cbi: no such index directory: " ^ dir);
      exit 2
    end;
    if tier_max < 2 then begin
      prerr_endline "cbi: --tier-max must be >= 2";
      exit 2
    end;
    if dry_run then begin
      match Sbi_index.Index.compact_plan ~tier_max ~dir () with
      | plan -> print_string (Sbi_index.Index.pp_plan plan)
      | exception Sbi_index.Index.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    end
    else
      match Sbi_index.Index.compact ~tier_max ~dir () with
      | st -> print_string (Sbi_index.Index.pp_compact st)
      | exception Sbi_index.Index.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
  in
  let info =
    Cmd.info "compact"
      ~doc:"Fold an index's small segments into large ones under the size-tiered \
            policy.  Rankings are bit-identical before and after; a crash mid-compaction \
            is recovered by 'cbi fsck --repair'."
  in
  Cmd.v info Term.(const run $ dir_t $ tier_max_t $ dry_run_t)

let fsck_cmd =
  let dir_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX"
           ~doc:"Index directory built by 'cbi index'.")
  in
  let repair_t =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"Repair before validating: drop damaged segments (and their shard's \
                 later segments), roll consumed offsets back so the next 'cbi index' \
                 re-indexes the dropped range, and remove orphaned and stray temp \
                 files.")
  in
  let run dir repair =
    if not (Sys.file_exists dir && Sys.is_directory dir) then begin
      prerr_endline ("cbi: no such index directory: " ^ dir);
      exit 2
    end;
    if repair then begin
      match Sbi_index.Index.repair ~dir with
      | rep -> print_string (Sbi_index.Index.pp_repair rep)
      | exception Sbi_index.Index.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    end;
    match Sbi_index.Index.fsck ~dir with
    | exception Sbi_index.Index.Format_error m ->
        prerr_endline ("cbi: " ^ m);
        exit 2
    | r ->
        print_string (Sbi_index.Index.pp_fsck r);
        if r.Sbi_index.Index.fsck_corrupt > 0 then exit 1
  in
  let info =
    Cmd.info "fsck"
      ~doc:"Validate every segment of an index (CRCs, structure, manifest agreement). \
            With --repair, first restore the index to a consistent state.  Exit 1 \
            when corrupt segments are found, 2 when the index is unusable."
  in
  Cmd.v info Term.(const run $ dir_t $ repair_t)

let fault_check_cmd =
  let scratch_t =
    Arg.(value & opt (some string) None & info [ "scratch" ] ~docv:"DIR"
           ~doc:"Scratch directory for the fault cases (default: a fresh directory \
                 under the system temp dir, removed when all cases pass).")
  in
  let verbose_t =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print one line per case.")
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  let run scratch verbose =
    let scratch, default_scratch =
      match scratch with
      | Some d -> (d, false)
      | None ->
          ( Filename.concat (Filename.get_temp_dir_name ())
              (Printf.sprintf "cbi-fault-%d" (Unix.getpid ())),
            true )
    in
    let s = Sbi_index.Crashsim.run_matrix ~verbose ~scratch () in
    print_string (Sbi_index.Crashsim.pp_summary s);
    if s.Sbi_index.Crashsim.failed > 0 then begin
      Printf.printf "fault cases preserved under %s\n" scratch;
      exit 1
    end
    else if default_scratch then try rm_rf scratch with Sys_error _ -> ()
  in
  let info =
    Cmd.info "fault-check"
      ~doc:"Run the crash-recovery fault matrix: kill-and-reopen the shard log and \
            index builder at every injected fault point and verify no acknowledged \
            report is lost and no partial record is surfaced.  Exit 1 on any \
            violated invariant."
  in
  Cmd.v info Term.(const run $ scratch_t $ verbose_t)

let serve_cmd =
  (* every option defaults to what the library's default config runs *)
  let d = Sbi_serve.Server.default_config (Sbi_serve.Wire.Tcp ("127.0.0.1", 7077)) in
  let idx_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"INDEX"
           ~doc:"Index directory built by 'cbi index'.")
  in
  let addr_t =
    Arg.(value & opt string (Sbi_serve.Wire.addr_to_string d.addr) & info [ "a"; "addr" ]
           ~docv:"ADDR"
           ~doc:"Listen address: host:port, or a filesystem path (Unix socket).")
  in
  let timeout_t =
    Arg.(value & opt float d.timeout & info [ "timeout" ] ~docv:"SECS"
           ~doc:"Per-connection idle deadline: a connection that sends no request, or \
                 stops reading its responses, for SECS is closed.  0 disables it.")
  in
  let max_request_t =
    Arg.(value & opt int d.max_request & info [ "max-request-bytes" ] ~docv:"BYTES"
           ~doc:"Reject any request line longer than this (the connection is closed \
                 and the rejection counted in the stats fault counters).")
  in
  let no_fsync_t =
    Arg.(value & flag & info [ "no-fsync" ]
           ~doc:"Skip the per-record fsync on ingest (faster, less durable).")
  in
  let ingest_log_t =
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"DIR"
           ~doc:"Shard-log directory for durable ingest (default: the index's source \
                 log; 'none' disables the ingest command).")
  in
  let update_t =
    Arg.(value & flag & info [ "update" ]
           ~doc:"Incrementally re-index the source log before serving.")
  in
  let slow_ms_t =
    Arg.(value & opt (some int) None & info [ "slow-ms" ] ~docv:"MS"
           ~doc:"Log every request taking at least MS milliseconds to stderr \
                 (slow-query log: command, arguments digest, duration, snapshot \
                 epoch).  0 logs every request; unset disables.")
  in
  let compact_every_t =
    Arg.(value & opt (some float) None & info [ "compact-every" ] ~docv:"SECS"
           ~doc:"Run tiered compaction on the index directory every SECS seconds in a \
                 background thread, swapping to the merged index without interrupting \
                 queries or ingest.  Unset disables background compaction.")
  in
  let serve_tier_max_t =
    Arg.(value & opt int d.tier_max & info [ "tier-max" ] ~docv:"N"
           ~doc:"Background compaction merges a size tier when it holds at least N \
                 segments.")
  in
  let group_commit_ms_t =
    Arg.(value & opt float d.group_commit_ms & info [ "group-commit-ms" ] ~docv:"MS"
           ~doc:"Group-commit window: ingest appends park up to MS milliseconds so one \
                 log fsync covers every report that arrived in the window (acks still \
                 wait for the covering fsync — durability semantics are unchanged).  \
                 0 disables group commit: one inline fsync per ingest request.")
  in
  let max_batch_t =
    Arg.(value & opt int d.max_batch & info [ "max-batch" ] ~docv:"N"
           ~doc:"Force a group-commit flush once N reports are pending in the window, \
                 without waiting out --group-commit-ms.")
  in
  let acceptors_t =
    Arg.(value & opt int d.acceptors & info [ "acceptors" ] ~docv:"N"
           ~doc:"Event-loop domains for the connection front end (N >= 1): each runs a \
                 poll(2) readiness loop over non-blocking connections.  Loop 0 accepts \
                 on the one listener and hands connections round-robin to every loop, \
                 itself included.")
  in
  let max_conns_t =
    Arg.(value & opt int d.max_conns & info [ "max-conns" ] ~docv:"N"
           ~doc:"Connection admission cap: a client beyond it is answered with a \
                 one-line 'err busy' and closed instead of hanging.")
  in
  let run idx_dir addr timeout max_request no_fsync ingest_log update slow_ms
      compact_every tier_max group_commit_ms max_batch acceptors max_conns =
    let addr = or_fail (Sbi_serve.Wire.addr_of_string addr) in
    (match slow_ms with
    | Some ms when ms < 0 ->
        prerr_endline "cbi: --slow-ms must be >= 0";
        exit 2
    | _ -> Sbi_obs.Slowlog.set_threshold_ms slow_ms);
    if max_request < 16 then begin
      prerr_endline "cbi: --max-request-bytes must be >= 16";
      exit 2
    end;
    (match compact_every with
    | Some s when s <= 0. ->
        prerr_endline "cbi: --compact-every must be positive";
        exit 2
    | _ -> ());
    if tier_max < 2 then begin
      prerr_endline "cbi: --tier-max must be >= 2";
      exit 2
    end;
    if group_commit_ms < 0. then begin
      prerr_endline "cbi: --group-commit-ms must be >= 0";
      exit 2
    end;
    if max_batch < 1 then begin
      prerr_endline "cbi: --max-batch must be >= 1";
      exit 2
    end;
    if acceptors < 1 then begin
      prerr_endline "cbi: --acceptors must be >= 1";
      exit 2
    end;
    if max_conns < 1 then begin
      prerr_endline "cbi: --max-conns must be >= 1";
      exit 2
    end;
    let open_index () =
      match Sbi_index.Index.open_ ~dir:idx_dir with
      | idx -> idx
      | exception Sbi_index.Index.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    in
    let idx = open_index () in
    let idx =
      match (update, idx.Sbi_index.Index.log_dir) with
      | true, Some log when Sys.file_exists log ->
          let st = Sbi_index.Index.build ~log ~dir:idx_dir () in
          Printf.printf "cbi serve: re-indexed %s: +%d segment(s), +%d record(s)\n" log
            st.Sbi_index.Index.segments_added st.Sbi_index.Index.records_indexed;
          open_index ()
      | _ -> idx
    in
    let ingest_log =
      match ingest_log with
      | Some "none" -> None
      | Some dir -> Some dir
      | None -> idx.Sbi_index.Index.log_dir
    in
    let config =
      {
        d with
        Sbi_serve.Server.addr;
        timeout;
        fsync = not no_fsync;
        ingest_log;
        max_request;
        compact_every;
        tier_max;
        group_commit_ms;
        max_batch;
        acceptors;
        max_conns;
      }
    in
    let srv =
      try Sbi_serve.Server.start config idx with
      | Unix.Unix_error (e, _, _) ->
          prerr_endline
            (Printf.sprintf "cbi: cannot listen on %s: %s" (Sbi_serve.Wire.addr_to_string addr)
               (Unix.error_message e));
          exit 2
      | Invalid_argument m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    in
    Printf.printf "cbi serve: listening on %s (%d run(s), %d segment(s)%s)\n%!"
      (Sbi_serve.Wire.addr_to_string addr)
      (Sbi_index.Index.nruns idx)
      (Array.length idx.Sbi_index.Index.segments)
      (match ingest_log with
      | Some d -> ", ingest -> " ^ d
      | None -> ", ingest disabled");
    let stop_requested = ref false in
    let request_stop _ = stop_requested := true in
    Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
    while not !stop_requested do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.printf "cbi serve: shutting down...\n%!";
    Sbi_serve.Server.stop srv;
    Printf.printf "cbi serve: done (%d report(s) ingested)\n"
      (Sbi_serve.Server.ingested srv)
  in
  let info =
    Cmd.info "serve"
      ~doc:"Serve triage queries (topk, pred, affinity, stats, ingest) over a Unix or \
            TCP socket from an index built by 'cbi index'.  SIGINT shuts down \
            gracefully."
  in
  Cmd.v info
    Term.(
      const run $ idx_t $ addr_t $ timeout_t $ max_request_t $ no_fsync_t
      $ ingest_log_t $ update_t $ slow_ms_t $ compact_every_t $ serve_tier_max_t
      $ group_commit_ms_t $ max_batch_t $ acceptors_t $ max_conns_t)

let query_cmd =
  let addr_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Server address (host:port or socket path).")
  in
  let cmd_t =
    Arg.(non_empty & pos_right 0 string [] & info [] ~docv:"CMD"
           ~doc:"Protocol command and arguments (e.g. 'topk 5', 'pred 12', 'stats').")
  in
  let timeout_ms_t =
    Arg.(value & opt int Sbi_serve.Client.default_timeout_ms
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Connect/read/write deadline in milliseconds (0 or negative \
                   disables deadlines).")
  in
  let retries_t =
    Arg.(value & opt int 3 & info [ "retries" ] ~docv:"N"
           ~doc:"Connect attempts before giving up (jittered exponential backoff \
                 between attempts).  Requests are never retried.")
  in
  let run addr words timeout_ms retries =
    let addr = or_fail (Sbi_serve.Wire.addr_of_string addr) in
    if retries < 1 then begin
      prerr_endline "cbi: --retries must be >= 1";
      exit 2
    end;
    let retry = { Sbi_fault.Retry.default with Sbi_fault.Retry.max_attempts = retries } in
    let client =
      match Sbi_serve.Client.connect ~timeout_ms ~retry addr with
      | Ok c -> c
      | Error msg ->
          prerr_endline
            (Printf.sprintf "cbi: cannot connect to %s: %s"
               (Sbi_serve.Wire.addr_to_string addr) msg);
          exit 2
    in
    match Sbi_serve.Client.request client (String.concat " " words) with
    | Ok (header, lines) ->
        if header <> "" then print_endline header;
        List.iter print_endline lines;
        Sbi_serve.Client.close client
    | Error msg ->
        Sbi_serve.Client.close client;
        prerr_endline ("cbi: server error: " ^ msg);
        exit 1
    | exception End_of_file ->
        prerr_endline "cbi: connection closed by server mid-response";
        exit 2
    | exception Sbi_serve.Wire.Timeout ->
        prerr_endline
          (Printf.sprintf "cbi: no response from %s within %dms"
             (Sbi_serve.Wire.addr_to_string addr) timeout_ms);
        exit 2
  in
  let info = Cmd.info "query" ~doc:"Send one command to a running 'cbi serve' instance." in
  Cmd.v info Term.(const run $ addr_t $ cmd_t $ timeout_ms_t $ retries_t)

let load_cmd =
  let addr_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Server address (host:port or socket path).")
  in
  let log_t =
    Arg.(required & opt (some string) None & info [ "log" ] ~docv:"DIR"
           ~doc:"Shard log whose reports are replayed against the server.")
  in
  let clients_t =
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N"
           ~doc:"Concurrent client connections (the fleet width).")
  in
  let batch_t =
    Arg.(value & opt int 64 & info [ "batch" ] ~docv:"B"
           ~doc:"Reports per ingest-batch request.")
  in
  let repeat_t =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"K"
           ~doc:"Replay the log K times; each pass remaps run ids past the previous \
                 pass so every replayed report is a distinct run.")
  in
  let single_t =
    Arg.(value & flag & info [ "single" ]
           ~doc:"Use one single-report 'ingest' RPC per report instead of \
                 'ingest-batch' (the pre-batching wire path, for comparison).")
  in
  let timeout_ms_t =
    Arg.(value & opt int Sbi_serve.Client.default_timeout_ms
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Connect/read/write deadline in milliseconds (0 or negative \
                   disables deadlines).")
  in
  let run addr log_dir clients batch repeat single timeout_ms =
    let addr = or_fail (Sbi_serve.Wire.addr_of_string addr) in
    if clients < 1 then begin
      prerr_endline "cbi: --clients must be >= 1";
      exit 2
    end;
    if batch < 1 then begin
      prerr_endline "cbi: --batch must be >= 1";
      exit 2
    end;
    if repeat < 1 then begin
      prerr_endline "cbi: --repeat must be >= 1";
      exit 2
    end;
    let ds, _stats =
      match Sbi_ingest.Shard_log.read_all ~dir:log_dir with
      | r -> r
      | exception Sbi_ingest.Shard_log.Format_error m ->
          prerr_endline ("cbi: " ^ m);
          exit 2
    in
    let base = ds.Sbi_runtime.Dataset.runs in
    if Array.length base = 0 then begin
      prerr_endline ("cbi: " ^ log_dir ^ " holds no reports");
      exit 2
    end;
    (* distinct run ids across passes: later replays must not look like
       duplicates of the first *)
    let stride =
      1 + Array.fold_left (fun m (r : Sbi_runtime.Report.t) -> max m r.Sbi_runtime.Report.run_id) 0 base
    in
    let reports =
      Array.init (repeat * Array.length base) (fun i ->
          let pass = i / Array.length base and j = i mod Array.length base in
          let r = base.(j) in
          { r with Sbi_runtime.Report.run_id = r.Sbi_runtime.Report.run_id + (pass * stride) })
    in
    let total = Array.length reports in
    let ok_n = Atomic.make 0 and err_n = Atomic.make 0 in
    let fail msg =
      prerr_endline ("cbi: " ^ msg);
      exit 1
    in
    (* Connect barrier: every client holds its connection open until the
       whole fleet is connected, so the server really faces [clients]
       concurrent connections rather than a rolling handful. *)
    let bar_m = Mutex.create () and bar_cv = Condition.create () in
    let connected = ref 0 in
    let barrier () =
      Mutex.lock bar_m;
      incr connected;
      if !connected >= clients then Condition.broadcast bar_cv
      else
        while !connected < clients do
          Condition.wait bar_cv bar_m
        done;
      Mutex.unlock bar_m
    in
    let worker w =
      match Sbi_serve.Client.connect ~timeout_ms addr with
      | Error msg -> fail ("cannot connect: " ^ msg)
      | Ok c ->
          barrier ();
          (* round-robin partition: client w replays reports w, w+N, ... *)
          let mine = ref [] in
          for i = total - 1 downto 0 do
            if i mod clients = w then mine := reports.(i) :: !mine
          done;
          let count = function
            | Ok _ -> Atomic.incr ok_n
            | Error _ -> Atomic.incr err_n
          in
          (if single then
             List.iter
               (fun (r : Sbi_runtime.Report.t) ->
                 match
                   Sbi_serve.Client.request c
                     ("ingest " ^ Sbi_serve.B64.encode (Sbi_ingest.Codec.encode r))
                 with
                 | Ok _ -> Atomic.incr ok_n
                 | Error _ -> Atomic.incr err_n
                 | exception (Sbi_serve.Wire.Timeout | End_of_file) ->
                     fail "server stopped responding mid-replay")
               !mine
           else
             let rec chunks = function
               | [] -> ()
               | rs ->
                   let rec take n acc = function
                     | r :: rest when n > 0 -> take (n - 1) (r :: acc) rest
                     | rest -> (List.rev acc, rest)
                   in
                   let chunk, rest = take batch [] rs in
                   (match Sbi_serve.Client.ingest_batch c chunk with
                   | Ok statuses -> List.iter count statuses
                   | Error msg -> fail ("batch rejected: " ^ msg)
                   | exception (Sbi_serve.Wire.Timeout | End_of_file) ->
                       fail "server stopped responding mid-replay");
                   chunks rest
             in
             chunks !mine);
          Sbi_serve.Client.close c
    in
    let t0 = Sbi_obs.Clock.now_ns () in
    let threads = List.init clients (fun w -> Thread.create worker w) in
    List.iter Thread.join threads;
    let dt_s = float_of_int (Sbi_obs.Clock.now_ns () - t0) *. 1e-9 in
    let ok = Atomic.get ok_n and err = Atomic.get err_n in
    Printf.printf
      "cbi load: %d report(s) in %.3fs over %d client(s) (%s, batch %d): %.0f reports/sec, \
       %d accepted, %d rejected\n"
      total dt_s clients
      (if single then "single RPC" else "ingest-batch")
      (if single then 1 else batch)
      (float_of_int total /. dt_s) ok err;
    if err > 0 then exit 1
  in
  let info =
    Cmd.info "load"
      ~doc:"Replay a shard log against a running 'cbi serve' instance from many \
            concurrent client connections — the fleet stress rig for the batched \
            group-commit ingest path.  Exits 1 if any report is rejected."
  in
  Cmd.v info
    Term.(const run $ addr_t $ log_t $ clients_t $ batch_t $ repeat_t $ single_t
          $ timeout_ms_t)

let trace_dump_cmd =
  let addr_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR"
           ~doc:"Server address (host:port or socket path).")
  in
  let n_t =
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N"
           ~doc:"Dump at most the newest N retained spans (0 for all).")
  in
  let timeout_ms_t =
    Arg.(value & opt int Sbi_serve.Client.default_timeout_ms
         & info [ "timeout-ms" ] ~docv:"MS"
             ~doc:"Connect/read/write deadline in milliseconds (0 or negative \
                   disables deadlines).")
  in
  let run addr n timeout_ms =
    let addr = or_fail (Sbi_serve.Wire.addr_of_string addr) in
    if n < 0 then begin
      prerr_endline "cbi: -n must be >= 0";
      exit 2
    end;
    let client =
      match Sbi_serve.Client.connect ~timeout_ms addr with
      | Ok c -> c
      | Error msg ->
          prerr_endline
            (Printf.sprintf "cbi: cannot connect to %s: %s"
               (Sbi_serve.Wire.addr_to_string addr) msg);
          exit 2
    in
    let request = if n = 0 then "trace" else Printf.sprintf "trace %d" n in
    match Sbi_serve.Client.request client request with
    | Ok (header, lines) ->
        print_endline header;
        List.iter print_endline lines;
        Sbi_serve.Client.close client
    | Error msg ->
        Sbi_serve.Client.close client;
        prerr_endline ("cbi: server error: " ^ msg);
        exit 1
    | exception End_of_file ->
        prerr_endline "cbi: connection closed by server mid-response";
        exit 2
    | exception Sbi_serve.Wire.Timeout ->
        prerr_endline
          (Printf.sprintf "cbi: no response from %s within %dms"
             (Sbi_serve.Wire.addr_to_string addr) timeout_ms);
        exit 2
  in
  let info =
    Cmd.info "trace-dump"
      ~doc:"Dump the newest tracing spans retained by a running 'cbi serve' instance \
            (span id, parent link, name, duration, owning domain)."
  in
  Cmd.v info Term.(const run $ addr_t $ n_t $ timeout_ms_t)

let inspect_cmd =
  let study_t =
    Arg.(required & pos 0 (some study_conv) None & info [] ~docv:"STUDY" ~doc:"Study name.")
  in
  let top_t =
    Arg.(value & opt int 5 & info [ "affinity" ] ~docv:"K"
           ~doc:"Show the top K affinity entries for each selected predicate.")
  in
  let run study top seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let bundle = Harness.collect_study ~config study in
    let analysis = Harness.analyze bundle in
    let selections =
      analysis.Sbi_core.Analysis.elimination.Sbi_core.Eliminate.selections
    in
    List.iter
      (fun (sel : Sbi_core.Eliminate.selection) ->
        Printf.printf "#%d  imp=%.3f  %s\n" sel.Sbi_core.Eliminate.rank
          sel.Sbi_core.Eliminate.effective.Sbi_core.Scores.importance
          (Harness.describe bundle ~pred:sel.Sbi_core.Eliminate.pred);
        let entries =
          Sbi_core.Analysis.affinity_for analysis ~pred:sel.Sbi_core.Eliminate.pred
        in
        let rec take k = function
          | [] -> []
          | _ when k = 0 -> []
          | x :: rest -> x :: take (k - 1) rest
        in
        List.iter
          (fun (e : Sbi_core.Affinity.entry) ->
            Printf.printf "     drop %.3f (%.3f -> %.3f)  %s\n" e.Sbi_core.Affinity.drop
              e.Sbi_core.Affinity.importance_before e.Sbi_core.Affinity.importance_after
              (Harness.describe bundle ~pred:e.Sbi_core.Affinity.pred))
          (take top entries))
      selections
  in
  let info =
    Cmd.info "inspect"
      ~doc:"Analyze a study and browse each selected predictor's affinity list."
  in
  Cmd.v info Term.(const run $ study_t $ top_t $ seed_t $ runs_t $ quick_t $ sampling_t)

(* --- SBFL formula zoo --- *)

module Sbfl = Sbi_sbfl

let formula_conv =
  let parse s =
    match Sbfl.Registry.find s with
    | Some f -> Ok f
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown formula %s (known: %s)" s
               (String.concat ", " (Sbfl.Registry.names ()))))
  in
  let print fmt (f : Sbfl.Formula.t) = Format.pp_print_string fmt f.Sbfl.Formula.name in
  Arg.conv (parse, print)

let formula_t =
  let doc =
    "SBFL ranking formula (see 'cbi formulas'); default: the paper's importance."
  in
  Arg.(value & opt formula_conv Sbfl.Registry.default
       & info [ "formula" ] ~docv:"NAME" ~doc)

let formulas_cmd =
  let run json =
    let all = Sbfl.Registry.all () in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("mode", J.Str "formulas");
                ( "formulas",
                  J.List
                    (List.map
                       (fun (f : Sbfl.Formula.t) ->
                         J.Obj
                           [
                             ("name", J.Str f.Sbfl.Formula.name);
                             ("descr", J.Str f.Sbfl.Formula.descr);
                             ( "default",
                               J.Bool (f.Sbfl.Formula.name = Sbfl.Registry.default.Sbfl.Formula.name)
                             );
                           ])
                       all) );
              ]))
    else begin
      let tab =
        Sbi_util.Texttab.create [ ("Formula", Sbi_util.Texttab.Left); ("Definition", Sbi_util.Texttab.Left) ]
      in
      List.iter
        (fun (f : Sbfl.Formula.t) ->
          Sbi_util.Texttab.add_row tab
            [
              (if f.Sbfl.Formula.name = Sbfl.Registry.default.Sbfl.Formula.name then
                 f.Sbfl.Formula.name ^ " *"
               else f.Sbfl.Formula.name);
              f.Sbfl.Formula.descr;
            ])
        all;
      print_string (Sbi_util.Texttab.render tab);
      print_endline "(* = default)"
    end
  in
  let info =
    Cmd.info "formulas" ~doc:"List the registered SBFL ranking formulas (see docs/sbfl.md)."
  in
  Cmd.v info Term.(const run $ json_t)

(* Accepts any of the three on-disk artifacts: an index directory
   ('manifest'), a shard-log directory ('meta'), or a dataset file.  All
   three reduce to the same §3.1 counter table. *)
let counts_of_path path =
  if Sys.file_exists path && Sys.is_directory path then begin
    if Sys.file_exists (Filename.concat path "manifest") then begin
      match Sbi_index.Index.open_ ~dir:path with
      | idx ->
          let counts = Sbi_index.Triage.counts idx in
          Ok (counts, idx.Sbi_index.Index.meta, "index")
      | exception Sbi_index.Index.Format_error m -> Error m
    end
    else if Sys.file_exists (Filename.concat path "meta") then begin
      match Sbi_ingest.Aggregator.of_log ~dir:path with
      | agg, meta, _stats -> Ok (Sbi_ingest.Aggregator.to_counts agg, meta, "log")
      | exception Sbi_ingest.Shard_log.Format_error m -> Error m
    end
    else Error (path ^ ": neither an index (no manifest) nor a shard log (no meta)")
  end
  else if Sys.file_exists path then begin
    match Sbi_runtime.Dataset.load path with
    | ds -> Ok (Sbi_core.Counts.compute ds, ds, "dataset")
    | exception Sbi_runtime.Dataset.Parse_error m -> Error ("cannot read dataset: " ^ m)
  end
  else Error ("no such file or directory: " ^ path)

let topk_cmd =
  let path_t =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
           ~doc:"Index directory ('cbi index'), shard-log directory ('cbi ingest'), or \
                 dataset file ('cbi collect').")
  in
  let k_t =
    Arg.(value & opt int 10 & info [ "k"; "top" ] ~docv:"K" ~doc:"Predicates to rank.")
  in
  let all_t =
    Arg.(value & flag & info [ "all" ]
           ~doc:"Rank every predicate (default: only those surviving Increase-CI \
                 pruning, as the serving pipeline does).")
  in
  let run path formula k all json =
    if k < 1 then begin
      prerr_endline "cbi: -k must be >= 1";
      exit 2
    end;
    let counts, meta, source = or_fail (counts_of_path path) in
    let candidates =
      if all then None else Some (Sbi_core.Prune.retained counts)
    in
    let entries = Sbfl.Ranking.topk ~k ?candidates formula counts in
    let name = formula.Sbfl.Formula.name in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("mode", J.Str "topk");
                ("source", J.Str source);
                ("formula", J.Str name);
                ("k", J.int k);
                ("runs", J.int (counts.Sbi_core.Counts.num_f + counts.Sbi_core.Counts.num_s));
                ("failing", J.int counts.Sbi_core.Counts.num_f);
                ("predicates", J.int counts.Sbi_core.Counts.npreds);
                ( "results",
                  J.List
                    (List.mapi
                       (fun i (e : Sbfl.Ranking.entry) ->
                         J.Obj
                           [
                             ("rank", J.int (i + 1));
                             ("pred", J.int e.Sbfl.Ranking.pred);
                             ("text", J.Str (Sbi_runtime.Dataset.pred_text meta e.Sbfl.Ranking.pred));
                             ("score", J.Num e.Sbfl.Ranking.score);
                             ("f", J.int e.Sbfl.Ranking.f);
                             ("s", J.int e.Sbfl.Ranking.s);
                             ("f_obs", J.int e.Sbfl.Ranking.f_obs);
                             ("s_obs", J.int e.Sbfl.Ranking.s_obs);
                           ])
                       entries) );
              ]))
    else begin
      Printf.printf "%d runs (%d failing), %d predicates; top %d by %s:\n"
        (counts.Sbi_core.Counts.num_f + counts.Sbi_core.Counts.num_s)
        counts.Sbi_core.Counts.num_f counts.Sbi_core.Counts.npreds (List.length entries)
        name;
      List.iteri
        (fun i (e : Sbfl.Ranking.entry) ->
          Printf.printf "  %2d. [%s %.4f, F=%d, S=%d]  %s\n" (i + 1) name
            e.Sbfl.Ranking.score e.Sbfl.Ranking.f e.Sbfl.Ranking.s
            (Sbi_runtime.Dataset.pred_text meta e.Sbfl.Ranking.pred))
        entries
    end
  in
  let info =
    Cmd.info "topk"
      ~doc:"Rank predicates under any registered SBFL formula (--formula NAME; see \
            'cbi formulas') from an index, shard log, or dataset."
  in
  Cmd.v info Term.(const run $ path_t $ formula_t $ k_t $ all_t $ json_t)

let opt_rank = function None -> "-" | Some r -> string_of_int r
let opt_exam = function None -> "-" | Some e -> Printf.sprintf "%.4f" e

let eval_json study (ev : Sbfl.Eval.t) =
  J.Obj
    [
      ("program", J.Str study.Sbi_corpus.Study.name);
      ("runs", J.int ev.Sbfl.Eval.runs);
      ("failing", J.int ev.Sbfl.Eval.failing);
      ("predicates", J.int ev.Sbfl.Eval.npreds);
      ("evaluable_bugs", J.int ev.Sbfl.Eval.evaluable);
      ( "bugs",
        J.List
          (List.map
             (fun (b : Sbfl.Eval.bug) ->
               J.Obj
                 [
                   ("bug", J.int b.Sbfl.Eval.bug);
                   ("failing_runs", J.int b.Sbfl.Eval.failing_runs);
                   ("markers", J.int (List.length b.Sbfl.Eval.markers));
                 ])
             ev.Sbfl.Eval.truth) );
      ( "formulas",
        J.List
          (List.map
             (fun (fr : Sbfl.Eval.formula_result) ->
               J.Obj
                 [
                   ("formula", J.Str fr.Sbfl.Eval.formula);
                   ( "first_true_bug_rank",
                     match fr.Sbfl.Eval.first_true_bug_rank with
                     | None -> J.Null
                     | Some r -> J.int r );
                   ("top1", J.Num fr.Sbfl.Eval.top1);
                   ("top5", J.Num fr.Sbfl.Eval.top5);
                   ("top10", J.Num fr.Sbfl.Eval.top10);
                   ( "mean_exam",
                     match fr.Sbfl.Eval.mean_exam with
                     | None -> J.Null
                     | Some e -> J.Num e );
                   ( "bugs",
                     J.List
                       (List.map
                          (fun (pb : Sbfl.Eval.per_bug) ->
                            J.Obj
                              [
                                ("bug", J.int pb.Sbfl.Eval.pb_bug);
                                ( "first_rank",
                                  match pb.Sbfl.Eval.pb_first_rank with
                                  | None -> J.Null
                                  | Some r -> J.int r );
                                ( "exam",
                                  match pb.Sbfl.Eval.pb_exam with
                                  | None -> J.Null
                                  | Some e -> J.Num e );
                              ])
                          fr.Sbfl.Eval.bugs) );
                 ])
             ev.Sbfl.Eval.results) );
    ]

let eval_cmd =
  let studies_t =
    Arg.(value & pos_all study_conv [] & info [] ~docv:"STUDY"
           ~doc:"Studies to evaluate (default: all five corpus programs).")
  in
  let formulas_arg_t =
    let doc = "Comma-separated formulas to evaluate (default: all registered)." in
    Arg.(value & opt (some string) None & info [ "formulas" ] ~docv:"LIST" ~doc)
  in
  let run studies formulas json seed runs quick sampling =
    let config = or_fail (config_of ~seed ~runs ~quick ~sampling) in
    let studies = match studies with [] -> Sbi_corpus.Corpus.all | l -> l in
    let formulas =
      match formulas with
      | None -> Sbfl.Registry.all ()
      | Some l ->
          List.map
            (fun name ->
              match Sbfl.Registry.find name with
              | Some f -> f
              | None ->
                  or_fail
                    (Error
                       (Printf.sprintf "unknown formula %s (known: %s)" name
                          (String.concat ", " (Sbfl.Registry.names ())))))
            (List.filter (fun s -> s <> "") (String.split_on_char ',' l))
    in
    let evals =
      List.map
        (fun study ->
          let bundle = get_bundle config study in
          (study, Sbfl.Eval.evaluate ~formulas bundle.Harness.dataset))
        studies
    in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("mode", J.Str "eval");
                ("programs", J.List (List.map (fun (st, ev) -> eval_json st ev) evals));
              ]))
    else
      List.iter
        (fun (study, (ev : Sbfl.Eval.t)) ->
          let title =
            Printf.sprintf "%s: %d runs (%d failing), %d bugs occurring (%d evaluable)"
              study.Sbi_corpus.Study.name ev.Sbfl.Eval.runs ev.Sbfl.Eval.failing
              (List.length ev.Sbfl.Eval.truth) ev.Sbfl.Eval.evaluable
          in
          let tab =
            Sbi_util.Texttab.create ~title
              [
                ("Formula", Sbi_util.Texttab.Left);
                ("1st bug rank", Sbi_util.Texttab.Right);
                ("Top-1", Sbi_util.Texttab.Right);
                ("Top-5", Sbi_util.Texttab.Right);
                ("Top-10", Sbi_util.Texttab.Right);
                ("Mean EXAM", Sbi_util.Texttab.Right);
              ]
          in
          List.iter
            (fun (fr : Sbfl.Eval.formula_result) ->
              Sbi_util.Texttab.add_row tab
                [
                  fr.Sbfl.Eval.formula;
                  opt_rank fr.Sbfl.Eval.first_true_bug_rank;
                  Printf.sprintf "%.2f" fr.Sbfl.Eval.top1;
                  Printf.sprintf "%.2f" fr.Sbfl.Eval.top5;
                  Printf.sprintf "%.2f" fr.Sbfl.Eval.top10;
                  opt_exam fr.Sbfl.Eval.mean_exam;
                ])
            ev.Sbfl.Eval.results;
          print_string (Sbi_util.Texttab.render tab);
          print_newline ())
        evals
  in
  let info =
    Cmd.info "eval"
      ~doc:"Ground-truth evaluation of every SBFL formula against the corpus programs' \
            per-run bug occurrence: rank of first true bug, top-1/5/10 hit rates, and \
            mean EXAM per formula per program (--json for machine-readable output)."
  in
  Cmd.v info
    Term.(const run $ studies_t $ formulas_arg_t $ json_t $ seed_t $ runs_t $ quick_t
          $ sampling_t)

let main_cmd =
  let doc = "Scalable statistical bug isolation (PLDI 2005) — reproduction driver." in
  let info = Cmd.info "cbi" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      table_cmd; stack_cmd; validation_cmd; ablation_cmd; static_followup_cmd;
      report_cmd; curves_cmd; studies_cmd; run_cmd; collect_cmd; ingest_cmd;
      log_stats_cmd; analyze_cmd; analyze_file_cmd; index_cmd; gen_cmd; compact_cmd;
      fsck_cmd;
      fault_check_cmd; serve_cmd; query_cmd; load_cmd; trace_dump_cmd;
      inspect_cmd;
      formulas_cmd; topk_cmd; eval_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
