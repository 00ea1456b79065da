(* Aggregated test runner for the statistical bug isolation reproduction. *)

let () =
  Alcotest.run "sbi"
    [
      ("prng", Test_prng.suite);
      ("stats", Test_stats.suite);
      ("texttab", Test_texttab.suite);
      ("topk", Test_topk.suite);
      ("lang", Test_lang.suite);
      ("interp", Test_interp.suite);
      ("query", Test_query.suite);
      ("generated-programs", Test_gen.suite);
      ("vm", Test_vm.suite);
      ("instrument", Test_instrument.suite);
      ("runtime", Test_runtime.suite);
      ("ingest", Test_ingest.suite);
      ("json", Test_json.suite);
      ("obs", Test_obs.suite);
      ("store", Test_store.suite);
      ("index", Test_index.suite);
      ("sbfl", Test_sbfl.suite);
      ("serve", Test_serve.suite);
      ("fault", Test_fault.suite);
      ("cli", Test_cli.suite);
      ("core", Test_core.suite);
      ("logreg", Test_logreg.suite);
      ("corpus", Test_corpus.suite);
      ("experiments", Test_experiments.suite);
    ]
