(* Deployment simulation: the overhead/diagnosability trade-off (§2, §4).

   The paper's pitch is that sparse sampling makes monitoring cheap enough
   to deploy to end users while still isolating bugs once enough runs
   accumulate.  This example quantifies both halves on the EXIF analogue:

   - monitoring cost: wall-clock time per run under no instrumentation,
     full observation, uniform 1/100 sampling, and trained non-uniform
     sampling;
   - diagnosability: how many of the three seeded bugs each plan's
     analysis isolates from the same number of runs.

   Run with:  dune exec examples/deployment_sim.exe *)

open Sbi_experiments
open Sbi_core
open Sbi_util

let nruns = 1200

let time_per_run f n =
  let t0 = Unix.gettimeofday () in
  f ();
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) /. float_of_int n *. 1e3

let () =
  let study = Sbi_corpus.Corpus.exifim in
  Printf.printf "subject: %s; %d runs per configuration\n%!" study.Sbi_corpus.Study.name nruns;
  let configs =
    [
      ("no instrumentation", None);
      ("full observation", Some Harness.No_sampling);
      ("uniform 1/100", Some (Harness.Uniform 0.01));
      ("non-uniform (trained)", Some (Harness.Adaptive 200));
    ]
  in
  let tab =
    Texttab.create ~title:"Monitoring cost vs. diagnosability"
      [
        ("configuration", Texttab.Left);
        ("ms/run", Texttab.Right);
        ("overhead", Texttab.Right);
        ("bugs isolated", Texttab.Left);
      ]
  in
  let baseline = ref None in
  List.iter
    (fun (name, sampling) ->
      match sampling with
      | None ->
          (* uninstrumented baseline *)
          let spec =
            Sbi_runtime.Collect.make_spec
              ~transform:(Sbi_instrument.Transform.instrument (Sbi_corpus.Study.checked study))
              ~plan:Sbi_instrument.Sampler.Always
              ~gen_input:(fun run -> study.Sbi_corpus.Study.gen_input ~seed:42 ~run)
              ()
          in
          let ms =
            time_per_run
              (fun () ->
                for run = 0 to nruns - 1 do
                  ignore (Sbi_runtime.Collect.run_uninstrumented spec ~run_index:run)
                done)
              nruns
          in
          baseline := Some ms;
          Texttab.add_row tab [ name; Printf.sprintf "%.3f" ms; "1.00x"; "n/a" ]
      | Some sampling ->
          let config = { Harness.seed = 42; nruns = Some nruns; sampling } in
          let bundle = ref None in
          let ms =
            time_per_run (fun () -> bundle := Some (Harness.collect_study ~config study)) nruns
          in
          let bundle = Option.get !bundle in
          let analysis = Harness.analyze bundle in
          let bugs =
            List.sort_uniq compare
              (List.filter_map
                 (fun (s : Eliminate.selection) ->
                   Harness.dominant_bug bundle ~pred:s.Eliminate.pred)
                 analysis.Analysis.elimination.Eliminate.selections)
          in
          let overhead =
            match !baseline with
            | Some b when b > 0. -> Printf.sprintf "%.2fx" (ms /. b)
            | _ -> "-"
          in
          Texttab.add_row tab
            [
              name;
              Printf.sprintf "%.3f" ms;
              overhead;
              (if bugs = [] then "none"
               else String.concat ", " (List.map (fun b -> "#" ^ string_of_int b) bugs));
            ])
    configs;
  print_string (Texttab.render tab);
  print_endline
    "\nNotes: 'ms/run' for sampled configurations includes rate training and\n\
     dataset assembly.  The paper's claim to check is the shape: sampling cuts\n\
     monitoring cost versus full observation while the analysis still isolates\n\
     the common bugs; the rare canon bug (#3) may need more runs at 1/100."
