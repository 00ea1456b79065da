open Sbi_instrument
open Sbi_runtime

type sampling =
  | No_sampling
  | Uniform of float
  | Adaptive of int

type config = {
  seed : int;
  nruns : int option;
  sampling : sampling;
}

let default_config = { seed = 42; nruns = None; sampling = Adaptive 1000 }
let quick_config = { seed = 42; nruns = Some 600; sampling = Adaptive 150 }

type bundle = {
  study : Sbi_corpus.Study.t;
  transform : Transform.t;
  plan : Sampler.plan;
  dataset : Dataset.t;
  config : config;
}

(* Training inputs come from run indices far above any collection index so
   the training and evaluation populations are disjoint, as in the paper. *)
let training_offset = 10_000_000

let train_plan (study : Sbi_corpus.Study.t) (t : Transform.t) ~seed ~ntrain =
  let counter = ref 0 in
  Adaptive.train t ~ntrain ~run:(fun hooks ->
      let run = training_offset + !counter in
      incr counter;
      let args = study.Sbi_corpus.Study.gen_input ~seed ~run in
      Sbi_lang.Interp.run t.Transform.prog
        {
          Sbi_lang.Interp.default_config with
          Sbi_lang.Interp.args;
          nondet_seed = (0x7a11 * 1_000_003) + run;
          hooks;
        })

let prepare ?(config = default_config) (study : Sbi_corpus.Study.t) =
  let prog = Sbi_corpus.Study.checked study in
  let transform = Transform.instrument prog in
  let plan =
    match config.sampling with
    | No_sampling -> Sampler.Always
    | Uniform r -> Sampler.Uniform r
    | Adaptive ntrain -> train_plan study transform ~seed:config.seed ~ntrain
  in
  let nondet_salt = 0x7a11 in
  let spec =
    Collect.make_spec
      ?oracle:(Sbi_corpus.Corpus.make_oracle study ~nondet_salt)
      ~nondet_salt ~transform ~plan
      ~gen_input:(fun run -> study.Sbi_corpus.Study.gen_input ~seed:config.seed ~run)
      ()
  in
  (transform, plan, spec)

let study_runs config (study : Sbi_corpus.Study.t) =
  Option.value config.nruns ~default:study.Sbi_corpus.Study.default_runs

let collect_study ?(config = default_config) (study : Sbi_corpus.Study.t) =
  let transform, plan, spec = prepare ~config study in
  let dataset = Collect.collect ~seed:config.seed spec ~nruns:(study_runs config study) in
  { study; transform; plan; dataset; config }

let analyze bundle = Sbi_core.Analysis.analyze bundle.dataset

let cooccurrence bundle ~pred =
  let counts = Hashtbl.create 8 in
  Array.iter
    (fun (r : Report.t) ->
      if Report.outcome_is_failure r.Report.outcome && Report.is_true r pred then
        Array.iter
          (fun b ->
            Hashtbl.replace counts b (1 + Option.value ~default:0 (Hashtbl.find_opt counts b)))
          r.Report.bugs)
    bundle.dataset.Dataset.runs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let dominant_bug bundle ~pred =
  match cooccurrence bundle ~pred with (b, _) :: _ -> Some b | [] -> None

let assign_selections_to_bugs bundle selections =
  let assigned = Hashtbl.create 8 in
  List.iter
    (fun (sel : Sbi_core.Eliminate.selection) ->
      match dominant_bug bundle ~pred:sel.Sbi_core.Eliminate.pred with
      | Some b when not (Hashtbl.mem assigned b) -> Hashtbl.replace assigned b sel
      | _ -> ())
    selections;
  Hashtbl.fold (fun b sel acc -> (b, sel) :: acc) assigned []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let describe bundle ~pred = Transform.describe_pred bundle.transform pred
