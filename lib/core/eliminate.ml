open Sbi_runtime

type discard =
  | Discard_all_true
  | Discard_failing_true
  | Relabel_failing

let discard_to_string = function
  | Discard_all_true -> "discard all runs where R(P)=1"
  | Discard_failing_true -> "discard failing runs where R(P)=1"
  | Relabel_failing -> "relabel failing runs where R(P)=1 as successful"

type selection = {
  rank : int;
  pred : int;
  initial : Scores.t;
  effective : Scores.t;
  runs_before : int;
  failures_before : int;
  runs_discarded : int;
}

type result = {
  selections : selection list;
  runs_remaining : int;
  failures_remaining : int;
  candidates_remaining : int;
}

let apply_discard discard ds pred =
  let covered (r : Report.t) = Report.is_true r pred in
  match discard with
  | Discard_all_true -> Dataset.filter_runs ds (fun r -> not (covered r))
  | Discard_failing_true ->
      Dataset.filter_runs ds (fun r ->
          not (covered r && Report.outcome_is_failure r.Report.outcome))
  | Relabel_failing ->
      {
        ds with
        Dataset.runs =
          Array.map
            (fun (r : Report.t) ->
              if covered r && Report.outcome_is_failure r.Report.outcome then
                { r with Report.outcome = Report.Success }
              else r)
            ds.Dataset.runs;
      }

type run_set = {
  counts : int list -> Counts.t;
  runs : unit -> int;
  failures : unit -> int;
  discard : discard -> int -> unit;
}

let dataset_runs ds =
  let current = ref ds in
  {
    counts = (fun _ -> Counts.compute !current);
    runs = (fun () -> Dataset.nruns !current);
    failures = (fun () -> Dataset.num_failures !current);
    discard = (fun discard pred -> current := apply_discard discard !current pred);
  }

let run_on ?(discard = Discard_all_true) ?(max_selections = 40) ?candidates ~initial rs =
  let candidates =
    match candidates with
    | Some c -> c
    | None -> (
        match discard with
        | Discard_all_true ->
            (* §5: under proposal (1), at most one of P and ¬P can ever have
               positive predictive power, so early pruning is safe. *)
            Prune.retained initial
        | Discard_failing_true | Relabel_failing ->
            (* §5: under proposals (2) and (3), a predicate with a negative
               Increase may be a strong predictor temporarily overshadowed by
               an anti-correlated predictor of a different bug, so keep every
               predicate that was ever true in a failing run. *)
            let acc = ref [] in
            for pred = initial.Counts.npreds - 1 downto 0 do
              if initial.Counts.f.(pred) > 0 then acc := pred :: !acc
            done;
            !acc)
  in
  let initial_scores = Hashtbl.create 64 in
  List.iter
    (fun pred -> Hashtbl.replace initial_scores pred (Scores.score initial ~pred))
    candidates;
  let rec loop acc candidates rank =
    let nfail = rs.failures () in
    if nfail = 0 || candidates = [] || rank > max_selections then (List.rev acc, candidates)
    else begin
      let counts = rs.counts candidates in
      (* Rank by Importance among predicates whose Increase is confidently
         positive on the *current* run set — under proposals (2)/(3) this is
         where a previously-overshadowed predicate can (re)enter. *)
      let best =
        List.fold_left
          (fun best pred ->
            if not (Prune.keep counts ~pred) then best
            else begin
              let sc = Scores.score counts ~pred in
              match best with
              | None -> Some sc
              | Some b -> if Scores.compare_importance_desc sc b < 0 then Some sc else Some b
            end)
          None candidates
      in
      match best with
      | None -> (List.rev acc, candidates)
      | Some sc when sc.Scores.importance <= 0. -> (List.rev acc, candidates)
      | Some sc ->
          let pred = sc.Scores.pred in
          let runs_before = rs.runs () in
          rs.discard discard pred;
          let selection =
            {
              rank;
              pred;
              initial = Hashtbl.find initial_scores pred;
              effective = sc;
              runs_before;
              failures_before = nfail;
              runs_discarded = runs_before - rs.runs ();
            }
          in
          let candidates = List.filter (fun p -> p <> pred) candidates in
          loop (selection :: acc) candidates (rank + 1)
    end
  in
  let selections, candidates_left = loop [] candidates 1 in
  {
    selections;
    runs_remaining = rs.runs ();
    failures_remaining = rs.failures ();
    candidates_remaining = List.length candidates_left;
  }

let run ?discard ?max_selections ?candidates ds =
  run_on ?discard ?max_selections ?candidates ~initial:(Counts.compute ds) (dataset_runs ds)

let selected_preds result = List.map (fun s -> s.pred) result.selections
