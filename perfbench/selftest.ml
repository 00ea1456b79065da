(* Self-tests of the benchmark's own arithmetic and checks: the tail's
   sample count, self time, and that a deliberately wrong reply, status
   or ranking fails the check it is meant to fail.  Returns an exit code. *)

open Sbi_index

let failures = ref 0

let expect name ok =
  if ok then Printf.printf "ok   %s\n" name
  else begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

(* The tail figure's sample count: [Outcome.beyond] must count exactly
   the samples that lie above [Stats.percentile] at the same percentile,
   including at each workload's fewest samples. *)
let percentiles () =
  let above ~p n =
    let lat = Array.init n (fun i -> float_of_int (n - i)) in
    let v = Sbi_util.Stats.percentile lat p in
    Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 lat
  in
  List.iter
    (fun (p, n) ->
      expect (Printf.sprintf "beyond p%g of %d counts the samples above the tail" p n) (Outcome.beyond ~p n = above ~p n))
    [ (90., 110); (75., 2186); (90., 112); (99., 1255); (75., 100); (98., 1); (50., 4); (100., 7) ];
  expect "547 samples beyond p75 of 2186" (Outcome.beyond ~p:75. 2186 = 547);
  expect "12 samples beyond p90 of 112" (Outcome.beyond ~p:90. 112 = 12);
  expect "no samples beyond p100" (Outcome.beyond ~p:100. 50 = 0);
  expect "no samples, none beyond" (Outcome.beyond ~p:98. 0 = 0)

let mk id ~parent s e =
  { Spans.id; name = "x"; start_ns = s; end_ns = e; parent; req = 0; replayed = false }

let self_time () =
  let p = mk 0 ~parent:(-1) 0 100 in
  expect "self time with no children is the duration" (Spans.self_ns p [] = 100);
  expect "disjoint children subtract" (Spans.self_ns p [ mk 1 ~parent:0 10 20; mk 2 ~parent:0 30 50 ] = 70);
  expect "overlapping children count once" (Spans.self_ns p [ mk 1 ~parent:0 10 40; mk 2 ~parent:0 30 50 ] = 60);
  expect "children are clipped to the parent" (Spans.self_ns p [ mk 1 ~parent:0 90 150 ] = 90);
  expect "covering child leaves no self time" (Spans.self_ns p [ mk 1 ~parent:0 (-5) 200 ] = 0);
  (* replayed children move onto the start of their parent *)
  Spans.reset ();
  Spans.on := true;
  let _, root = Spans.time "rtt.test" (fun () -> Unix.sleepf 0.002) in
  Spans.replay_into ~parent:root (fun () ->
      Spans.span ~parent:root ~replayed:true "a" (fun () -> Unix.sleepf 0.0005);
      Spans.span ~parent:root ~replayed:true "b" (fun () -> Unix.sleepf 0.0005));
  let all = Spans.all () in
  let r = List.find (fun s -> s.Spans.id = root) all in
  let kids = Spans.children_of (Spans.children_table all) root in
  let first = List.fold_left (fun m s -> min m s.Spans.start_ns) max_int kids in
  expect "replayed children start at the parent's start" (first = r.Spans.start_ns);
  let self = Spans.self_ns r kids and sum = List.fold_left (fun a s -> a + s.Spans.end_ns - s.Spans.start_ns) 0 kids in
  expect "self time is duration minus replayed children"
    (self = r.Spans.end_ns - r.Spans.start_ns - sum);
  Spans.on := false;
  Spans.reset ()

let reply_checks ~work =
  let dir = Filename.concat work "selftest" in
  Procfs.fresh_dir dir;
  let log = Filename.concat dir "log" and idx_dir = Filename.concat dir "idx" in
  ignore (Sbi_corpus.Synth.generate ~seed:7 ~runs:3000 ~dir:log ());
  ignore (Index.build ~log ~dir:idx_dir ());
  let idx = Index.open_ ~dir:idx_dir in
  let snap = Index.snapshot idx in
  let pred = List.hd (Expect.ranked snap) in
  let good = Expect.affinity_reply idx ~pred ~k:10 (Expect.affinity_entries snap ~pred) in
  expect "affinity reply matches itself" (Expect.reply_matches ~expected:good (Ok good));
  let h, lines = good in
  let flip l = String.map (fun c -> if c = '0' then '1' else if c = '1' then '0' else c) l in
  let wrong = (h, flip (List.hd lines) :: List.tl lines) in
  expect "a wrong affinity score fails the check" (not (Expect.reply_matches ~expected:good (Ok wrong)));
  expect "an err reply fails the check" (not (Expect.reply_matches ~expected:good (Error "boom")));
  let top = Expect.topk_reply idx (Triage.Snap.topk ~k:10 snap) in
  let th, tl = top in
  expect "a reordered topk fails the check"
    (List.length tl < 2 || not (Expect.reply_matches ~expected:top (Ok (th, List.rev tl))));
  let ids = [ 5; 6; 7 ] in
  expect "all ok statuses count as acked" (Expect.batch_statuses ~ids (Ok ("", [ "ok 5"; "ok 6"; "ok 7" ])) = (3, 0));
  expect "a rejected status is a failure"
    (Expect.batch_statuses ~ids (Ok ("", [ "ok 5"; "err bad report"; "ok 7" ])) = (2, 1));
  expect "a wrong run id is a failure" (Expect.batch_statuses ~ids (Ok ("", [ "ok 5"; "ok 9"; "ok 7" ])) = (2, 1));
  expect "a short status list is a failure" (Expect.batch_statuses ~ids (Ok ("", [ "ok 5" ])) = (1, 2));
  expect "a failed batch fails every report" (Expect.batch_statuses ~ids (Error "timeout") = (0, 3));
  (* elimination against the reference engine, then a corrupted ranking *)
  let analysis = Triage.analyze idx in
  let ds, _ = Sbi_ingest.Shard_log.read_all ~dir:log in
  let reference = Sbi_core.Analysis.analyze ds in
  expect "index analysis equals Analysis.analyze" (Expect.analysis_matches analysis reference);
  let el = analysis.Triage.elimination in
  let swapped =
    match el.Sbi_core.Eliminate.selections with
    | a :: b :: rest -> { el with Sbi_core.Eliminate.selections = b :: a :: rest }
    | _ -> { el with Sbi_core.Eliminate.runs_remaining = el.Sbi_core.Eliminate.runs_remaining + 1 }
  in
  expect "a corrupted elimination fails the check"
    (not (Expect.analysis_matches { analysis with Triage.elimination = swapped } reference));
  expect "a corrupted retained set fails the check"
    (not (Expect.analysis_matches { analysis with Triage.retained = List.rev (-1 :: analysis.Triage.retained) } reference));
  Procfs.rm_rf dir

let run ~work =
  percentiles ();
  self_time ();
  reply_checks ~work;
  Printf.printf "%d failure(s)\n" !failures;
  if !failures = 0 then 0 else 1
