(* Expected answers, computed in this process from the same population the
   server holds, and the comparisons the checks make.

   The reply lines are rendered exactly as [Sbi_serve.Server] renders its
   [affinity] and [topk] responses, so a check is a string comparison:
   the same integers give the same %.6f scores. *)

open Sbi_index

let rec take n = function [] -> [] | _ when n = 0 -> [] | x :: r -> x :: take (n - 1) r
let pred_text idx p = Sbi_runtime.Dataset.pred_text idx.Index.meta p

(* The ranking a triager starts from: every predicate that survives
   Increase-CI pruning, best first. *)
let ranked snap =
  let c = Triage.Snap.counts snap in
  Triage.Snap.topk ~k:c.Sbi_core.Counts.npreds snap |> List.map (fun sc -> sc.Sbi_core.Scores.pred)

let affinity_entries snap ~pred =
  let retained = Sbi_core.Prune.retained (Triage.Snap.counts snap) in
  Triage.Snap.affinity snap ~selected:pred ~others:retained

let affinity_reply idx ~pred ~k entries =
  let lines =
    List.map
      (fun (e : Sbi_core.Affinity.entry) ->
        Printf.sprintf "%d %.6f %.6f %.6f %s" e.Sbi_core.Affinity.pred e.Sbi_core.Affinity.drop
          e.Sbi_core.Affinity.importance_before e.Sbi_core.Affinity.importance_after
          (pred_text idx e.Sbi_core.Affinity.pred))
      (take k entries)
  in
  (Printf.sprintf "affinity %d %d" pred (List.length lines), lines)

let topk_reply idx scores =
  let lines =
    List.mapi
      (fun i (sc : Sbi_core.Scores.t) ->
        Printf.sprintf "%d %d %.6f %.6f %d %d %s" (i + 1) sc.Sbi_core.Scores.pred
          sc.Sbi_core.Scores.importance sc.Sbi_core.Scores.increase sc.Sbi_core.Scores.f
          sc.Sbi_core.Scores.s (pred_text idx sc.Sbi_core.Scores.pred))
      scores
  in
  (Printf.sprintf "topk %d" (List.length lines), lines)

(* A framed reply against its expected (header, lines). *)
let reply_matches ~expected (got : Served.reply) =
  match got with Ok (h, lines) -> (h, lines) = expected | Error _ -> false

(* [ingest-batch] statuses: one "ok <run id>" per report, in order. *)
let batch_statuses ~ids (got : Served.reply) =
  match got with
  | Error _ -> (0, List.length ids)
  | Ok (_, lines) ->
      let rec go ok bad ids lines =
        match (ids, lines) with
        | [], [] -> (ok, bad)
        | id :: ids, l :: lines ->
            if l = "ok " ^ string_of_int id then go (ok + 1) bad ids lines else go ok (bad + 1) ids lines
        | ids, [] -> (ok, bad + List.length ids)
        | [], _ :: _ -> (ok, bad + 1)
      in
      go 0 0 ids lines

(* An index-backed analysis against the reference engine on the same
   runs: counts, retained set and the whole elimination record (every
   selection's scores included) must be equal. *)
let analysis_matches (a : Triage.analysis) (r : Sbi_core.Analysis.t) =
  let ca = a.Triage.counts and cr = r.Sbi_core.Analysis.counts in
  ca.Sbi_core.Counts.npreds = cr.Sbi_core.Counts.npreds
  && ca.Sbi_core.Counts.f = cr.Sbi_core.Counts.f
  && ca.Sbi_core.Counts.s = cr.Sbi_core.Counts.s
  && ca.Sbi_core.Counts.f_obs = cr.Sbi_core.Counts.f_obs
  && ca.Sbi_core.Counts.s_obs = cr.Sbi_core.Counts.s_obs
  && ca.Sbi_core.Counts.num_f = cr.Sbi_core.Counts.num_f
  && ca.Sbi_core.Counts.num_s = cr.Sbi_core.Counts.num_s
  && a.Triage.retained = r.Sbi_core.Analysis.retained
  && compare a.Triage.elimination r.Sbi_core.Analysis.elimination = 0
