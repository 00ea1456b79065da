open Sbi_runtime

let default_domains () = max 1 (Domain.recommended_domain_count ())

(* Contiguous blocks: domain d executes runs [first + lo_d, first + hi_d).
   Because every collection path reseeds the sampler per run with
   Collect.run_seed, block boundaries (and hence the domain count) cannot
   change any report. *)
let blocks ~nruns ~workers =
  let workers = max 1 (min workers (max nruns 1)) in
  let per = nruns / workers and rem = nruns mod workers in
  List.init workers (fun d ->
      let lo = (d * per) + min d rem in
      let hi = lo + per + (if d < rem then 1 else 0) in
      (d, lo, hi))

(* The caller runs block 0 and [workers - 1] spawned domains run the
   rest: one spawn fewer, and one block on a domain that is already warm
   (a freshly spawned domain runs the same runs markedly slower).  Every
   spawned domain is joined before the first failure in block order is
   re-raised, so none outlives the call. *)
let spawn_blocks ?(seed = 0xc0ffee) ?(first_run = 0) ?domains spec ~nruns ~f =
  let workers = match domains with Some d when d > 0 -> d | _ -> default_domains () in
  let run (d, lo, hi) =
    f d (Collect.collect_reports ~seed ~first_run:(first_run + lo) spec ~nruns:(hi - lo))
  in
  let attempt g = try Ok (g ()) with e -> Error (e, Printexc.get_raw_backtrace ()) in
  let results =
    match blocks ~nruns ~workers with
    | [] -> []
    | first :: rest ->
        let spawned = List.map (fun b -> Domain.spawn (fun () -> run b)) rest in
        let mine = attempt (fun () -> run first) in
        mine :: List.map (fun d -> attempt (fun () -> Domain.join d)) spawned
  in
  List.map (function Ok r -> r | Error (e, bt) -> Printexc.raise_with_backtrace e bt) results

let collect ?seed ?first_run ?domains spec ~nruns =
  let chunks = spawn_blocks ?seed ?first_run ?domains spec ~nruns ~f:(fun _ rs -> rs) in
  Dataset.create ~transform:spec.Collect.transform (Array.concat chunks)

let collect_to_log ?seed ?first_run ?domains spec ~nruns ~dir =
  Shard_log.write_meta ~dir (Dataset.create ~transform:spec.Collect.transform [||]);
  spawn_blocks ?seed ?first_run ?domains spec ~nruns ~f:(fun shard reports ->
      let w = Shard_log.create_writer ~dir ~shard () in
      Array.iter (Shard_log.append w) reports;
      Shard_log.close_writer w)
  |> List.fold_left Shard_log.add_stats Shard_log.zero_stats
