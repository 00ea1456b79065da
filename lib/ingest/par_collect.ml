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

let spawn_blocks ?(seed = 0xc0ffee) ?(first_run = 0) ?domains spec ~nruns ~f =
  let workers = match domains with Some d when d > 0 -> d | _ -> default_domains () in
  blocks ~nruns ~workers
  |> List.map (fun (d, lo, hi) ->
         Domain.spawn (fun () ->
             f d
               (Collect.collect_reports ~seed ~first_run:(first_run + lo) spec
                  ~nruns:(hi - lo))))
  |> List.map Domain.join

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
