(** Parallel feedback collection across OCaml 5 domains.

    Run indices are fanned out in contiguous blocks, one per domain: the
    calling domain runs the first block and [domains - 1] spawned ones
    run the rest.  When a run raises, every spawned domain is joined
    before the first exception (in block order) reaches the caller.  Each
    domain owns a private sampler, and every run's sampling stream is keyed
    by {!Sbi_runtime.Collect.run_seed} — a pure function of the collection
    seed and the run index — so the merged result is byte-identical to
    sequential {!Sbi_runtime.Collect.collect} for the same spec and seed,
    regardless of the domain count. *)

val default_domains : unit -> int
(** [Domain.recommended_domain_count], at least 1. *)

val collect :
  ?seed:int ->
  ?first_run:int ->
  ?domains:int ->
  Sbi_runtime.Collect.spec ->
  nruns:int ->
  Sbi_runtime.Dataset.t
(** Identical to sequential [Collect.collect ~seed ~first_run spec ~nruns];
    [domains] defaults to {!default_domains}. *)

val collect_to_log :
  ?seed:int ->
  ?first_run:int ->
  ?domains:int ->
  Sbi_runtime.Collect.spec ->
  nruns:int ->
  dir:string ->
  Shard_log.stats
(** The deployment path: writes meta, then each domain appends its block of
    reports to its own shard file (shard index = domain index), and the
    summed write stats are returned.  [Shard_log.read_all] on the resulting
    directory reproduces the sequential dataset exactly. *)
