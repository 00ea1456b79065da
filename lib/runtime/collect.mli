(** Collection driver: executes an instrumented program on many generated
    inputs and assembles the feedback-report dataset.

    This is the reproduction's stand-in for the paper's deployment: each
    "user run" is an interpreter execution on a generated input, sampled
    according to the given plan, labelled success/failure by crash
    detection or by a caller-supplied oracle (the paper's MOSS output
    oracle for the non-crashing bug #9). *)

type spec = {
  transform : Sbi_instrument.Transform.t;
  plan : Sbi_instrument.Sampler.plan;
  gen_input : int -> string array;
      (** deterministic input generator, keyed by run index *)
  oracle : (run_index:int -> args:string array -> Sbi_lang.Interp.result -> bool) option;
      (** extra failure test for non-crashing runs: returns [true] when the
          run should be labelled a failure (e.g. wrong output).  Crashes are
          always failures regardless. *)
  fuel : int;
  nondet_salt : int;
      (** mixed with the run index to seed each run's [nondet] stream *)
  compiled : Sbi_lang.Vm.program Lazy.t;
      (** the bytecode, compiled on demand.  Collection always runs the
          tree-walking {!Sbi_lang.Interp}; this is for callers that time or
          test the VM on the same program.  Force it before sharing the
          spec across domains ([Lazy.force] must not race). *)
}

val make_spec :
  ?oracle:(run_index:int -> args:string array -> Sbi_lang.Interp.result -> bool) ->
  ?fuel:int ->
  ?nondet_salt:int ->
  transform:Sbi_instrument.Transform.t ->
  plan:Sbi_instrument.Sampler.plan ->
  gen_input:(int -> string array) ->
  unit ->
  spec

val run_one :
  spec ->
  sampler:Sbi_instrument.Sampler.t ->
  run_index:int ->
  Report.t * Sbi_lang.Interp.result
(** Executes a single monitored run (also used by training and tests).
    Each sampled observation ORs its truth mask into its site's slot of
    the calling domain's accumulator and bumps the counts of the
    predicates the mask holds, allocating nothing.  The accumulator is
    reused across the domain's runs: a stamp per run marks which slots
    are current, so nothing is cleared between runs, and the report's
    sorted ids come from one scan of the stamps at run end. *)

val run_seed : seed:int -> run_index:int -> int
(** The per-run sampling key: a splitmix64-style mix of the collection seed
    and the run index.  Every collection path (sequential or parallel)
    reseeds its sampler with this key before each run, so a run's report
    depends only on [(spec, seed, run_index)] — never on which runs were
    executed before it or on which domain executed it. *)

val collect : ?seed:int -> ?first_run:int -> spec -> nruns:int -> Dataset.t
(** [collect spec ~nruns] executes runs [first_run .. first_run+nruns-1].
    [seed] seeds the sampling coin flips only (re-keyed per run via
    {!run_seed}); program inputs come from [gen_input] and in-program
    nondeterminism from [nondet_salt], so the same spec yields the same
    dataset — in any execution order. *)

val collect_reports :
  ?seed:int -> ?first_run:int -> spec -> nruns:int -> Report.t array
(** Like {!collect} but returns the raw reports without building the
    dataset tables (the parallel-collection building block: each worker
    collects a contiguous block of run indices). *)

val run_uninstrumented :
  spec -> run_index:int -> Sbi_lang.Interp.result
(** Executes a run with no observation at all (oracle runs, baselines,
    overhead benchmarks). *)
