(* Property tests over randomly generated MiniC programs.

   The generator produces crash-free programs (no arrays/null/division,
   bounded loops) with nested control flow over int and bool locals.
   Properties:
   - the pretty-printer is a fixed point under re-parsing,
   - execution is deterministic,
   - instrumentation + full observation does not perturb program semantics
     (same outcome, same output) — the transparency property a deployed
     monitoring system must have,
   - sparse sampling observes a subset of the fully-observed true
     predicates. *)
open Sbi_lang
open Sbi_instrument

(* --- generator: program text --- *)

type genv = { mutable nvars : int; mutable depth : int }

let gen_program : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* seed = int_range 0 1_000_000 in
  let rng = Sbi_util.Prng.create seed in
  let env = { nvars = 0; depth = 0 } in
  ignore env.depth;
  let buf = Buffer.create 256 in
  (* variables currently in scope (innermost last); restored at block exit *)
  let scope = ref [] in
  let fresh () =
    let v = Printf.sprintf "v%d" env.nvars in
    env.nvars <- env.nvars + 1;
    scope := v :: !scope;
    v
  in
  (* loop counters get names the generator never reassigns or reads, so the
     decrement is the only write and every loop terminates *)
  let fresh_counter () =
    let v = Printf.sprintf "c%d" env.nvars in
    env.nvars <- env.nvars + 1;
    v
  in
  let var () = Sbi_util.Prng.choice_list rng !scope in
  let have_vars () = !scope <> [] in
  let rec expr depth =
    if depth = 0 || not (have_vars ()) then
      if have_vars () && Sbi_util.Prng.bool rng then var ()
      else string_of_int (Sbi_util.Prng.int_in rng (-20) 20)
    else begin
      let op = Sbi_util.Prng.choice rng [| "+"; "-"; "*" |] in
      Printf.sprintf "(%s %s %s)" (expr (depth - 1)) op (expr (depth - 1))
    end
  in
  let bexpr () =
    let op = Sbi_util.Prng.choice rng [| "<"; "<="; ">"; ">="; "=="; "!=" |] in
    Printf.sprintf "%s %s %s" (expr 1) op (expr 1)
  in
  let indent n = String.make (2 * n) ' ' in
  let rec stmt level budget =
    if budget <= 0 then 0
    else begin
      let choice = Sbi_util.Prng.int rng 10 in
      if choice < 4 || not (have_vars ()) then begin
        (* build the initializer before declaring: a variable is not in
           scope inside its own initializer *)
        let init = expr 2 in
        let v = fresh () in
        Buffer.add_string buf (Printf.sprintf "%sint %s = %s;\n" (indent level) v init);
        1
      end
      else if choice < 7 then begin
        Buffer.add_string buf
          (Printf.sprintf "%s%s = %s;\n" (indent level) (var ()) (expr 2));
        1
      end
      else if choice < 9 && level < 3 then begin
        Buffer.add_string buf (Printf.sprintf "%sif (%s) {\n" (indent level) (bexpr ()));
        let used = block (level + 1) (budget - 1) in
        if Sbi_util.Prng.bool rng then begin
          Buffer.add_string buf (Printf.sprintf "%s} else {\n" (indent level));
          let used2 = block (level + 1) (budget - 1 - used) in
          Buffer.add_string buf (Printf.sprintf "%s}\n" (indent level));
          1 + used + used2
        end
        else begin
          Buffer.add_string buf (Printf.sprintf "%s}\n" (indent level));
          1 + used
        end
      end
      else if level < 3 then begin
        (* bounded loop via a fresh decreasing counter *)
        let c = fresh_counter () in
        Buffer.add_string buf
          (Printf.sprintf "%sint %s = %d;\n" (indent level) c (Sbi_util.Prng.int rng 6));
        Buffer.add_string buf (Printf.sprintf "%swhile (%s > 0) {\n" (indent level) c);
        Buffer.add_string buf (Printf.sprintf "%s%s = %s - 1;\n" (indent (level + 1)) c c);
        let used = block (level + 1) (budget - 2) in
        Buffer.add_string buf (Printf.sprintf "%s}\n" (indent level));
        2 + used
      end
      else begin
        Buffer.add_string buf
          (Printf.sprintf "%sprintln(to_str(%s));\n" (indent level) (expr 1));
        1
      end
    end
  and block level budget =
    (* variables declared inside the block go out of scope at its end *)
    let saved = !scope in
    let n = 1 + Sbi_util.Prng.int rng 3 in
    let rec go i used =
      if i = 0 || used >= budget then used else go (i - 1) (used + stmt level (budget - used))
    in
    let used = go n 0 in
    scope := saved;
    used
  in
  Buffer.add_string buf "int main() {\n";
  Buffer.add_string buf "  int v_root = 1;\n";
  env.nvars <- env.nvars + 1;
  scope := [ "v_root" ];
  ignore (block 1 (8 + Sbi_util.Prng.int rng 12));
  Buffer.add_string buf "  println(to_str(";
  Buffer.add_string buf (if have_vars () then var () else "0");
  Buffer.add_string buf "));\n  return 0;\n}\n";
  return (Buffer.contents buf)

let run_src ?(hooks = Interp.no_hooks) src =
  let prog = Check.check_string src in
  Interp.run prog { Interp.default_config with Interp.hooks; fuel = 1_000_000 }

let qcheck_pretty_fixed_point =
  QCheck2.Test.make ~name:"generated programs: pretty is a re-parse fixed point" ~count:60
    gen_program (fun src ->
      let p1 = Parser.parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 = Parser.parse printed in
      String.equal printed (Pretty.program_to_string p2))

let qcheck_checks_and_finishes =
  QCheck2.Test.make ~name:"generated programs: check and finish cleanly" ~count:60 gen_program
    (fun src ->
      match (run_src src).Interp.outcome with Interp.Finished _ -> true | _ -> false)

let qcheck_deterministic =
  QCheck2.Test.make ~name:"generated programs: deterministic output" ~count:40 gen_program
    (fun src -> String.equal (run_src src).Interp.output (run_src src).Interp.output)

let qcheck_instrumentation_transparent =
  QCheck2.Test.make
    ~name:"generated programs: full observation does not perturb semantics" ~count:40
    gen_program (fun src ->
      let plain = run_src src in
      let prog = Check.check_string src in
      let t = Transform.instrument prog in
      let observed = ref 0 in
      let hooks =
        Observe.hooks t
          ~visit:(fun _ -> true)
          ~record:(fun _ _ -> incr observed)
      in
      let monitored = Interp.run prog { Interp.default_config with Interp.hooks } in
      String.equal plain.Interp.output monitored.Interp.output
      && plain.Interp.steps = monitored.Interp.steps
      &&
      match (plain.Interp.outcome, monitored.Interp.outcome) with
      | Interp.Finished a, Interp.Finished b -> Value.equal a b
      | _ -> false)

let qcheck_sampling_subset =
  QCheck2.Test.make ~name:"generated programs: sampled truths are a subset of full" ~count:30
    gen_program (fun src ->
      let prog = Check.check_string src in
      let t = Transform.instrument prog in
      let collect plan seed =
        let spec =
          Sbi_runtime.Collect.make_spec ~transform:t ~plan ~gen_input:(fun _ -> [||]) ()
        in
        let sampler = Sampler.create ~seed ~nsites:(Transform.num_sites t) plan in
        let report, _ = Sbi_runtime.Collect.run_one spec ~sampler ~run_index:0 in
        report
      in
      let full = collect Sampler.Always 1 in
      let sampled = collect (Sampler.Uniform 0.3) 2 in
      Array.for_all
        (fun p -> Sbi_runtime.Report.is_true full p)
        sampled.Sbi_runtime.Report.true_preds)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_pretty_fixed_point;
    QCheck_alcotest.to_alcotest qcheck_checks_and_finishes;
    QCheck_alcotest.to_alcotest qcheck_deterministic;
    QCheck_alcotest.to_alcotest qcheck_instrumentation_transparent;
    QCheck_alcotest.to_alcotest qcheck_sampling_subset;
  ]
