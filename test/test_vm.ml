(* Bytecode VM tests: unit semantics plus differential testing against the
   tree-walking interpreter — outcomes, output, step counts, ground-truth
   bugs, crash stacks, and the full observation-hook event stream must all
   be identical. *)
open Sbi_lang

let run_vm ?(config = Interp.default_config) src = Vm.run (Check.check_string src) config

let finished_int r =
  match r.Interp.outcome with
  | Interp.Finished (Value.VInt n) -> n
  | _ -> Alcotest.fail "expected int result"

let test_vm_basics () =
  Alcotest.(check int) "arith" 17 (finished_int (run_vm "int main() { return 2 + 3 * 5; }"));
  Alcotest.(check int) "locals" 7
    (finished_int (run_vm "int main() { int a = 3; int b = 4; return a + b; }"));
  Alcotest.(check int) "globals" 5
    (finished_int (run_vm "int g = 2; int main() { g = g + 3; return g; }"));
  Alcotest.(check int) "call" 120
    (finished_int
       (run_vm
          "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); } int main() { return fact(5); }"));
  let r = run_vm {|int main() { println("hi " + to_str(2)); return 0; }|} in
  Alcotest.(check string) "output" "hi 2\n" r.Interp.output

let test_vm_control_flow () =
  Alcotest.(check int) "while" 45
    (finished_int
       (run_vm "int main() { int s = 0; int i = 0; while (i < 10) { s = s + i; i = i + 1; } return s; }"));
  Alcotest.(check int) "for with break/continue" 9
    (finished_int
       (run_vm
          "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } if (i > 6) { break; } s = s + i; } return s; }"));
  Alcotest.(check int) "nested loops with break" 6
    (finished_int
       (run_vm
          "int main() { int s = 0; for (int i = 0; i < 3; i = i + 1) { for (int j = 0; j < 5; j = j + 1) { if (j > 1) { break; } s = s + 1; } } return s; }"));
  Alcotest.(check int) "short-circuit" 1
    (finished_int
       (run_vm "int main() { int[] a = null; if (false && a[0] == 1) { return 0; } return 1; }"))

let test_vm_heap () =
  Alcotest.(check int) "arrays and structs" 6
    (finished_int
       (run_vm
          {|struct N { int v; N next; }
            int main() {
              N a = new N; a.v = 1;
              N b = new N; b.v = 2; a.next = b;
              int[] xs = new int[2]; xs[0] = 3;
              return a.v + a.next.v + xs[0];
            }|}))

let test_vm_crashes () =
  let kind src =
    match (run_vm src).Interp.outcome with
    | Interp.Crashed c -> c.Interp.kind
    | _ -> Alcotest.fail "expected crash"
  in
  (match kind "int main() { int[] a = null; return a[0]; }" with
  | Interp.Null_deref -> ()
  | _ -> Alcotest.fail "null deref");
  (match kind "int main() { int z = 0; return 1 / z; }" with
  | Interp.Div_by_zero -> ()
  | _ -> Alcotest.fail "div by zero");
  match kind "int f(int n) { return f(n + 1); } int main() { return f(0); }" with
  | Interp.Stack_overflow -> ()
  | _ -> Alcotest.fail "stack overflow"

let test_vm_crash_stack () =
  let r = run_vm "void c() { int[] a = null; a[0] = 1; } void b() { c(); } int main() { b(); return 0; }" in
  match r.Interp.outcome with
  | Interp.Crashed crash ->
      Alcotest.(check (list string)) "stack" [ "c"; "b"; "main" ] crash.Interp.stack
  | _ -> Alcotest.fail "expected crash"

(* --- differential testing --- *)

type hook_event =
  | HBranch of int * bool
  | HAssign of int * Value.t option
  | HCallRet of int * Value.t
  | HCond of int * bool

let recording_hooks events =
  {
    Interp.on_branch = (fun ~sid b -> events := HBranch (sid, b) :: !events);
    on_scalar_assign =
      (fun ~sid ~lhs:_ ~old_value ~read:_ -> events := HAssign (sid, old_value) :: !events);
    on_call_result = (fun ~sid v -> events := HCallRet (sid, v) :: !events);
    on_cond_operand = (fun ~eid b -> events := HCond (eid, b) :: !events);
  }

let outcomes_agree a b =
  match (a.Interp.outcome, b.Interp.outcome) with
  | Interp.Finished x, Interp.Finished y -> Value.equal x y
  | Interp.Crashed x, Interp.Crashed y ->
      x.Interp.kind = y.Interp.kind
      && x.Interp.crash_fn = y.Interp.crash_fn
      && x.Interp.stack = y.Interp.stack
  | _ -> false

let differential ?(config = Interp.default_config) prog =
  let ev_a = ref [] and ev_b = ref [] in
  let ra = Interp.run prog { config with Interp.hooks = recording_hooks ev_a } in
  let rb = Vm.run prog { config with Interp.hooks = recording_hooks ev_b } in
  outcomes_agree ra rb
  && String.equal ra.Interp.output rb.Interp.output
  && ra.Interp.steps = rb.Interp.steps
  && ra.Interp.bugs_triggered = rb.Interp.bugs_triggered
  && ra.Interp.events = rb.Interp.events
  && !ev_a = !ev_b

let qcheck_differential_generated =
  QCheck2.Test.make ~name:"VM and interpreter agree on generated programs" ~count:80
    Test_gen.gen_program (fun src -> differential (Check.check_string src))

let test_differential_corpus () =
  List.iter
    (fun (study : Sbi_corpus.Study.t) ->
      let prog = Sbi_corpus.Study.checked study in
      let compiled = Vm.compile prog in
      for run = 0 to 14 do
        let args = study.Sbi_corpus.Study.gen_input ~seed:21 ~run in
        let config =
          { Interp.default_config with Interp.args; nondet_seed = run + 99 }
        in
        let ra = Interp.run prog config in
        let rb = Vm.run_compiled compiled config in
        if not (outcomes_agree ra rb) then
          Alcotest.failf "%s run %d: outcome mismatch" study.Sbi_corpus.Study.name run;
        Alcotest.(check string)
          (Printf.sprintf "%s run %d output" study.Sbi_corpus.Study.name run)
          ra.Interp.output rb.Interp.output;
        Alcotest.(check int)
          (Printf.sprintf "%s run %d steps" study.Sbi_corpus.Study.name run)
          ra.Interp.steps rb.Interp.steps;
        Alcotest.(check (list int))
          (Printf.sprintf "%s run %d bugs" study.Sbi_corpus.Study.name run)
          ra.Interp.bugs_triggered rb.Interp.bugs_triggered
      done)
    Sbi_corpus.Corpus.all

let test_differential_hooks_on_corpus () =
  let study = Sbi_corpus.Corpus.exifim in
  let prog = Sbi_corpus.Study.checked study in
  for run = 0 to 9 do
    let args = study.Sbi_corpus.Study.gen_input ~seed:33 ~run in
    let ok =
      differential ~config:{ Interp.default_config with Interp.args; nondet_seed = run } prog
    in
    Alcotest.(check bool) (Printf.sprintf "hook streams agree (run %d)" run) true ok
  done

let test_vm_instrumented_collection () =
  (* end-to-end: a dataset collected by observing VM runs equals one
     collected from interpreter runs *)
  let study = Sbi_corpus.Corpus.bcim in
  let prog = Sbi_corpus.Study.checked study in
  let t = Sbi_instrument.Transform.instrument prog in
  let compiled = Vm.compile prog in
  let collect_with runner =
    let acc = ref [] in
    for run = 0 to 19 do
      let masks = ref [] in
      let hooks =
        Sbi_instrument.Observe.hooks t
          ~visit:(fun _ -> true)
          ~record:(fun site mask -> masks := (site, mask) :: !masks)
      in
      let args = study.Sbi_corpus.Study.gen_input ~seed:5 ~run in
      let _ = runner { Interp.default_config with Interp.args; hooks } in
      acc := List.rev !masks :: !acc
    done;
    List.rev !acc
  in
  let from_interp = collect_with (fun cfg -> Interp.run prog cfg) in
  let from_vm = collect_with (fun cfg -> Vm.run_compiled compiled cfg) in
  Alcotest.(check bool) "streams observe something" true (List.exists (( <> ) []) from_interp);
  Alcotest.(check bool) "identical observation streams" true (from_interp = from_vm)

let test_corpus_compiles () =
  List.iter
    (fun (study : Sbi_corpus.Study.t) ->
      let p = Vm.compile (Sbi_corpus.Study.checked study) in
      Array.iter
        (fun (fn : Vm.func) ->
          Alcotest.(check bool)
            (study.Sbi_corpus.Study.name ^ "/" ^ fn.Vm.name ^ " nonempty")
            true
            (Array.length fn.Vm.code >= 2);
          (* every function ends in ret and every jump target is in range *)
          Alcotest.(check bool) "ends with ret" true
            (fn.Vm.code.(Array.length fn.Vm.code - 1) = Vm.IRet);
          Array.iter
            (fun instr ->
              match instr with
              | Vm.IJmp t | Vm.IJmpIf t | Vm.IJmpIfNot t ->
                  Alcotest.(check bool) "jump in range" true
                    (t >= 0 && t <= Array.length fn.Vm.code)
              | _ -> ())
            fn.Vm.code)
        p.Vm.funcs)
    Sbi_corpus.Corpus.all

let suite =
  [
    Alcotest.test_case "vm basics" `Quick test_vm_basics;
    Alcotest.test_case "vm control flow" `Quick test_vm_control_flow;
    Alcotest.test_case "vm heap" `Quick test_vm_heap;
    Alcotest.test_case "vm crash kinds" `Quick test_vm_crashes;
    Alcotest.test_case "vm crash stack" `Quick test_vm_crash_stack;
    Alcotest.test_case "corpus compiles to valid bytecode" `Quick test_corpus_compiles;
    QCheck_alcotest.to_alcotest qcheck_differential_generated;
    Alcotest.test_case "differential: corpus programs" `Quick test_differential_corpus;
    Alcotest.test_case "differential: hook streams" `Quick test_differential_hooks_on_corpus;
    Alcotest.test_case "differential: instrumented collection" `Quick test_vm_instrumented_collection;
  ]
