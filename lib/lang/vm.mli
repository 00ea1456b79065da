(** Bytecode compiler and virtual machine for MiniC.

    A second implementation of the tree-walking {!Interp}, kept as its
    differential-test oracle: same configuration, same result type, same
    observation hooks, same crash taxonomy, and — by construction and by
    differential test — the same output, outcome, step count, and hook
    event stream for every program.  Collection runs only {!Interp};
    [test/test_vm.ml] holds the two to the same behaviour, and perfbench's
    [runtime.bare_run_us] probe times the VM bare.

    The machine is a conventional stack VM: one flat instruction array per
    function, explicit operand stack, locals in a frame array, calls by
    OCaml recursion (mirroring the interpreter's depth accounting). *)

type instr =
  (* constants & variables *)
  | IPushInt of int
  | IPushBool of bool
  | IPushStr of string
  | IPushNull
  | IPushUnit
  | ILoadLocal of int
  | IStoreLocal of int
  | ILoadGlobal of int
  | IStoreGlobal of int
  | IPop
  (* arithmetic / logic (int-typed unless noted) *)
  | IAddInt
  | IAddStr
  | ISub
  | IMul
  | IDiv
  | IMod
  | INeg
  | INot
  | IEqVal  (** generic equality, reference semantics for heap values *)
  | INeqVal
  | ILt
  | ILe
  | IGt
  | IGe
  (* control *)
  | IJmp of int
  | IJmpIfNot of int  (** pops; jumps when false *)
  | IJmpIf of int  (** pops; jumps when true *)
  | ICall of int * int  (** function id, arity *)
  | ICallBuiltin of Rast.builtin * int
  | IRet
  (* heap *)
  | INewArray of Ast.ty
  | INewStruct of int
  | ILoadIndex
  | IStoreIndex  (** stack: arr, idx, value *)
  | ILoadField of int
  | IStoreField of int  (** stack: obj, value *)
  (* accounting, mirroring the interpreter's fuel/step discipline *)
  | ITickStmt  (** statement boundary: burns fuel, counts a step *)
  | ITickLoop  (** loop iteration test: burns fuel only *)
  (* observation hooks *)
  | IObsBranch of int  (** sid; peeks the condition *)
  | IObsCond of int  (** eid; peeks a short-circuit operand *)
  | IObsAssign of { sid : int; lhs : Rast.var_ref; has_old : bool }
      (** after a scalar store; pops the saved old value when [has_old] *)
  | IObsCallRet of int  (** sid; peeks an int call result *)

type func = {
  code : instr array;
  locs : Loc.t array;  (** source location per instruction (for crashes) *)
  nslots : int;
  name : string;
}

type program = {
  funcs : func array;
  globals_init : func;  (** synthetic body executing global initializers *)
  rprog : Rast.rprog;
}

val compile : Rast.rprog -> program
(** Compile every function (and the global initializers). *)

val run_compiled : program -> Interp.config -> Interp.result
(** Execute with the same semantics as {!Interp.run}. *)

val run : Rast.rprog -> Interp.config -> Interp.result
(** [compile] + [run_compiled]. *)
