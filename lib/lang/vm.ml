open Rast
open Value
open Interp_error

type instr =
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
  | IAddInt
  | IAddStr
  | ISub
  | IMul
  | IDiv
  | IMod
  | INeg
  | INot
  | IEqVal
  | INeqVal
  | ILt
  | ILe
  | IGt
  | IGe
  | IJmp of int
  | IJmpIfNot of int
  | IJmpIf of int
  | ICall of int * int
  | ICallBuiltin of Rast.builtin * int
  | IRet
  | INewArray of Ast.ty
  | INewStruct of int
  | ILoadIndex
  | IStoreIndex
  | ILoadField of int
  | IStoreField of int
  | ITickStmt
  | ITickLoop
  | IObsBranch of int
  | IObsCond of int
  | IObsAssign of { sid : int; lhs : Rast.var_ref; has_old : bool }
  | IObsCallRet of int

type func = {
  code : instr array;
  locs : Loc.t array;
  nslots : int;
  name : string;
}

type program = {
  funcs : func array;
  globals_init : func;
  rprog : Rast.rprog;
}

(* --- compiler --- *)

type emitter = {
  mutable instrs : (instr * Loc.t) list;  (* reversed *)
  mutable len : int;
}

let emit em loc i =
  em.instrs <- (i, loc) :: em.instrs;
  em.len <- em.len + 1

(* emit a placeholder jump; returns its index for backpatching *)
let emit_jump em loc mk =
  let at = em.len in
  emit em loc (mk (-1));
  at

let here em = em.len

let finish em ~nslots ~name =
  let code = Array.make em.len IPop in
  let locs = Array.make (max em.len 1) Loc.dummy in
  List.iteri
    (fun i (instr, loc) ->
      let idx = em.len - 1 - i in
      code.(idx) <- instr;
      locs.(idx) <- loc)
    em.instrs;
  { code; locs; nslots; name }

let default_push ty =
  match ty with
  | Ast.TInt -> IPushInt 0
  | Ast.TBool -> IPushBool false
  | Ast.TString -> IPushStr ""
  | Ast.TVoid -> IPushUnit
  | Ast.TStruct _ | Ast.TArray _ -> IPushNull

type loop_ctx = { mutable breaks : int list; continue_target : int option ref }

(* for-loop continues recorded before the step position is known *)
let pending_continues : (loop_ctx * int) list ref = ref []

let rec compile_expr em (e : rexpr) =
  let loc = e.rloc in
  match e.re with
  | RInt n -> emit em loc (IPushInt n)
  | RBool b -> emit em loc (IPushBool b)
  | RStr s -> emit em loc (IPushStr s)
  | RNull -> emit em loc IPushNull
  | RVar (RLocal i, _) -> emit em loc (ILoadLocal i)
  | RVar (RGlobal i, _) -> emit em loc (ILoadGlobal i)
  | RUnop (Ast.Neg, inner) ->
      compile_expr em inner;
      emit em loc INeg
  | RUnop (Ast.Not, inner) ->
      compile_expr em inner;
      emit em loc INot
  | RBinop (Ast.And, l, r) ->
      compile_expr em l;
      emit em l.rloc (IObsCond l.reid);
      let jfalse = emit_jump em loc (fun t -> IJmpIfNot t) in
      compile_expr em r;
      emit em r.rloc (IObsCond r.reid);
      let jend = emit_jump em loc (fun t -> IJmp t) in
      let lfalse = here em in
      emit em loc (IPushBool false);
      let lend = here em in
      backpatch em jfalse lfalse;
      backpatch em jend lend
  | RBinop (Ast.Or, l, r) ->
      compile_expr em l;
      emit em l.rloc (IObsCond l.reid);
      let jtrue = emit_jump em loc (fun t -> IJmpIf t) in
      compile_expr em r;
      emit em r.rloc (IObsCond r.reid);
      let jend = emit_jump em loc (fun t -> IJmp t) in
      let ltrue = here em in
      emit em loc (IPushBool true);
      let lend = here em in
      backpatch em jtrue ltrue;
      backpatch em jend lend
  | RBinop (op, l, r) ->
      compile_expr em l;
      compile_expr em r;
      let i =
        match op with
        | Ast.Add -> if Ast.ty_equal l.rty Ast.TString then IAddStr else IAddInt
        | Ast.Sub -> ISub
        | Ast.Mul -> IMul
        | Ast.Div -> IDiv
        | Ast.Mod -> IMod
        | Ast.Eq -> IEqVal
        | Ast.Neq -> INeqVal
        | Ast.Lt -> ILt
        | Ast.Le -> ILe
        | Ast.Gt -> IGt
        | Ast.Ge -> IGe
        | Ast.And | Ast.Or -> assert false
      in
      emit em loc i
  | RCall (CUser (fid, _), args) ->
      List.iter (compile_expr em) args;
      emit em loc (ICall (fid, List.length args))
  | RCall (CBuiltin b, args) ->
      List.iter (compile_expr em) args;
      emit em loc (ICallBuiltin (b, List.length args))
  | RIndex (arr, idx) ->
      compile_expr em arr;
      compile_expr em idx;
      emit em loc ILoadIndex
  | RField (obj, off, _) ->
      compile_expr em obj;
      emit em loc (ILoadField off)
  | RNewArray (elem, len) ->
      compile_expr em len;
      emit em loc (INewArray elem)
  | RNewStruct sid -> emit em loc (INewStruct sid)

(* Backpatching works on the reversed list: rewrite the instruction emitted
   at absolute index [at]. *)
and backpatch em at target =
  let from_end = em.len - 1 - at in
  em.instrs <-
    List.mapi
      (fun i (instr, loc) ->
        if i <> from_end then (instr, loc)
        else
          match instr with
          | IJmp _ -> (IJmp target, loc)
          | IJmpIfNot _ -> (IJmpIfNot target, loc)
          | IJmpIf _ -> (IJmpIf target, loc)
          | _ -> assert false)
      em.instrs

let is_int_ty ty = Ast.ty_equal ty Ast.TInt

let rec compile_stmt em loops (st : rstmt) =
  let loc = st.rsloc in
  emit em loc ITickStmt;
  match st.rs with
  | RDecl (ty, slot, _, init) ->
      (match init with
      | Some e -> compile_expr em e
      | None -> emit em loc (default_push ty));
      emit em loc (IStoreLocal slot);
      if is_int_ty ty && init <> None then
        emit em loc (IObsAssign { sid = st.rsid; lhs = RLocal slot; has_old = false })
  | RAssign (lty, RLVar (ref_, _), rhs) ->
      let hook = is_int_ty lty in
      if hook then
        emit em loc (match ref_ with RLocal i -> ILoadLocal i | RGlobal i -> ILoadGlobal i);
      compile_expr em rhs;
      emit em loc (match ref_ with RLocal i -> IStoreLocal i | RGlobal i -> IStoreGlobal i);
      if hook then emit em loc (IObsAssign { sid = st.rsid; lhs = ref_; has_old = true })
  | RAssign (_, RLIndex (arr, idx), rhs) ->
      compile_expr em arr;
      compile_expr em idx;
      compile_expr em rhs;
      emit em loc IStoreIndex
  | RAssign (_, RLField (obj, off, _), rhs) ->
      compile_expr em obj;
      compile_expr em rhs;
      emit em loc (IStoreField off)
  | RExpr e -> (
      compile_expr em e;
      match (e.re, e.rty) with
      | RCall _, Ast.TInt ->
          emit em loc (IObsCallRet st.rsid);
          emit em loc IPop
      | _ -> emit em loc IPop)
  | RIf (cond, then_b, else_b) ->
      compile_expr em cond;
      emit em loc (IObsBranch st.rsid);
      let jelse = emit_jump em loc (fun t -> IJmpIfNot t) in
      compile_block em loops then_b;
      let jend = emit_jump em loc (fun t -> IJmp t) in
      backpatch em jelse (here em);
      compile_block em loops else_b;
      backpatch em jend (here em)
  | RWhile (cond, body) ->
      let ltop = here em in
      emit em loc ITickLoop;
      compile_expr em cond;
      emit em loc (IObsBranch st.rsid);
      let jend = emit_jump em loc (fun t -> IJmpIfNot t) in
      let ctx = { breaks = []; continue_target = ref (Some ltop) } in
      compile_block em (ctx :: loops) body;
      emit em loc (IJmp ltop);
      let lend = here em in
      backpatch em jend lend;
      List.iter (fun at -> backpatch em at lend) ctx.breaks
  | RFor (init, cond, step, body) ->
      compile_stmt em loops init;
      let ltop = here em in
      emit em loc ITickLoop;
      compile_expr em cond;
      emit em loc (IObsBranch st.rsid);
      let jend = emit_jump em loc (fun t -> IJmpIfNot t) in
      (* continue jumps to the step statement, whose position is only known
         after the body is compiled *)
      let cont = ref None in
      let ctx = { breaks = []; continue_target = cont } in
      compile_block em (ctx :: loops) body;
      let lstep = here em in
      cont := Some lstep;
      compile_stmt em loops step;
      emit em loc (IJmp ltop);
      let lend = here em in
      backpatch em jend lend;
      List.iter (fun at -> backpatch em at lend) ctx.breaks;
      patch_continues em ctx lstep
  | RReturn None ->
      emit em loc IPushUnit;
      emit em loc IRet
  | RReturn (Some e) ->
      compile_expr em e;
      emit em loc IRet
  | RBreak -> (
      match loops with
      | ctx :: _ ->
          let at = emit_jump em loc (fun t -> IJmp t) in
          ctx.breaks <- at :: ctx.breaks
      | [] -> assert false)
  | RContinue -> (
      match loops with
      | ctx :: _ -> (
          match !(ctx.continue_target) with
          | Some target -> emit em loc (IJmp target)
          | None ->
              (* for-loop: the step position is unknown until the body is
                 compiled; record for patching *)
              let at = emit_jump em loc (fun t -> IJmp t) in
              pending_continues := (ctx, at) :: !pending_continues)
      | [] -> assert false)
  | RBlockS body -> compile_block em loops body

and compile_block em loops body = List.iter (compile_stmt em loops) body

and patch_continues em ctx lstep =
  let mine, rest = List.partition (fun (c, _) -> c == ctx) !pending_continues in
  pending_continues := rest;
  List.iter (fun (_, at) -> backpatch em at lstep) mine

let compile_func (fn : rfunc) =
  let em = { instrs = []; len = 0 } in
  compile_block em [] fn.rf_body;
  (* fall off the end: return the default of the return type *)
  emit em fn.rf_loc (default_push fn.rf_ret);
  emit em fn.rf_loc IRet;
  finish em ~nslots:fn.rf_nslots ~name:fn.rf_name

let compile_globals (prog : rprog) =
  let em = { instrs = []; len = 0 } in
  Array.iteri
    (fun i (_, _, init) ->
      match init with
      | Some e ->
          compile_expr em e;
          emit em e.rloc (IStoreGlobal i)
      | None -> ())
    prog.rp_globals;
  emit em Loc.dummy IPushUnit;
  emit em Loc.dummy IRet;
  finish em ~nslots:0 ~name:"<globals>"

let compile prog =
  {
    funcs = Array.map compile_func prog.rp_funcs;
    globals_init = compile_globals prog;
    rprog = prog;
  }

(* --- virtual machine --- *)

type vm = {
  prog : program;
  cfg : Interp.config;
  globals : Value.t array;
  ctx : Builtins.ctx;
  mutable fuel_left : int;
  mutable steps : int;
  mutable depth : int;
  mutable names : string list;
  (* shared operand stack across all frames; each call owns the region
     above its base *)
  mutable stack : Value.t array;
  mutable sp : int;
}

let vm_as_int loc = function
  | VInt n -> n
  | v -> crash (Aborted ("internal: expected int, got " ^ type_name v)) loc

let vm_as_bool loc = function
  | VBool b -> b
  | v -> crash (Aborted ("internal: expected bool, got " ^ type_name v)) loc

let vm_as_str loc = function
  | VStr s -> s
  | v -> crash (Aborted ("internal: expected string, got " ^ type_name v)) loc

let rec exec_func vm (fn : func) (frame : Value.t array) : Value.t =
  let code = fn.code in
  let locs = fn.locs in
  let push v =
    if vm.sp >= Array.length vm.stack then begin
      let bigger = Array.make (2 * Array.length vm.stack) VUnit in
      Array.blit vm.stack 0 bigger 0 vm.sp;
      vm.stack <- bigger
    end;
    Array.unsafe_set vm.stack vm.sp v;
    vm.sp <- vm.sp + 1
  in
  let pop () =
    vm.sp <- vm.sp - 1;
    Array.unsafe_get vm.stack vm.sp
  in
  let peek () = Array.unsafe_get vm.stack (vm.sp - 1) in
  let read_var = function
    | RGlobal i -> vm.globals.(i)
    | RLocal i -> frame.(i)
  in
  let pc = ref 0 in
  let result = ref None in
  while !result == None do
    let loc = Array.unsafe_get locs !pc in
    let next = !pc + 1 in
    (match Array.unsafe_get code !pc with
    | IPushInt n ->
        push (VInt n);
        pc := next
    | IPushBool b ->
        push (VBool b);
        pc := next
    | IPushStr s ->
        push (VStr s);
        pc := next
    | IPushNull ->
        push VNull;
        pc := next
    | IPushUnit ->
        push VUnit;
        pc := next
    | ILoadLocal i ->
        push frame.(i);
        pc := next
    | IStoreLocal i ->
        frame.(i) <- pop ();
        pc := next
    | ILoadGlobal i ->
        push vm.globals.(i);
        pc := next
    | IStoreGlobal i ->
        vm.globals.(i) <- pop ();
        pc := next
    | IPop ->
        ignore (pop ());
        pc := next
    | IAddInt ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VInt (l + r));
        pc := next
    | IAddStr ->
        let r = vm_as_str loc (pop ()) in
        let l = vm_as_str loc (pop ()) in
        push (VStr (l ^ r));
        pc := next
    | ISub ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VInt (l - r));
        pc := next
    | IMul ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VInt (l * r));
        pc := next
    | IDiv ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        if r = 0 then crash Div_by_zero loc;
        push (VInt (l / r));
        pc := next
    | IMod ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        if r = 0 then crash Div_by_zero loc;
        push (VInt (l mod r));
        pc := next
    | INeg ->
        push (VInt (-vm_as_int loc (pop ())));
        pc := next
    | INot ->
        push (VBool (not (vm_as_bool loc (pop ()))));
        pc := next
    | IEqVal ->
        let r = pop () in
        let l = pop () in
        push (VBool (Value.equal l r));
        pc := next
    | INeqVal ->
        let r = pop () in
        let l = pop () in
        push (VBool (not (Value.equal l r)));
        pc := next
    | ILt ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VBool (l < r));
        pc := next
    | ILe ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VBool (l <= r));
        pc := next
    | IGt ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VBool (l > r));
        pc := next
    | IGe ->
        let r = vm_as_int loc (pop ()) in
        let l = vm_as_int loc (pop ()) in
        push (VBool (l >= r));
        pc := next
    | IJmp t -> pc := t
    | IJmpIfNot t -> if vm_as_bool loc (pop ()) then pc := next else pc := t
    | IJmpIf t -> if vm_as_bool loc (pop ()) then pc := t else pc := next
    | ICall (fid, arity) ->
        if vm.depth >= vm.cfg.Interp.max_depth then crash Stack_overflow loc;
        let callee = vm.prog.funcs.(fid) in
        let callee_frame = Array.make (max callee.nslots 1) VUnit in
        for i = arity - 1 downto 0 do
          callee_frame.(i) <- pop ()
        done;
        vm.depth <- vm.depth + 1;
        vm.names <- callee.name :: vm.names;
        let v = exec_func vm callee callee_frame in
        vm.depth <- vm.depth - 1;
        vm.names <- List.tl vm.names;
        push v;
        pc := next
    | ICallBuiltin (b, arity) ->
        let args = ref [] in
        for _ = 1 to arity do
          args := pop () :: !args
        done;
        push (Builtins.eval vm.ctx loc b !args);
        pc := next
    | IRet -> result := Some (pop ())
    | INewArray elem ->
        let n = vm_as_int loc (pop ()) in
        if n < 0 then crash (Negative_array_size n) loc;
        push (VArr (Array.make n (default_of_ty elem)));
        pc := next
    | INewStruct sid ->
        let layout = vm.prog.rprog.rp_structs.(sid) in
        push (VStruct (sid, Array.map (fun (_, ty) -> default_of_ty ty) layout.sl_fields));
        pc := next
    | ILoadIndex -> (
        let idx = vm_as_int loc (pop ()) in
        let arr = pop () in
        match arr with
        | VNull -> crash Null_deref loc
        | VArr elems ->
            let n = Array.length elems in
            if idx < 0 || idx >= n then crash (Out_of_bounds { index = idx; length = n }) loc;
            push elems.(idx);
            pc := next
        | v -> crash (Aborted ("internal: indexing " ^ type_name v)) loc)
    | IStoreIndex -> (
        let v = pop () in
        let idx = vm_as_int loc (pop ()) in
        let arr = pop () in
        match arr with
        | VNull -> crash Null_deref loc
        | VArr elems ->
            let n = Array.length elems in
            if idx < 0 || idx >= n then crash (Out_of_bounds { index = idx; length = n }) loc;
            elems.(idx) <- v;
            pc := next
        | v2 -> crash (Aborted ("internal: index-assign to " ^ type_name v2)) loc)
    | ILoadField off -> (
        match pop () with
        | VNull -> crash Null_deref loc
        | VStruct (_, fields) ->
            push fields.(off);
            pc := next
        | v -> crash (Aborted ("internal: field access on " ^ type_name v)) loc)
    | IStoreField off -> (
        let v = pop () in
        match pop () with
        | VNull -> crash Null_deref loc
        | VStruct (_, fields) ->
            fields.(off) <- v;
            pc := next
        | v2 -> crash (Aborted ("internal: field-assign to " ^ type_name v2)) loc)
    | ITickStmt ->
        vm.fuel_left <- vm.fuel_left - 1;
        if vm.fuel_left <= 0 then crash Out_of_fuel loc;
        vm.steps <- vm.steps + 1;
        pc := next
    | ITickLoop ->
        vm.fuel_left <- vm.fuel_left - 1;
        if vm.fuel_left <= 0 then crash Out_of_fuel loc;
        pc := next
    | IObsBranch sid ->
        vm.cfg.Interp.hooks.Interp.on_branch ~sid (vm_as_bool loc (peek ()));
        pc := next
    | IObsCond eid ->
        vm.cfg.Interp.hooks.Interp.on_cond_operand ~eid (vm_as_bool loc (peek ()));
        pc := next
    | IObsAssign { sid; lhs; has_old } ->
        let old_value = if has_old then Some (pop ()) else None in
        vm.cfg.Interp.hooks.Interp.on_scalar_assign ~sid ~lhs ~old_value ~read:read_var;
        pc := next
    | IObsCallRet sid ->
        vm.cfg.Interp.hooks.Interp.on_call_result ~sid (peek ());
        pc := next);
    ()
  done;
  Option.get !result

let run_compiled (program : program) (cfg : Interp.config) : Interp.result =
  let rprog = program.rprog in
  let globals = Array.map (fun (_, ty, _) -> default_of_ty ty) rprog.rp_globals in
  let ctx =
    {
      Builtins.out = Buffer.create 256;
      events_rev = [];
      bugs = Hashtbl.create 8;
      rng = Sbi_util.Prng.create cfg.Interp.nondet_seed;
      args = cfg.Interp.args;
      structs = rprog.rp_structs;
      crash = Interp_error.crash;
    }
  in
  let vm =
    {
      prog = program;
      cfg;
      globals;
      ctx;
      fuel_left = cfg.Interp.fuel;
      steps = 0;
      depth = 0;
      names = [];
      stack = Array.make 256 VUnit;
      sp = 0;
    }
  in
  let outcome =
    try
      ignore (exec_func vm program.globals_init [||]);
      let main_fn = program.funcs.(rprog.rp_main) in
      vm.depth <- vm.depth + 1;
      vm.names <- main_fn.name :: vm.names;
      let v = exec_func vm main_fn (Array.make (max main_fn.nslots 1) VUnit) in
      Interp.Finished v
    with Interp_error.Crash_exc (kind, loc) ->
      let crash_fn = match vm.names with fn :: _ -> fn | [] -> "<toplevel>" in
      Interp.Crashed { Interp.kind; crash_loc = loc; crash_fn; stack = vm.names }
  in
  let bugs =
    Hashtbl.fold (fun k () acc -> k :: acc) ctx.Builtins.bugs [] |> List.sort compare
  in
  {
    Interp.outcome;
    output = Buffer.contents ctx.Builtins.out;
    events = List.rev ctx.Builtins.events_rev;
    bugs_triggered = bugs;
    steps = vm.steps;
  }

let run prog cfg = run_compiled (compile prog) cfg
