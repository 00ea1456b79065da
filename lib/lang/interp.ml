open Rast
open Value

type crash_kind = Interp_error.crash_kind =
  | Null_deref
  | Out_of_bounds of { index : int; length : int }
  | Div_by_zero
  | Assert_failed
  | Aborted of string
  | Negative_array_size of int
  | Stack_overflow
  | Out_of_fuel
  | Substr_range
  | Chr_range of int

let crash_kind_to_string = Interp_error.crash_kind_to_string

type crash = { kind : crash_kind; crash_loc : Loc.t; crash_fn : string; stack : string list }

type outcome = Finished of Value.t | Crashed of crash

type hooks = {
  on_branch : sid:int -> bool -> unit;
  on_scalar_assign :
    sid:int -> lhs:Rast.var_ref -> old_value:Value.t option -> read:(Rast.var_ref -> Value.t) -> unit;
  on_call_result : sid:int -> Value.t -> unit;
  on_cond_operand : eid:int -> bool -> unit;
}

let no_hooks =
  {
    on_branch = (fun ~sid:_ _ -> ());
    on_scalar_assign = (fun ~sid:_ ~lhs:_ ~old_value:_ ~read:_ -> ());
    on_call_result = (fun ~sid:_ _ -> ());
    on_cond_operand = (fun ~eid:_ _ -> ());
  }

type config = {
  args : string array;
  fuel : int;
  max_depth : int;
  nondet_seed : int;
  hooks : hooks;
}

let default_config =
  { args = [||]; fuel = 10_000_000; max_depth = 2000; nondet_seed = 0; hooks = no_hooks }

type result = {
  outcome : outcome;
  output : string;
  events : string list;
  bugs_triggered : int list;
  steps : int;
}

(* Internal control-flow exceptions. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

type state = {
  prog : rprog;
  cfg : config;
  globals : Value.t array;
  mutable frame : Value.t array;
  mutable depth : int;
  mutable stack : string list;  (* function names, innermost first *)
  mutable fuel_left : int;
  mutable steps : int;
  ctx : Builtins.ctx;  (* output, events, bugs, nondet, args *)
  read : Rast.var_ref -> Value.t;  (* [read_var] of this state, for on_scalar_assign *)
}

let crash = Interp_error.crash

let read_var st = function
  | RGlobal i -> st.globals.(i)
  | RLocal i -> st.frame.(i)

let write_var st ref_ v =
  match ref_ with
  | RGlobal i -> st.globals.(i) <- v
  | RLocal i -> st.frame.(i) <- v

let as_int loc = function
  | VInt n -> n
  | v -> crash (Aborted (Printf.sprintf "internal: expected int, got %s" (type_name v))) loc

let as_bool loc = function
  | VBool b -> b
  | v -> crash (Aborted (Printf.sprintf "internal: expected bool, got %s" (type_name v))) loc

let rec eval st (e : rexpr) : Value.t =
  let loc = e.rloc in
  match e.re with
  | RInt n -> VInt n
  | RBool b -> VBool b
  | RStr s -> VStr s
  | RNull -> VNull
  | RVar (ref_, _) -> read_var st ref_
  | RUnop (Ast.Neg, inner) -> VInt (-as_int loc (eval st inner))
  | RUnop (Ast.Not, inner) -> VBool (not (as_bool loc (eval st inner)))
  | RBinop (op, l, r) -> eval_binop st loc op l r
  | RCall (target, args) -> eval_call st loc target args
  | RIndex (arr, idx) -> (
      let varr = eval st arr in
      let vidx = as_int loc (eval st idx) in
      match varr with
      | VNull -> crash Null_deref loc
      | VArr elems ->
          let n = Array.length elems in
          if vidx < 0 || vidx >= n then crash (Out_of_bounds { index = vidx; length = n }) loc
          else elems.(vidx)
      | v -> crash (Aborted ("internal: indexing " ^ type_name v)) loc)
  | RField (obj, offset, _) -> (
      match eval st obj with
      | VNull -> crash Null_deref loc
      | VStruct (_, fields) -> fields.(offset)
      | v -> crash (Aborted ("internal: field access on " ^ type_name v)) loc)
  | RNewArray (elem_ty, len_e) ->
      let n = as_int loc (eval st len_e) in
      if n < 0 then crash (Negative_array_size n) loc
      else VArr (Array.make n (default_of_ty elem_ty))
  | RNewStruct sid ->
      let layout = st.prog.rp_structs.(sid) in
      let fields = Array.map (fun (_, ty) -> default_of_ty ty) layout.sl_fields in
      VStruct (sid, fields)

and eval_binop st loc op l r =
  match op with
  | Ast.And ->
      let vl = as_bool loc (eval st l) in
      st.cfg.hooks.on_cond_operand ~eid:l.reid vl;
      if vl then begin
        let vr = as_bool loc (eval st r) in
        st.cfg.hooks.on_cond_operand ~eid:r.reid vr;
        VBool vr
      end
      else VBool false
  | Ast.Or ->
      let vl = as_bool loc (eval st l) in
      st.cfg.hooks.on_cond_operand ~eid:l.reid vl;
      if vl then VBool true
      else begin
        let vr = as_bool loc (eval st r) in
        st.cfg.hooks.on_cond_operand ~eid:r.reid vr;
        VBool vr
      end
  | _ -> (
      let vl = eval st l in
      let vr = eval st r in
      match op with
      | Ast.Add -> (
          match (vl, vr) with
          | VInt a, VInt b -> VInt (a + b)
          | VStr a, VStr b -> VStr (a ^ b)
          | _ -> crash (Aborted "internal: bad '+' operands") loc)
      | Ast.Sub -> VInt (as_int loc vl - as_int loc vr)
      | Ast.Mul -> VInt (as_int loc vl * as_int loc vr)
      | Ast.Div ->
          let d = as_int loc vr in
          if d = 0 then crash Div_by_zero loc else VInt (as_int loc vl / d)
      | Ast.Mod ->
          let d = as_int loc vr in
          if d = 0 then crash Div_by_zero loc else VInt (as_int loc vl mod d)
      | Ast.Eq -> VBool (Value.equal vl vr)
      | Ast.Neq -> VBool (not (Value.equal vl vr))
      | Ast.Lt -> VBool (as_int loc vl < as_int loc vr)
      | Ast.Le -> VBool (as_int loc vl <= as_int loc vr)
      | Ast.Gt -> VBool (as_int loc vl > as_int loc vr)
      | Ast.Ge -> VBool (as_int loc vl >= as_int loc vr)
      | Ast.And | Ast.Or -> assert false)

and eval_call st loc target args =
  match target with
  | CBuiltin b -> eval_builtin st loc b args
  | CUser (fid, fname) ->
      let vargs = List.map (eval st) args in
      call_function st loc fid fname vargs

and call_function st loc fid fname vargs =
  ignore loc;
  if st.depth >= st.cfg.max_depth then crash Stack_overflow loc;
  let fn = st.prog.rp_funcs.(fid) in
  let saved_frame = st.frame in
  let frame = Array.make (max fn.rf_nslots 1) VUnit in
  List.iteri (fun i v -> frame.(i) <- v) vargs;
  st.frame <- frame;
  st.depth <- st.depth + 1;
  st.stack <- fname :: st.stack;
  (* On a crash we deliberately do NOT restore: the crash handler reads the
     call stack as it stood at the faulting statement. *)
  let result =
    try
      exec_block st fn.rf_body;
      default_of_ty fn.rf_ret
    with Return_exc v -> v
  in
  st.frame <- saved_frame;
  st.depth <- st.depth - 1;
  st.stack <- List.tl st.stack;
  result

and eval_builtin st loc b args =
  let vals = List.map (eval st) args in
  Builtins.eval st.ctx loc b vals

and exec_block st block = List.iter (exec_stmt st) block

and exec_stmt st (stmt : rstmt) =
  st.fuel_left <- st.fuel_left - 1;
  if st.fuel_left <= 0 then crash Out_of_fuel stmt.rsloc;
  st.steps <- st.steps + 1;
  let loc = stmt.rsloc in
  match stmt.rs with
  | RDecl (ty, slot, _, init) ->
      let v = match init with Some e -> eval st e | None -> default_of_ty ty in
      st.frame.(slot) <- v;
      if Ast.ty_equal ty Ast.TInt && init <> None then
        st.cfg.hooks.on_scalar_assign ~sid:stmt.rsid ~lhs:(RLocal slot) ~old_value:None
          ~read:st.read
  | RAssign (lty, lv, rhs) -> (
      match lv with
      | RLVar (ref_, _) ->
          let old = if Ast.ty_equal lty Ast.TInt then Some (read_var st ref_) else None in
          let v = eval st rhs in
          write_var st ref_ v;
          if Ast.ty_equal lty Ast.TInt then
            st.cfg.hooks.on_scalar_assign ~sid:stmt.rsid ~lhs:ref_ ~old_value:old
              ~read:st.read
      | RLIndex (arr, idx) -> (
          let varr = eval st arr in
          let vidx = as_int loc (eval st idx) in
          let v = eval st rhs in
          match varr with
          | VNull -> crash Null_deref loc
          | VArr elems ->
              let n = Array.length elems in
              if vidx < 0 || vidx >= n then
                crash (Out_of_bounds { index = vidx; length = n }) loc
              else elems.(vidx) <- v
          | v2 -> crash (Aborted ("internal: index-assign to " ^ type_name v2)) loc)
      | RLField (obj, offset, _) -> (
          let vobj = eval st obj in
          let v = eval st rhs in
          match vobj with
          | VNull -> crash Null_deref loc
          | VStruct (_, fields) -> fields.(offset) <- v
          | v2 -> crash (Aborted ("internal: field-assign to " ^ type_name v2)) loc))
  | RExpr e ->
      let v = eval st e in
      (match (e.re, e.rty) with
      | RCall _, Ast.TInt -> st.cfg.hooks.on_call_result ~sid:stmt.rsid v
      | _ -> ())
  | RIf (cond, then_b, else_b) ->
      let c = as_bool cond.rloc (eval st cond) in
      st.cfg.hooks.on_branch ~sid:stmt.rsid c;
      if c then exec_block st then_b else exec_block st else_b
  | RWhile (cond, body) ->
      let rec loop () =
        st.fuel_left <- st.fuel_left - 1;
        if st.fuel_left <= 0 then crash Out_of_fuel loc;
        let c = as_bool cond.rloc (eval st cond) in
        st.cfg.hooks.on_branch ~sid:stmt.rsid c;
        if c then begin
          (try exec_block st body with Continue_exc -> ());
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | RFor (init, cond, step, body) ->
      exec_stmt st init;
      let rec loop () =
        st.fuel_left <- st.fuel_left - 1;
        if st.fuel_left <= 0 then crash Out_of_fuel loc;
        let c = as_bool cond.rloc (eval st cond) in
        st.cfg.hooks.on_branch ~sid:stmt.rsid c;
        if c then begin
          (try exec_block st body with Continue_exc -> ());
          exec_stmt st step;
          loop ()
        end
      in
      (try loop () with Break_exc -> ())
  | RReturn None -> raise (Return_exc VUnit)
  | RReturn (Some e) -> raise (Return_exc (eval st e))
  | RBreak -> raise Break_exc
  | RContinue -> raise Continue_exc
  | RBlockS body -> exec_block st body

let run prog cfg =
  let globals = Array.map (fun (_, ty, _) -> default_of_ty ty) prog.rp_globals in
  let ctx =
    {
      Builtins.out = Buffer.create 256;
      events_rev = [];
      bugs = Hashtbl.create 8;
      rng = Sbi_util.Prng.create cfg.nondet_seed;
      args = cfg.args;
      structs = prog.rp_structs;
      crash = Interp_error.crash;
    }
  in
  let rec st =
    { prog; cfg; globals; frame = [||]; depth = 0; stack = []; fuel_left = cfg.fuel;
      steps = 0; ctx; read = (fun ref_ -> read_var st ref_) }
  in
  let outcome =
    try
      (* Global initializers, in declaration order. *)
      Array.iteri
        (fun i (_, _, init) ->
          match init with Some e -> st.globals.(i) <- eval st e | None -> ())
        prog.rp_globals;
      let main = prog.rp_funcs.(prog.rp_main) in
      let v =
        try call_function st main.rf_loc prog.rp_main main.rf_name []
        with Return_exc v -> v
      in
      Finished v
    with Interp_error.Crash_exc (kind, loc) ->
      let crash_fn = match st.stack with fn :: _ -> fn | [] -> "<toplevel>" in
      Crashed { kind; crash_loc = loc; crash_fn; stack = st.stack }
  in
  let bugs =
    Hashtbl.fold (fun k () acc -> k :: acc) st.ctx.Builtins.bugs [] |> List.sort compare
  in
  {
    outcome;
    output = Buffer.contents st.ctx.Builtins.out;
    events = List.rev st.ctx.Builtins.events_rev;
    bugs_triggered = bugs;
    steps = st.steps;
  }

let run_string ?(config = default_config) src = run (Check.check_string src) config
