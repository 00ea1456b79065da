open Sbi_lang

let hooks (t : Transform.t) ~visit ~record =
  let plan = t.Transform.plan in
  let entry sid = if sid >= 0 && sid < Array.length plan then plan.(sid) else Transform.E_none in
  let on_branch ~sid cond =
    match entry sid with
    | Transform.E_branch site -> if visit site then record site (Site.branch_mask cond)
    | _ -> ()
  in
  (* [value] is the assigned variable's new value, read once per assignment *)
  let rec observe_pairs ~read ~old_value value = function
    | [] -> ()
    | (site, partner) :: rest ->
        (if visit site then
           match value with
           | Value.VInt x -> (
               match partner with
               | Site.P_var (ref_, _) -> (
                   match read ref_ with
                   | Value.VInt y -> record site (Site.sextet_mask x y)
                   | _ -> ())
               | Site.P_const c -> record site (Site.sextet_mask x c)
               | Site.P_old -> (
                   match old_value with
                   | Some (Value.VInt y) -> record site (Site.sextet_mask x y)
                   | _ -> ()))
           | _ -> ());
        observe_pairs ~read ~old_value value rest
  in
  let observe_ret site value =
    if visit site then
      match value with Value.VInt x -> record site (Site.sextet_mask x 0) | _ -> ()
  in
  let on_scalar_assign ~sid ~lhs ~old_value ~read =
    match entry sid with
    | Transform.E_assign { lhs = planned_lhs; pair_sites; ret_site }
      when Rast.var_ref_equal lhs planned_lhs -> (
        let value = read lhs in
        observe_pairs ~read ~old_value value pair_sites;
        match ret_site with Some site -> observe_ret site value | None -> ())
    | _ -> ()
  in
  let on_call_result ~sid value =
    match entry sid with Transform.E_call_ret site -> observe_ret site value | _ -> ()
  in
  let expr_plan = t.Transform.expr_plan in
  let on_cond_operand ~eid value =
    if eid >= 0 && eid < Array.length expr_plan then begin
      let site = expr_plan.(eid) in
      if site >= 0 && visit site then record site (Site.branch_mask value)
    end
  in
  { Interp.on_branch; on_scalar_assign; on_call_result; on_cond_operand }
