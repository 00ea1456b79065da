type scheme = Branches | Returns | Scalar_pairs

let scheme_to_string = function
  | Branches -> "branches"
  | Returns -> "returns"
  | Scalar_pairs -> "scalar-pairs"

type partner =
  | P_var of Sbi_lang.Rast.var_ref * string
  | P_const of int
  | P_old

let partner_to_string = function
  | P_var (_, name) -> name
  | P_const n -> string_of_int n
  | P_old -> "old value"

type t = {
  site_id : int;
  scheme : scheme;
  fn_name : string;
  site_loc : Sbi_lang.Loc.t;
  subject : string;
  partner : partner option;
  first_pred : int;
  num_preds : int;
}

type predicate = { pred_id : int; pred_site : int; pred_text : string }

let num_preds_of_scheme = function Branches -> 2 | Returns -> 6 | Scalar_pairs -> 6

let sextet_texts x y =
  [
    Printf.sprintf "%s < %s" x y;
    Printf.sprintf "%s <= %s" x y;
    Printf.sprintf "%s > %s" x y;
    Printf.sprintf "%s >= %s" x y;
    Printf.sprintf "%s == %s" x y;
    Printf.sprintf "%s != %s" x y;
  ]

let predicate_texts site =
  match site.scheme with
  | Branches ->
      [
        Printf.sprintf "%s is TRUE" site.subject;
        Printf.sprintf "%s is FALSE" site.subject;
      ]
  | Returns -> sextet_texts (site.subject ^ "()") "0"
  | Scalar_pairs -> (
      match site.partner with
      | Some P_old ->
          List.map
            (fun op -> Printf.sprintf "new value of %s %s old value of %s" site.subject op site.subject)
            [ "<"; "<="; ">"; ">="; "=="; "!=" ]
      | Some p -> sextet_texts site.subject (partner_to_string p)
      | None -> sextet_texts site.subject "?")

let branch_mask c = if c then 0b01 else 0b10

(* bit i is predicate i of [x<y; x<=y; x>y; x>=y; x=y; x<>y] *)
let sextet_mask (x : int) y = if x < y then 0b100011 else if x = y then 0b011010 else 0b101100
