(** Instrumentation sites and predicates.

    Following §2 of the paper: an {e instrumentation site} is a program
    point at which a group of predicates is checked; all predicates of a
    site are {e sampled jointly} — one coin flip per dynamic visit decides
    whether the whole group is observed.  Three schemes are provided:

    - {b branches}: 2 predicates per conditional (condition true / false);
    - {b returns}: 6 predicates per scalar-returning call site
      (returned value [< 0], [<= 0], [> 0], [>= 0], [= 0], [<> 0]);
    - {b scalar-pairs}: 6 predicates per (assigned variable, partner) pair,
      where partners are same-typed in-scope variables, constants from the
      enclosing function, and the variable's own previous value. *)

type scheme = Branches | Returns | Scalar_pairs

val scheme_to_string : scheme -> string

(** Partner of the assigned variable in a scalar-pairs site. *)
type partner =
  | P_var of Sbi_lang.Rast.var_ref * string  (** another in-scope variable *)
  | P_const of int  (** a constant from the enclosing function *)
  | P_old  (** the variable's own value before the assignment *)

val partner_to_string : partner -> string

type t = {
  site_id : int;
  scheme : scheme;
  fn_name : string;  (** enclosing function *)
  site_loc : Sbi_lang.Loc.t;
  subject : string;  (** what is observed: condition text, callee, or lhs *)
  partner : partner option;  (** scalar-pairs only *)
  first_pred : int;  (** global index of this site's first predicate *)
  num_preds : int;  (** 2 for branches, 6 otherwise *)
}

type predicate = {
  pred_id : int;
  pred_site : int;
  pred_text : string;  (** human-readable, e.g. ["f == null is TRUE"] *)
}

val num_preds_of_scheme : scheme -> int

val predicate_texts : t -> string list
(** The [num_preds] texts for a site, in predicate-index order. *)

(** {1 Truth masks}

    One observation of a site is an [int] mask whose bit [i] is the truth
    of the site's predicate [i] (predicate id [first_pred + i]).  A mask
    is computed without allocating, and the recorder ORs it into the
    site's mask for the run. *)

val branch_mask : bool -> int
(** Mask of a branches site given the condition value: [0b01] ("is
    TRUE") or [0b10] ("is FALSE"). *)

val sextet_mask : int -> int -> int
(** Mask over [x<y; x<=y; x>y; x>=y; x=y; x<>y], shared by the returns
    scheme (with [y = 0]) and the scalar-pairs scheme.  It is one of three
    masks, each with 3 of the 6 bits set: [0b100011] when [x < y],
    [0b011010] when [x = y] and [0b101100] when [x > y]. *)
