(** Bridges the instrumentation plan to the interpreter's hooks.

    Each dynamic visit of a planned site first consults [visit] (the
    sampling decision, or a pure visit counter during training); only when
    it returns [true] is the site's truth mask computed and handed to
    [record].  This mirrors the deployed system, where the sampling check
    guards the instrumentation code itself.  An unsampled visit costs the
    [visit] call; a sampled one adds a mask ({!Site.branch_mask},
    {!Site.sextet_mask}) and the [record] call.  Neither allocates: the
    hooks read the assigned variable once per assignment and pass the
    mask as an [int]. *)

val hooks :
  Transform.t ->
  visit:(int -> bool) ->
  record:(int -> int -> unit) ->
  Sbi_lang.Interp.hooks
(** [visit site] is called once per dynamic opportunity (site reached);
    [record site mask] receives the truth mask of each sampled visit: bit
    [i] is the truth of the site's predicate [i], the predicate with id
    [first_pred + i]. *)
