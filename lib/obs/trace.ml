(* Tracing spans with parent links and ring-buffer retention.

   A span context (stack of open span ids) is kept per (domain, thread):
   serve runs many systhreads per domain and [Thread.id] is only unique
   within a domain, so the pair is the key.

   Completed spans land in a fixed-size ring (newest wins); export is a
   snapshot of the ring, text or JSON. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  args : string;
  start_ns : int;
  dur_ns : int;
  domain : int;
}

let next_id = Atomic.make 1

(* --- per-(domain, thread) context stacks --- *)

let ctx_mutex = Mutex.create ()
let ctx : (int * int, int list) Hashtbl.t = Hashtbl.create 32
let ctx_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

let ctx_locked f =
  Mutex.lock ctx_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx_mutex) f

let stack () = ctx_locked (fun () -> Option.value ~default:[] (Hashtbl.find_opt ctx (ctx_key ())))

let set_stack s =
  ctx_locked (fun () ->
      let k = ctx_key () in
      match s with [] -> Hashtbl.remove ctx k | _ -> Hashtbl.replace ctx k s)

let current () = match stack () with [] -> None | id :: _ -> Some id

(* --- ring of completed spans --- *)

let default_capacity = 4096
let ring_mutex = Mutex.create ()
let ring = ref (Array.make default_capacity None)
let ring_next = ref 0 (* total spans ever recorded *)

let ring_locked f =
  Mutex.lock ring_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock ring_mutex) f

let set_capacity n =
  if n < 1 then invalid_arg "Sbi_obs.Trace.set_capacity: capacity < 1";
  ring_locked (fun () ->
      ring := Array.make n None;
      ring_next := 0)

let clear () =
  ring_locked (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      ring_next := 0)

let record span =
  ring_locked (fun () ->
      !ring.(!ring_next mod Array.length !ring) <- Some span;
      incr ring_next)

let recent ?n () =
  ring_locked (fun () ->
      let cap = Array.length !ring in
      let have = min !ring_next cap in
      let want = match n with Some n when n >= 0 && n < have -> n | _ -> have in
      (* oldest-first among the newest [want] spans *)
      List.init want (fun i ->
          match !ring.((!ring_next - want + i) mod cap) with
          | Some s -> s
          | None -> assert false))

(* --- spans --- *)

let with_span ?(args = "") ~name f =
  if not (Control.is_enabled ()) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let saved = stack () in
    let parent = match saved with [] -> None | p :: _ -> Some p in
    set_stack (id :: saved);
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        (* record even when [f] raises: failing spans matter most *)
        let dur = Clock.now_ns () - t0 in
        set_stack saved;
        record
          {
            id;
            parent;
            name;
            args;
            start_ns = t0;
            dur_ns = (if dur < 0 then 0 else dur);
            domain = (Domain.self () :> int);
          })
      f
  end

(* --- export --- *)

let line_of s =
  Printf.sprintf "span=%d parent=%s name=%s dur=%s domain=%d%s" s.id
    (match s.parent with Some p -> string_of_int p | None -> "-")
    s.name (Clock.pp_ns s.dur_ns) s.domain
    (if s.args = "" then "" else " args=" ^ s.args)

let lines ?n () = List.map line_of (recent ?n ())

let json_of s =
  let module J = Sbi_util.Json in
  J.Obj
    [
      ("id", J.int s.id);
      ("parent", match s.parent with Some p -> J.int p | None -> J.Null);
      ("name", J.Str s.name);
      ("args", J.Str s.args);
      ("start_ns", J.int s.start_ns);
      ("dur_ns", J.int s.dur_ns);
      ("domain", J.int s.domain);
    ]

let to_json ?n () = Sbi_util.Json.List (List.map json_of (recent ?n ()))
