(* In-memory span recorder for the traced run.

   A span is (name, start, end, parent, request id).  Each client round
   trip is a root span; the library calls the server makes for that
   request are replayed in this process afterwards and recorded as its
   children.  A replayed child ran after the round trip, so its interval
   is shifted onto the start of its parent's interval: the children then
   sit where the server would have spent that time, and self time is the
   same arithmetic for replayed and directly nested spans.

   Nothing is recorded while tracing is off, and spans are written out
   only when the run ends. *)

type span = {
  id : int;
  name : string;
  mutable start_ns : int;
  mutable end_ns : int;
  parent : int;  (** -1 for a root *)
  req : int;  (** request id shared by a root and its children *)
  replayed : bool;
}

let on = ref false
let spans : span list ref = ref []  (* newest first *)
let by_id : (int, span) Hashtbl.t = Hashtbl.create 1024
let next_id = ref 0
let lock = Mutex.create ()

let reset () =
  spans := [];
  Hashtbl.reset by_id;
  next_id := 0

let now = Sbi_obs.Clock.now_ns

let record ~name ~start_ns ~end_ns ~parent ~req ~replayed =
  Mutex.lock lock;
  let id = !next_id in
  incr next_id;
  let s = { id; name; start_ns; end_ns; parent; req; replayed } in
  spans := s :: !spans;
  Hashtbl.replace by_id id s;
  Mutex.unlock lock;
  id

(* Time [f ()]; when tracing is on, record it as a span.  Returns the
   result and the span id (-1 when off). *)
let time ?(parent = -1) ?(req = -1) ?(replayed = false) name f =
  let t0 = now () in
  let x = f () in
  let t1 = now () in
  let id = if !on then record ~name ~start_ns:t0 ~end_ns:t1 ~parent ~req ~replayed else -1 in
  (x, id)

let span ?parent ?req ?replayed name f = fst (time ?parent ?req ?replayed name f)

(* A root span over an interval the caller timed itself (a round trip
   whose send and reply happen in different steps of a loop). *)
let root ~req name ~start_ns ~end_ns =
  if !on then record ~name ~start_ns ~end_ns ~parent:(-1) ~req ~replayed:false else -1

(* Run [f], whose spans name [parent] as their parent, then move those
   spans so the earliest starts at the parent's start. *)
let replay_into ~parent f =
  let before = !next_id in
  let x = f () in
  (if !on && parent >= 0 then
     match Hashtbl.find_opt by_id parent with
     | None -> ()
     | Some p ->
         let rec newer acc = function
           | s :: rest when s.id >= before -> newer (if s.parent = parent then s :: acc else acc) rest
           | _ -> acc
         in
         let mine = newer [] !spans in
         let first = List.fold_left (fun acc s -> min acc s.start_ns) max_int mine in
         if mine <> [] then begin
           let delta = p.start_ns - first in
           List.iter
             (fun s ->
               s.start_ns <- s.start_ns + delta;
               s.end_ns <- s.end_ns + delta)
             mine
         end);
  x

(* Length of the union of [intervals] clipped to [lo, hi). *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | None -> (total, Some (a, b))
        | Some (la, lb) -> if a <= lb then (total, Some (la, max lb b)) else (total + (lb - la), Some (a, b)))
      (0, None) sorted
  in
  match last with None -> total | Some (a, b) -> total + (b - a)

(* A span's self time: its duration minus the part of its interval that
   its children cover. *)
let self_ns parent children =
  let d = parent.end_ns - parent.start_ns in
  d - covered ~lo:parent.start_ns ~hi:parent.end_ns (List.map (fun c -> (c.start_ns, c.end_ns)) children)

let all () = List.rev !spans

(* parent id -> children, for every span that has a parent *)
let children_table all =
  let t = Hashtbl.create 1024 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add t s.parent s) all;
  t

let children_of table id = Hashtbl.find_all table id
let dur_ms s = float_of_int (s.end_ns - s.start_ns) /. 1e6
let named all name = List.filter (fun s -> s.name = name) all

(* Median duration of the spans called [name], in ms times [scale]; 0
   when there are none. *)
let median_ms ?(scale = 1.) all name =
  match named all name with
  | [] -> 0.
  | l -> Sbi_util.Stats.median (Array.of_list (List.map (fun s -> dur_ms s *. scale) l))

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d,\"replayed\":%b}\n"
        s.id s.name s.start_ns s.end_ns s.parent s.req s.replayed)
    (all ());
  close_out oc
