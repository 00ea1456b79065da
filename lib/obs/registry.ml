(* Process-wide registry of named metrics.  Values are updated through
   Atomics (no lock on the hot path); the registry table itself is
   guarded by a mutex only at get-or-create and export time.  Names are
   dotted paths ("log.append", "log.fsync"); registering the same
   name twice with a different type is a programming error and raises. *)

type counter = int Atomic.t
type gauge = int Atomic.t
type metric = Counter of counter | Gauge of gauge | Histogram of Hist.t

let mutex = Mutex.create ()
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let intern name make project =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> (
          match project m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Sbi_obs.Registry: %s already registered with a different type"
                   name))
      | None -> (
          let m = make () in
          Hashtbl.replace table name m;
          match project m with Some v -> v | None -> assert false))

let counter name =
  intern name (fun () -> Counter (Atomic.make 0)) (function Counter c -> Some c | _ -> None)

let gauge name =
  intern name (fun () -> Gauge (Atomic.make 0)) (function Gauge g -> Some g | _ -> None)

let histogram name =
  intern name (fun () -> Histogram (Hist.create ())) (function Histogram h -> Some h | _ -> None)

let incr c = if Control.is_enabled () then Atomic.incr c
let add c n = if Control.is_enabled () then ignore (Atomic.fetch_and_add c n)
let set g v = if Control.is_enabled () then Atomic.set g v
let value a = Atomic.get a
let observe_ns h ns = if Control.is_enabled () then Hist.observe_ns h ns

(* A sampled timer over [name]: every call increments [<name>.count];
   one call in [every] is actually clocked into the [<name>] histogram.
   Sampling keeps sub-microsecond paths (codec encode, log append)
   inside the <=2% --obs-check overhead budget — fitting, given the
   paper's own thesis that sparse sampling of cheap predicates yields
   enough signal.  Durations of calls that raise are not recorded. *)
module Timer = struct
  type nonrec t = { hist : Hist.t; ops : int Atomic.t; every : int; tick : int Atomic.t }

  let create ?(every = 1) name =
    if every < 1 then invalid_arg "Sbi_obs.Registry.Timer.create: every < 1";
    { hist = histogram name; ops = counter (name ^ ".count"); every; tick = Atomic.make 0 }

  let time t f =
    if not (Control.is_enabled ()) then f ()
    else begin
      Atomic.incr t.ops;
      if t.every > 1 && Atomic.fetch_and_add t.tick 1 mod t.every <> 0 then f ()
      else begin
        let t0 = Clock.now_ns () in
        let v = f () in
        Hist.observe_ns t.hist (Clock.now_ns () - t0);
        v
      end
    end
end

(* --- export --- *)

let sorted_metrics () =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (locked (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) table []))

let pct_string h p = match Hist.percentile h p with None -> "0" | Some b -> Hist.pp_bound b

let lines () =
  List.concat_map
    (fun (name, m) ->
      match m with
      | Counter c | Gauge c -> [ Printf.sprintf "%s %d" name (Atomic.get c) ]
      | Histogram h ->
          let overflow = (Hist.counts h).(Hist.nbuckets) in
          Printf.sprintf "%s.samples %d" name (Hist.total h)
          :: Printf.sprintf "%s.p50_us %s" name (pct_string h 50.)
          :: Printf.sprintf "%s.p90_us %s" name (pct_string h 90.)
          :: Printf.sprintf "%s.p99_us %s" name (pct_string h 99.)
          ::
          (if overflow > 0 then
             [ Printf.sprintf "%s.gt_%dus %d" name Hist.max_finite_bound_us overflow ]
           else []))
    (sorted_metrics ())

let to_json () =
  let module J = Sbi_util.Json in
  J.Obj
    (List.map
       (fun (name, m) ->
         match m with
         | Counter c | Gauge c -> (name, J.int (Atomic.get c))
         | Histogram h ->
             let bucket_label = function
               | Hist.Le us -> Printf.sprintf "le_%dus" us
               | Hist.Gt us -> Printf.sprintf "gt_%dus" us
             in
             ( name,
               J.Obj
                 [
                   ("samples", J.int (Hist.total h));
                   ("p50_us", J.Str (pct_string h 50.));
                   ("p90_us", J.Str (pct_string h 90.));
                   ("p99_us", J.Str (pct_string h 99.));
                   ( "buckets",
                     J.Obj (List.map (fun (b, n) -> (bucket_label b, J.int n)) (Hist.buckets h))
                   );
                 ] ))
       (sorted_metrics ()))
