open Sbi_runtime
module Bitset = Sbi_store.Bitset
module Rbitmap = Sbi_store.Rbitmap
module Segment = Sbi_store.Segment

type view = {
  v_nruns : int;
  v_failing : unit -> Bitset.t;
  v_pred_bits : int -> Rbitmap.t;
  v_site_bits : int -> Rbitmap.t;
}

type t = {
  epoch : int;
  meta : Dataset.t;
  views : view array;
  counts : Sbi_core.Counts.t;
}

(* [segref ()] is asked for the segment on every access, which lets the
   tail's be built on first use *)
let view ~nruns segref =
  {
    v_nruns = nruns;
    v_failing = (fun () -> Segref.failing (segref ()));
    v_pred_bits = (fun i -> Segref.pred_bits (segref ()) i);
    v_site_bits = (fun i -> Segref.site_bits (segref ()) i);
  }

(* The live tail as a view.  [reports.(0 .. len - 1)] were captured under
   the index's write lock; appends only ever write at or past [len] (or
   into a freshly grown array), so those slots never change under this
   snapshot.  The tail's bitmaps are encoded by the first kernel that
   needs one, at most once per snapshot even when several domains get
   there together: the mutex serializes the build, the atomic publishes
   it, and every later access is a single atomic load. *)
let tail_view (meta : Dataset.t) reports len =
  let built = Atomic.make None and lock = Mutex.create () in
  let segref () =
    match Atomic.get built with
    | Some sr -> sr
    | None ->
        Mutex.protect lock (fun () ->
            match Atomic.get built with
            | Some sr -> sr
            | None ->
                let sr =
                  Sbi_obs.Trace.with_span ~name:"index.tail_bits"
                    ~args:(Printf.sprintf "runs=%d" len) (fun () ->
                      Segref.of_segment ~file:"<tail>"
                        (Segment.of_reports ~nsites:meta.Dataset.nsites
                           ~npreds:meta.Dataset.npreds ~source_shard:(-1) ~start_off:0
                           ~end_off:0 (Array.sub reports 0 len)))
                in
                Atomic.set built (Some sr);
                sr)
  in
  view ~nruns:len segref

let build ~epoch ~meta ~counts ~tail:(reports, len) segrefs =
  let views = Array.map (fun sr -> view ~nruns:(Segref.nruns sr) (fun () -> sr)) segrefs in
  let views = if len = 0 then views else Array.append views [| tail_view meta reports len |] in
  { epoch; meta; views; counts }

let epoch t = t.epoch
let counts t = t.counts
let nruns t = t.counts.Sbi_core.Counts.num_f + t.counts.Sbi_core.Counts.num_s
let num_failures t = t.counts.Sbi_core.Counts.num_f
