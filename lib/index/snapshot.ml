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

type tail = { bufs : Bytes.t array; used : int array; len : int }

type t = {
  epoch : int;
  meta : Dataset.t;
  views : view array;
  counts : Sbi_core.Counts.t;
}

let segment_view sr =
  {
    v_nruns = Segref.nruns sr;
    v_failing = (fun () -> Segref.failing sr);
    v_pred_bits = Segref.pred_bits sr;
    v_site_bits = Segref.site_bits sr;
  }

(* The live tail as a view over its captured posting buffers.  Bytes
   below [used.(j)] were written before the capture and are never written
   again — an append writes past them, or into a fresh buffer — so any
   domain may read them as a string.  A posting is decoded when a kernel
   first asks for it and memoized for the snapshot; racing readers may
   both decode it (an immutable value, an atomic pointer store, last
   writer wins). *)
let tail_view (meta : Dataset.t) { bufs; used; len } =
  let nsites = meta.Dataset.nsites in
  let decode j =
    Sbi_obs.Trace.with_span ~name:"index.tail_posting" (fun () ->
        let s = Bytes.unsafe_to_string bufs.(j) and limit = used.(j) in
        Segment.read_deltas s (ref 0) limit ~count:(Segment.count_deltas s 0 limit) ~nruns:len)
  in
  let memo = Array.make (Array.length bufs) None and failing = ref None in
  let bits j =
    match memo.(j) with
    | Some r -> r
    | None ->
        let r = Rbitmap.of_positions len (decode j) in
        memo.(j) <- Some r;
        r
  in
  {
    v_nruns = len;
    v_failing =
      (fun () ->
        match !failing with
        | Some b -> b
        | None ->
            let b = Bitset.of_positions len (decode (nsites + meta.Dataset.npreds)) in
            failing := Some b;
            b);
    v_pred_bits = (fun p -> bits (nsites + p));
    v_site_bits = bits;
  }

let build ~epoch ~meta ~counts ~tail segrefs =
  let views = Array.map segment_view segrefs in
  let views = if tail.len = 0 then views else Array.append views [| tail_view meta tail |] in
  { epoch; meta; views; counts }

let epoch t = t.epoch
let counts t = t.counts
let nruns t = t.counts.Sbi_core.Counts.num_f + t.counts.Sbi_core.Counts.num_s
let num_failures t = t.counts.Sbi_core.Counts.num_f
