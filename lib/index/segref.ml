module Bitset = Sbi_store.Bitset
module Rbitmap = Sbi_store.Rbitmap
module Segment = Sbi_store.Segment
module Lru = Sbi_store.Lru

(* A segment reference: the snapshot/triage layers' handle on a segment
   file read lazily through its one mapping.  Postings are materialized
   as compressed {!Rbitmap}s through a shared LRU cache, so resident
   memory is bounded by the cache budget, not the index size.

   The outcome memo is racy on purpose: the bitmap is immutable once
   built, an OCaml pointer store is atomic, and a duplicated read between
   two racing readers is cheaper than a lock on every kernel call. *)

type cache = (string * bool * int, Rbitmap.t) Lru.t

let create_cache () = Lru.create ~cost:Rbitmap.memory_words ()

type t = {
  file : string;
  path : string;
  map : Segment.mapping;
  footer : Segment.footer;
  cache : cache;
  mutable failing : Bitset.t option;
}

let of_disk ~cache ~path ~file map footer = { file; path; map; footer; cache; failing = None }

let file t = t.file
let nruns t = t.footer.Segment.ft_nruns
let num_f t = t.footer.Segment.ft_num_f

let failing t =
  match t.failing with
  | Some b -> b
  | None ->
      let b = Segment.read_failing t.map t.footer in
      t.failing <- Some b;
      b

let bits t kind i =
  Lru.find_or_add t.cache (t.path, kind = `Pred, i) (fun () ->
      Rbitmap.of_positions (nruns t) (Segment.read_posting t.map t.footer kind i))

let pred_bits t i = bits t `Pred i
let site_bits t i = bits t `Site i
