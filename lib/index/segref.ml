module Bitset = Sbi_store.Bitset
module Rbitmap = Sbi_store.Rbitmap
module Segment = Sbi_store.Segment
module Lru = Sbi_store.Lru

(* A segment reference: the snapshot/triage layers' uniform handle over a
   fully decoded in-memory segment (the live tail) or a segment file read
   lazily through its one mapping.  Disk postings are materialized as
   compressed {!Rbitmap}s through a shared LRU cache, so resident memory
   is bounded by the cache budget, not the index size.

   Memo fields are racy on purpose: values are immutable once built, an
   OCaml pointer store is atomic, and duplicated conversion work between
   two racing readers is cheaper than a lock on every kernel call. *)

type cache = (string * bool * int, Rbitmap.t) Lru.t

let create_cache () = Lru.create ~cost:Rbitmap.memory_words ()

type mem = {
  m_seg : Segment.t;
  m_pred_r : Rbitmap.t option array;
  m_site_r : Rbitmap.t option array;
}

type disk = {
  d_path : string;
  d_map : Segment.mapping;
  d_footer : Segment.footer;
  d_cache : cache;
  mutable d_failing : Bitset.t option;
}

type source = Mem of mem | Disk of disk

type t = { sr_file : string; sr_nruns : int; sr_num_f : int; source : source }

let of_segment ~file (seg : Segment.t) =
  {
    sr_file = file;
    sr_nruns = seg.Segment.nruns;
    sr_num_f = Bitset.count seg.Segment.failing;
    source =
      Mem
        {
          m_seg = seg;
          m_pred_r = Array.make (max seg.Segment.npreds 1) None;
          m_site_r = Array.make (max seg.Segment.nsites 1) None;
        };
  }

let of_disk ~cache ~path ~file map (ft : Segment.footer) =
  {
    sr_file = file;
    sr_nruns = ft.Segment.ft_nruns;
    sr_num_f = ft.Segment.ft_num_f;
    source = Disk { d_path = path; d_map = map; d_footer = ft; d_cache = cache; d_failing = None };
  }

let file t = t.sr_file
let nruns t = t.sr_nruns
let num_f t = t.sr_num_f

let failing t =
  match t.source with
  | Mem m -> m.m_seg.Segment.failing
  | Disk d -> (
      match d.d_failing with
      | Some b -> b
      | None ->
          let b = Segment.read_failing d.d_map d.d_footer in
          d.d_failing <- Some b;
          b)

let memo_bits arr positions nruns i =
  match arr.(i) with
  | Some r -> r
  | None ->
      let r = Rbitmap.of_positions nruns positions.(i) in
      arr.(i) <- Some r;
      r

let disk_bits d kind i =
  let is_pred = kind = `Pred in
  Lru.find_or_add d.d_cache (d.d_path, is_pred, i) (fun () ->
      Rbitmap.of_positions d.d_footer.Segment.ft_nruns
        (Segment.read_posting d.d_map d.d_footer kind i))

let pred_bits t i =
  match t.source with
  | Mem m -> memo_bits m.m_pred_r m.m_seg.Segment.pred_true t.sr_nruns i
  | Disk d -> disk_bits d `Pred i

let site_bits t i =
  match t.source with
  | Mem m -> memo_bits m.m_site_r m.m_seg.Segment.site_obs t.sr_nruns i
  | Disk d -> disk_bits d `Site i
