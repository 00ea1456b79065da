open Sbi_runtime
open Sbi_ingest

exception Corrupt of string

let magic = "SBIX"
let format_version = 2
let trailer_len = 16 (* footer_off (8 LE) + footer CRC (4 LE) + file CRC (4 LE) *)

type t = {
  source_shard : int;
  start_off : int;
  end_off : int;
  nsites : int;
  npreds : int;
  nruns : int;
  run_ids : int array;
  failing : Bitset.t;
  site_obs : int array array;
  pred_true : int array array;
}

let of_reports ~nsites ~npreds ~source_shard ~start_off ~end_off reports =
  let nruns = Array.length reports in
  let run_ids = Array.map (fun (r : Report.t) -> r.Report.run_id) reports in
  let failing = Bitset.create nruns in
  Array.iteri
    (fun pos (r : Report.t) ->
      if Report.outcome_is_failure r.Report.outcome then Bitset.set failing pos)
    reports;
  (* Postings record membership, not multiplicity (counts live in
     [true_counts]), so a site or predicate repeated within one report
     must contribute a single position — duplicates would break the
     strictly-increasing delta encoding.  Two passes over flat arrays:
     the first sizes each posting, the second fills it, and each skips
     an id whose posting already ends at the current position. *)
  let invert what n ids_of =
    let len = Array.make (max n 1) 0 and last = Array.make (max n 1) (-1) in
    Array.iteri
      (fun pos r ->
        Array.iter
          (fun id ->
            if id < 0 || id >= n then
              invalid_arg (Printf.sprintf "Segment.of_reports: %s %d out of range" what id);
            if last.(id) <> pos then begin
              last.(id) <- pos;
              len.(id) <- len.(id) + 1
            end)
          (ids_of r))
      reports;
    let postings = Array.init n (fun i -> Array.make len.(i) 0) in
    Array.fill len 0 (Array.length len) 0;
    Array.iteri
      (fun pos r ->
        Array.iter
          (fun id ->
            let k = len.(id) in
            if k = 0 || postings.(id).(k - 1) <> pos then begin
              postings.(id).(k) <- pos;
              len.(id) <- k + 1
            end)
          (ids_of r))
      reports;
    postings
  in
  let site_obs = invert "site" nsites (fun (r : Report.t) -> r.Report.observed_sites) in
  let pred_true = invert "predicate" npreds (fun (r : Report.t) -> r.Report.true_preds) in
  { source_shard; start_off; end_off; nsites; npreds; nruns; run_ids; failing; site_obs; pred_true }

let aggregator ~pred_site t =
  let agg = Aggregator.empty ~nsites:t.nsites ~npreds:t.npreds ~pred_site in
  let num_f = Bitset.count t.failing in
  agg.Aggregator.num_f <- num_f;
  agg.Aggregator.num_s <- t.nruns - num_f;
  let split counter_f counter_s postings =
    Array.iteri
      (fun i posting ->
        Array.iter
          (fun pos ->
            if Bitset.get t.failing pos then counter_f.(i) <- counter_f.(i) + 1
            else counter_s.(i) <- counter_s.(i) + 1)
          posting)
      postings
  in
  split agg.Aggregator.f_obs_site agg.Aggregator.s_obs_site t.site_obs;
  split agg.Aggregator.f agg.Aggregator.s t.pred_true;
  agg

(* Two passes: the first sizes every output array, the second blits each
   member's postings (position-shifted) into place.  Members are decoded
   twice but only one is live at a time on top of the output — the CPU is
   cheap varint decoding, while holding every member plus shifted copies
   at once (the naive shape) costs several times the merged size in
   allocation churn and dominates large compactions. *)
let concat_n ~load n =
  if n <= 0 then invalid_arg "Segment.concat: empty input";
  let first = load 0 in
  let nsites = first.nsites and npreds = first.npreds in
  let member_runs = Array.make n 0 in
  let site_lens = Array.make (max nsites 1) 0 in
  let pred_lens = Array.make (max npreds 1) 0 in
  let scan i (s : t) =
    if s.nsites <> nsites || s.npreds <> npreds then
      invalid_arg "Segment.concat: mismatched site/predicate tables";
    member_runs.(i) <- s.nruns;
    for j = 0 to nsites - 1 do
      site_lens.(j) <- site_lens.(j) + Array.length s.site_obs.(j)
    done;
    for j = 0 to npreds - 1 do
      pred_lens.(j) <- pred_lens.(j) + Array.length s.pred_true.(j)
    done
  in
  scan 0 first;
  for i = 1 to n - 1 do
    scan i (load i)
  done;
  let nruns = Array.fold_left ( + ) 0 member_runs in
  let run_ids = Array.make nruns 0 in
  let failing = Bitset.create nruns in
  let site_obs = Array.init nsites (fun j -> Array.make site_lens.(j) 0) in
  let pred_true = Array.init npreds (fun j -> Array.make pred_lens.(j) 0) in
  let site_fill = Array.make (max nsites 1) 0 in
  let pred_fill = Array.make (max npreds 1) 0 in
  let off = ref 0 in
  for i = 0 to n - 1 do
    let s = load i in
    if s.nruns <> member_runs.(i) then
      invalid_arg "Segment.concat: member changed between passes";
    Array.blit s.run_ids 0 run_ids !off s.nruns;
    for p = 0 to s.nruns - 1 do
      if Bitset.get s.failing p then Bitset.set failing (!off + p)
    done;
    let fill fills dst src =
      Array.iteri
        (fun j posting ->
          let out = dst.(j) and k0 = fills.(j) in
          Array.iteri (fun k p -> out.(k0 + k) <- p + !off) posting;
          fills.(j) <- k0 + Array.length posting)
        src
    in
    fill site_fill site_obs s.site_obs;
    fill pred_fill pred_true s.pred_true;
    off := !off + s.nruns
  done;
  (* The merged file spans several source byte ranges, so the in-file
     provenance triple is meaningless — the manifest's cover list is
     authoritative for merged segments. *)
  {
    source_shard = 0;
    start_off = 0;
    end_off = 0;
    nsites;
    npreds;
    nruns;
    run_ids;
    failing;
    site_obs;
    pred_true;
  }

let concat segs =
  let arr = Array.of_list segs in
  concat_n ~load:(fun i -> arr.(i)) (Array.length arr)

(* --- binary encoding --- *)

let add_le buf width v =
  for i = 0 to width - 1 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xFF))
  done

let read_le s pos width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

let bitmap_bytes nruns = (nruns + 7) / 8

let add_bitmap buf failing nruns =
  let nbytes = bitmap_bytes nruns in
  let bitmap = Bytes.make nbytes '\000' in
  for pos = 0 to nruns - 1 do
    if Bitset.get failing pos then
      Bytes.set bitmap (pos / 8)
        (Char.chr (Char.code (Bytes.get bitmap (pos / 8)) lor (1 lsl (pos mod 8))))
  done;
  Buffer.add_bytes buf bitmap

let parse_bitmap s off nruns =
  let failing = Bitset.create nruns in
  for p = 0 to nruns - 1 do
    if Char.code s.[off + (p / 8)] land (1 lsl (p mod 8)) <> 0 then Bitset.set failing p
  done;
  failing

(* A posting's bytes: bare delta varints, no count prefix — the first
   position, then each gap to the one before.  The file heap writes whole
   postings ([add_deltas]; lengths and counts live in the footer
   directory); the live tail writes one gap at a time. *)
let add_deltas buf posting =
  let prev = ref 0 in
  Array.iteri
    (fun i pos ->
      Codec.add_varint buf (if i = 0 then pos else pos - !prev);
      prev := pos)
    posting

(* each varint ends at its one byte below 0x80 *)
let count_deltas s pos limit =
  let n = ref 0 in
  for i = pos to limit - 1 do
    if Char.code s.[i] < 0x80 then incr n
  done;
  !n

let read_deltas s pos limit ~count ~nruns =
  let posting = Array.make count 0 in
  let prev = ref (-1) in
  for i = 0 to count - 1 do
    let v = Codec.read_varint s pos limit in
    let p = if i = 0 then v else !prev + v in
    if i > 0 && v = 0 then raise (Corrupt "posting positions not strictly increasing");
    if p >= nruns then raise (Corrupt "posting position out of range");
    posting.(i) <- p;
    prev := p
  done;
  posting

let encode t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  Codec.add_varint buf format_version;
  Codec.add_varint buf t.source_shard;
  Codec.add_varint buf t.start_off;
  Codec.add_varint buf t.end_off;
  Codec.add_varint buf t.nsites;
  Codec.add_varint buf t.npreds;
  Codec.add_varint buf t.nruns;
  let run_ids_off = Buffer.length buf in
  Array.iter (Codec.add_varint buf) t.run_ids;
  let bitmap_off = Buffer.length buf in
  add_bitmap buf t.failing t.nruns;
  let heap_off = Buffer.length buf in
  let add_heap posting =
    let before = Buffer.length buf in
    add_deltas buf posting;
    Buffer.length buf - before
  in
  let site_lens = Array.map add_heap t.site_obs in
  let pred_lens = Array.map add_heap t.pred_true in
  (* footer: §3.1 failure splits + the posting directory, so a reader can
     recover aggregates and any single posting without the heap *)
  let footer_off = Buffer.length buf in
  let fcount posting =
    Array.fold_left (fun a pos -> if Bitset.get t.failing pos then a + 1 else a) 0 posting
  in
  Codec.add_varint buf (Bitset.count t.failing);
  Array.iter (fun posting -> Codec.add_varint buf (fcount posting)) t.pred_true;
  Array.iter (fun posting -> Codec.add_varint buf (fcount posting)) t.site_obs;
  Array.iteri
    (fun i posting ->
      Codec.add_varint buf (Array.length posting);
      Codec.add_varint buf site_lens.(i))
    t.site_obs;
  Array.iteri
    (fun i posting ->
      Codec.add_varint buf (Array.length posting);
      Codec.add_varint buf pred_lens.(i))
    t.pred_true;
  Codec.add_varint buf run_ids_off;
  Codec.add_varint buf bitmap_off;
  Codec.add_varint buf heap_off;
  let footer_len = Buffer.length buf - footer_off in
  let body = Buffer.contents buf in
  add_le buf 8 footer_off;
  add_le buf 4 (Sbi_util.Crc32.sub body ~pos:footer_off ~len:footer_len);
  let with_trailer = Buffer.contents buf in
  add_le buf 4
    (Sbi_util.Crc32.sub with_trailer ~pos:(String.length magic)
       ~len:(String.length with_trailer - String.length magic));
  Buffer.contents buf

(* --- footer --- *)

type footer = {
  ft_version : int;
  ft_source_shard : int;
  ft_start_off : int;
  ft_end_off : int;
  ft_nsites : int;
  ft_npreds : int;
  ft_nruns : int;
  ft_num_f : int;
  ft_f_pred : int array;
  ft_f_obs_site : int array;
  ft_site_dir : (int * int * int) array;
  ft_pred_dir : (int * int * int) array;
  ft_run_ids_off : int;
  ft_bitmap_off : int;
  ft_heap_off : int;
  ft_size : int;
}

(* Parse the footer region given the already-parsed header.  [s] holds the
   bytes of [footer_off, size - trailer_len) — either a slice read from
   disk (lazy open) or the full file (decode, with [base = footer_off]). *)
let parse_footer s ~base ~len ~header ~size =
  let version, source_shard, start_off, end_off, nsites, npreds, nruns = header in
  let pos = ref base in
  let limit = base + len in
  let rd () = Codec.read_varint s pos limit in
  let num_f = rd () in
  if num_f > nruns then raise (Corrupt "footer num_f exceeds run count");
  let f_pred = Array.init npreds (fun _ -> rd ()) in
  let f_obs_site = Array.init nsites (fun _ -> rd ()) in
  let raw_dir n = Array.init n (fun _ -> let count = rd () in let blen = rd () in (count, blen)) in
  let site_raw = raw_dir nsites in
  let pred_raw = raw_dir npreds in
  let run_ids_off = rd () in
  let bitmap_off = rd () in
  let heap_off = rd () in
  if !pos <> limit then raise (Corrupt "trailing bytes in segment footer");
  let footer_off = size - trailer_len - len in
  if
    run_ids_off > bitmap_off || bitmap_off > heap_off || heap_off > footer_off
    || bitmap_off - run_ids_off < 0
    || heap_off - bitmap_off <> bitmap_bytes nruns
  then raise (Corrupt "inconsistent segment section offsets");
  let heap = ref heap_off in
  let abs_dir raw =
    Array.map
      (fun (count, blen) ->
        if count > nruns then raise (Corrupt "posting longer than run count");
        let off = !heap in
        heap := !heap + blen;
        if !heap > footer_off then raise (Corrupt "posting directory overruns heap");
        (off, blen, count))
      raw
  in
  let site_dir = abs_dir site_raw in
  let pred_dir = abs_dir pred_raw in
  if !heap <> footer_off then raise (Corrupt "posting heap size mismatch");
  {
    ft_version = version;
    ft_source_shard = source_shard;
    ft_start_off = start_off;
    ft_end_off = end_off;
    ft_nsites = nsites;
    ft_npreds = npreds;
    ft_nruns = nruns;
    ft_num_f = num_f;
    ft_f_pred = f_pred;
    ft_f_obs_site = f_obs_site;
    ft_site_dir = site_dir;
    ft_pred_dir = pred_dir;
    ft_run_ids_off = run_ids_off;
    ft_bitmap_off = bitmap_off;
    ft_heap_off = heap_off;
    ft_size = size;
  }

let footer_aggregator ~pred_site ft =
  let agg = Aggregator.empty ~nsites:ft.ft_nsites ~npreds:ft.ft_npreds ~pred_site in
  agg.Aggregator.num_f <- ft.ft_num_f;
  agg.Aggregator.num_s <- ft.ft_nruns - ft.ft_num_f;
  Array.iteri
    (fun p (_, _, count) ->
      let f = ft.ft_f_pred.(p) in
      if f > count then raise (Corrupt "footer failing count exceeds posting count");
      agg.Aggregator.f.(p) <- f;
      agg.Aggregator.s.(p) <- count - f)
    ft.ft_pred_dir;
  Array.iteri
    (fun i (_, _, count) ->
      let f = ft.ft_f_obs_site.(i) in
      if f > count then raise (Corrupt "footer failing count exceeds posting count");
      agg.Aggregator.f_obs_site.(i) <- f;
      agg.Aggregator.s_obs_site.(i) <- count - f)
    ft.ft_site_dir;
  agg

(* --- decoding --- *)

let parse_header s pos limit =
  let rd () = Codec.read_varint s pos limit in
  let version = rd () in
  if version <> format_version then
    raise (Corrupt (Printf.sprintf "unsupported segment version %d" version));
  let source_shard = rd () in
  let start_off = rd () in
  let end_off = rd () in
  let nsites = rd () in
  let npreds = rd () in
  let nruns = rd () in
  (version, source_shard, start_off, end_off, nsites, npreds, nruns)

let decode s =
  let n = String.length s in
  if n < String.length magic + 4 || String.sub s 0 (String.length magic) <> magic then
    raise (Corrupt "bad magic");
  let body_len = n - 4 in
  let stored = read_le s body_len 4 in
  let computed =
    Sbi_util.Crc32.sub s ~pos:(String.length magic) ~len:(body_len - String.length magic)
  in
  if stored <> computed then raise (Corrupt "CRC mismatch");
  let pos = ref (String.length magic) in
  try
    let header = parse_header s pos body_len in
    let _, source_shard, start_off, end_off, nsites, npreds, nruns = header in
    if n < trailer_len + String.length magic then raise (Corrupt "segment too small");
    let footer_off = read_le s (n - trailer_len) 8 in
    if footer_off < !pos || footer_off > n - trailer_len then
      raise (Corrupt "footer offset out of bounds");
    let ft = parse_footer s ~base:footer_off ~len:(n - trailer_len - footer_off) ~header ~size:n in
    if ft.ft_run_ids_off <> !pos then raise (Corrupt "header/footer offset mismatch");
    let run_ids = Array.init nruns (fun _ -> Codec.read_varint s pos ft.ft_bitmap_off) in
    if !pos <> ft.ft_bitmap_off then raise (Corrupt "run-id section size mismatch");
    let failing = parse_bitmap s ft.ft_bitmap_off nruns in
    if Bitset.count failing <> ft.ft_num_f then
      raise (Corrupt "footer num_f disagrees with outcome bitmap");
    let load (off, blen, count) =
      let p = ref off in
      let posting = read_deltas s p (off + blen) ~count ~nruns in
      if !p <> off + blen then raise (Corrupt "posting byte length mismatch");
      posting
    in
    let site_obs = Array.map load ft.ft_site_dir in
    let pred_true = Array.map load ft.ft_pred_dir in
    { source_shard; start_off; end_off; nsites; npreds; nruns; run_ids; failing; site_obs; pred_true }
  with Codec.Corrupt m -> raise (Corrupt m)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> decode s
  | exception Sys_error m -> raise (Corrupt m)

(* --- lazy access through one mapping ---

   A segment file is mapped whole, once, and its descriptor closed at
   once.  Every later read is a copy of a slice of that mapping, so the
   bytes stay readable after the file is unlinked, until the GC collects
   the last value holding the mapping.  The mapping is private and
   read-only in use: a segment file is never modified in place. *)

type mapping = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let map path =
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> raise (Corrupt "missing file")
  | exception Unix.Unix_error (e, _, _) -> raise (Corrupt ("cannot open: " ^ Unix.error_message e))
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          try
            Bigarray.array1_of_genarray
              (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| -1 |])
          with Unix.Unix_error (e, _, _) -> raise (Corrupt ("cannot map: " ^ Unix.error_message e)))

let slice (m : mapping) ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bigarray.Array1.dim m then raise (Corrupt "short read");
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Bigarray.Array1.unsafe_get m (pos + i))
  done;
  Bytes.unsafe_to_string b

let wrap_codec f = try f () with Codec.Corrupt m -> raise (Corrupt m)

let read_footer m =
  wrap_codec (fun () ->
      let size = Bigarray.Array1.dim m in
      if size < String.length magic + trailer_len then raise (Corrupt "segment too small");
      let head_len = min size 128 in
      let head = slice m ~pos:0 ~len:head_len in
      if String.sub head 0 (String.length magic) <> magic then raise (Corrupt "bad magic");
      let pos = ref (String.length magic) in
      let header = parse_header head pos head_len in
      let trailer = slice m ~pos:(size - trailer_len) ~len:trailer_len in
      let footer_off = read_le trailer 0 8 in
      let footer_crc = read_le trailer 8 4 in
      if footer_off < !pos || footer_off > size - trailer_len then
        raise (Corrupt "footer offset out of bounds");
      let flen = size - trailer_len - footer_off in
      let fbytes = slice m ~pos:footer_off ~len:flen in
      if Sbi_util.Crc32.string fbytes <> footer_crc then raise (Corrupt "footer CRC mismatch");
      parse_footer fbytes ~base:0 ~len:flen ~header ~size)

let read_failing m ft =
  parse_bitmap (slice m ~pos:ft.ft_bitmap_off ~len:(bitmap_bytes ft.ft_nruns)) 0 ft.ft_nruns

let read_posting m ft kind i =
  wrap_codec (fun () ->
      let dir = match kind with `Site -> ft.ft_site_dir | `Pred -> ft.ft_pred_dir in
      if i < 0 || i >= Array.length dir then invalid_arg "Segment.read_posting";
      let off, blen, count = dir.(i) in
      (* an empty posting is answered from the directory alone; one that
         still claims bytes is a length mismatch *)
      if count = 0 then
        if blen = 0 then [||] else raise (Corrupt "posting byte length mismatch")
      else begin
        let s = slice m ~pos:off ~len:blen in
        let pos = ref 0 in
        let posting = read_deltas s pos blen ~count ~nruns:ft.ft_nruns in
        if !pos <> blen then raise (Corrupt "posting byte length mismatch");
        posting
      end)
