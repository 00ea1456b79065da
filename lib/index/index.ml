open Sbi_runtime
open Sbi_ingest
module Tier = Sbi_store.Tier
module Segment = Sbi_store.Segment

exception Format_error of string

let manifest_magic = "sbi-index"
let manifest_version = 2
let manifest_file dir = Filename.concat dir "manifest"
let seg_file_name i = Printf.sprintf "seg-%04d.sbix" i
let seg_file_id name = Scanf.sscanf_opt name "seg-%d.sbix%!" (fun i -> i)

type build_stats = {
  segments_added : int;
  records_indexed : int;
  corrupt_skipped : int;
  bytes_consumed : int;
}

type open_stats = { segments_loaded : int; segments_corrupt : int; records_loaded : int }

(* The live tail: one append-only posting buffer per site, one per
   predicate and one of the failing runs, laid out as {!Snapshot.tail}
   documents, each in the segment heap's bare delta varints.  A buffer
   only grows: an append writes past every byte a snapshot captured, and
   a full buffer is copied into fresh bytes, so a capture stays valid.
   Posting [j]'s write state sits in [t_state] at [3j]: bytes written,
   its last position (0 while empty), and the last offset at which any
   gap still fits ([Bytes.length] less {!Codec.max_varint_bytes}) — one
   cache line per posting, where separate arrays and the buffer's own
   header cost the fold three or four. *)
type tail = {
  t_bufs : Bytes.t array;
  t_state : int array;
  mutable t_len : int;
  t_agg : Aggregator.t;
}

type t = {
  dir : string;
  meta : Dataset.t;
  log_dir : string option;
  segments : Segref.t array;
  sealed : Aggregator.t;  (* merged aggregate of [segments], fixed at open *)
  cache : Segref.cache;
  stats : open_stats;
  tail : tail;
  mutable epoch : int;  (* bumped by every accepted append *)
  mutable snap : Snapshot.t option;  (* cache, valid while epochs match *)
}

(* --- manifest --- *)

(* A leaf segment covers one byte range of one source shard ([m_cover] is
   a singleton); a merged segment produced by compaction covers the
   concatenation of its inputs' ranges, in run order.  The cover list is
   what repair needs to roll consumed offsets back when a segment is
   lost — the provenance triple inside a merged file is zeroed. *)
type mseg = {
  m_file : string;
  m_cover : (int * int * int) list;  (* (shard, start, end) in run order *)
  m_runs : int;
  m_merged : bool;
}

type manifest = {
  man_log : string option;
  man_consumed : (int * int) list;  (* source shard -> bytes consumed *)
  man_segs : mseg list;  (* in run order *)
}

let empty_manifest = { man_log = None; man_consumed = []; man_segs = [] }

let render_manifest m =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "%s %d\n" manifest_magic manifest_version);
  (match m.man_log with Some d -> Buffer.add_string buf ("log " ^ d ^ "\n") | None -> ());
  List.iter
    (fun (shard, bytes) -> Buffer.add_string buf (Printf.sprintf "shard %d consumed %d\n" shard bytes))
    (List.sort (fun (s1, _) (s2, _) -> Int.compare s1 s2) m.man_consumed);
  List.iter
    (fun s ->
      match (s.m_merged, s.m_cover) with
      | false, [ (shard, a, b) ] ->
          Buffer.add_string buf
            (Printf.sprintf "segment %s shard %d range %d %d runs %d\n" s.m_file shard a b
               s.m_runs)
      | _ ->
          Buffer.add_string buf
            (Printf.sprintf "merged %s runs %d cover %d%s\n" s.m_file s.m_runs
               (List.length s.m_cover)
               (String.concat ""
                  (List.map
                     (fun (shard, a, b) -> Printf.sprintf " %d %d %d" shard a b)
                     s.m_cover))))
    m.man_segs;
  Buffer.contents buf

let parse_manifest path s =
  let fail line msg =
    raise (Format_error (Printf.sprintf "%s:%d: %s" path line msg))
  in
  let lines = String.split_on_char '\n' s in
  match lines with
  | [] -> fail 1 "empty manifest"
  | header :: rest -> (
      (match String.split_on_char ' ' header with
      | [ m; v ] when m = manifest_magic -> (
          match int_of_string_opt v with
          | Some v when v >= 1 && v <= manifest_version -> ()
          | Some v -> fail 1 (Printf.sprintf "unsupported manifest version %d" v)
          | None -> fail 1 "bad manifest version")
      | _ -> fail 1 "not an index manifest");
      let man = ref empty_manifest in
      let parse_merged lineno line =
        match String.split_on_char ' ' line with
        | "merged" :: file :: "runs" :: r :: "cover" :: k :: rest -> (
            match (int_of_string_opt r, int_of_string_opt k) with
            | Some runs, Some k when k >= 1 && List.length rest = 3 * k -> (
                match List.map int_of_string_opt rest with
                | ints when List.for_all Option.is_some ints ->
                    let ints = Array.of_list (List.map Option.get ints) in
                    let cover =
                      List.init k (fun i ->
                          (ints.(3 * i), ints.((3 * i) + 1), ints.((3 * i) + 2)))
                    in
                    { m_file = file; m_cover = cover; m_runs = runs; m_merged = true }
                | _ -> fail lineno ("bad merged cover: " ^ line))
            | _ -> fail lineno ("bad merged line: " ^ line))
        | _ -> fail lineno ("unrecognized manifest line: " ^ line)
      in
      List.iteri
        (fun i line ->
          let lineno = i + 2 in
          if line <> "" then
            if String.length line > 4 && String.sub line 0 4 = "log " then
              man := { !man with man_log = Some (String.sub line 4 (String.length line - 4)) }
            else
              match Scanf.sscanf_opt line "shard %d consumed %d%!" (fun a b -> (a, b)) with
              | Some (shard, bytes) ->
                  man := { !man with man_consumed = (shard, bytes) :: !man.man_consumed }
              | None -> (
                  match
                    Scanf.sscanf_opt line "segment %s shard %d range %d %d runs %d%!"
                      (fun f sh a b r ->
                        { m_file = f; m_cover = [ (sh, a, b) ]; m_runs = r; m_merged = false })
                  with
                  | Some seg -> man := { !man with man_segs = seg :: !man.man_segs }
                  | None ->
                      man := { !man with man_segs = parse_merged lineno line :: !man.man_segs }))
        rest;
      { !man with man_consumed = List.rev !man.man_consumed; man_segs = List.rev !man.man_segs })

let read_file ?io path = Sbi_fault.Io.read_file ?io path

let write_file_atomic ?io path content = Sbi_fault.Io.write_file_atomic ?io path content

let file_size path = try Sbi_fault.Io.file_size path with Unix.Unix_error _ | Sys_error _ -> 0

let load_manifest dir =
  let path = manifest_file dir in
  if not (Sys.file_exists path) then raise (Format_error (path ^ ": missing manifest"));
  parse_manifest path (read_file path)

let load_meta dir =
  try Shard_log.read_meta ~dir
  with Shard_log.Format_error m -> raise (Format_error m)

let tables_match (a : Dataset.t) (b : Dataset.t) =
  a.Dataset.nsites = b.Dataset.nsites
  && a.Dataset.npreds = b.Dataset.npreds
  && a.Dataset.pred_site = b.Dataset.pred_site

(* --- building --- *)

(* Offset of the first record in a shard file, or None for a header torn
   by a killed writer (an empty crashed shard: nothing to index yet, and
   nothing was ever acknowledged from it). *)
let shard_header_end path s =
  match Shard_log.parse_header s with
  | Ok (_, off) -> Some off
  | Error `Torn_header -> None
  | Error (`Bad m) -> raise (Format_error (path ^ ": " ^ m))

(* Scan framed records in [s] from [start]: intact reports, corrupt count,
   and the clean resume offset (start of any truncated tail, else EOF). *)
let scan_range s ~start =
  let n = String.length s in
  let reports = ref [] in
  let corrupt = ref 0 in
  let pos = ref start in
  let continue = ref true in
  while !continue && !pos < n do
    match Codec.read_framed s ~pos:!pos with
    | Codec.Frame (r, next) ->
        reports := r :: !reports;
        pos := next
    | Codec.Frame_corrupt next ->
        incr corrupt;
        pos := next
    | Codec.Frame_truncated -> continue := false
  done;
  (Array.of_list (List.rev !reports), !corrupt, !pos)

(* Ids already used by the manifest OR present as files (an orphan left by
   a killed build/compaction must not be silently overwritten — repair
   owns deleting it). *)
let next_seg_id ~dir man =
  let from_man =
    List.fold_left
      (fun acc s -> match seg_file_id s.m_file with Some i -> max acc (i + 1) | None -> acc)
      0 man.man_segs
  in
  let from_dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> 0
    | names ->
        Array.fold_left
          (fun acc name ->
            match seg_file_id name with Some i -> max acc (i + 1) | None -> acc)
          0 names
  in
  max from_man from_dir

let build_impl ?io ~log ~dir () =
  let log_meta =
    try Shard_log.read_meta ~dir:log
    with Shard_log.Format_error m -> raise (Format_error m)
  in
  let man =
    if Sys.file_exists (manifest_file dir) then begin
      let meta = load_meta dir in
      if not (tables_match meta log_meta) then
        raise
          (Format_error
             (Printf.sprintf "%s: site/predicate tables do not match log %s" dir log));
      load_manifest dir
    end
    else begin
      (* fresh index: establish the directory and tables *)
      Shard_log.write_meta ?io ~dir log_meta;
      empty_manifest
    end
  in
  let next_id = ref (next_seg_id ~dir man) in
  let consumed = ref man.man_consumed in
  let new_segs = ref [] in
  let stats = ref { segments_added = 0; records_indexed = 0; corrupt_skipped = 0; bytes_consumed = 0 } in
  List.iter
    (fun (shard, path) ->
      let s = read_file path in
      let n = String.length s in
      let already = match List.assoc_opt shard !consumed with Some b -> b | None -> 0 in
      let start =
        if already = 0 then match shard_header_end path s with Some off -> off | None -> n
        else already
      in
      if start < n then begin
        let reports, corrupt, stop = scan_range s ~start in
        (if Array.length reports > 0 then begin
           let seg =
             Segment.of_reports ~nsites:log_meta.Dataset.nsites ~npreds:log_meta.Dataset.npreds
               ~source_shard:shard ~start_off:start ~end_off:stop reports
           in
           let file = seg_file_name !next_id in
           incr next_id;
           write_file_atomic ?io (Filename.concat dir file) (Segment.encode seg);
           new_segs :=
             { m_file = file; m_cover = [ (shard, start, stop) ]; m_runs = seg.Segment.nruns;
               m_merged = false }
             :: !new_segs;
           stats :=
             { !stats with
               segments_added = !stats.segments_added + 1;
               records_indexed = !stats.records_indexed + Array.length reports }
         end);
        stats :=
          { !stats with
            corrupt_skipped = !stats.corrupt_skipped + corrupt;
            bytes_consumed = !stats.bytes_consumed + (stop - start) };
        consumed := (shard, stop) :: List.remove_assoc shard !consumed
      end)
    (Shard_log.shard_files ~dir:log);
  let man =
    {
      man_log = Some log;
      man_consumed = !consumed;
      man_segs = man.man_segs @ List.rev !new_segs;
    }
  in
  write_file_atomic ?io (manifest_file dir) (render_manifest man);
  !stats

let build ?io ~log ~dir () =
  Sbi_obs.Trace.with_span ~name:"index.build" ~args:log (fun () -> build_impl ?io ~log ~dir ())

(* --- opening --- *)

let empty_tail (meta : Dataset.t) =
  let n = meta.Dataset.nsites + meta.Dataset.npreds + 1 in
  {
    t_bufs = Array.make n Bytes.empty;
    t_state = Array.init (3 * n) (fun i -> if i mod 3 = 2 then -Codec.max_varint_bytes else 0);
    t_len = 0;
    t_agg = Aggregator.of_meta meta;
  }

(* Lazy open: each segment file is mapped once and contributes its footer
   (a few hundred bytes) and a footer-derived aggregate — postings stay in
   the mapping until a query touches them.  Anything the footer path
   rejects, a missing file or another format version included, is a
   corrupt segment: skipped and counted. *)
let open_body ~dir =
  let meta = load_meta dir in
  let man = load_manifest dir in
  let cache = Segref.create_cache () in
  let load m =
    let path = Filename.concat dir m.m_file in
    match
      let map = Segment.map path in
      (map, Segment.read_footer map)
    with
    | exception Segment.Corrupt msg -> Error msg
    | map, ft -> (
        if
          ft.Segment.ft_nsites <> meta.Dataset.nsites
          || ft.Segment.ft_npreds <> meta.Dataset.npreds
        then Error "table size mismatch"
        else if ft.Segment.ft_nruns <> m.m_runs then Error "run count disagrees with manifest"
        else
          match Segment.footer_aggregator ~pred_site:meta.Dataset.pred_site ft with
          | agg -> Ok (Segref.of_disk ~cache ~path ~file:m.m_file map ft, agg, ft.Segment.ft_nruns)
          | exception Segment.Corrupt msg -> Error msg)
  in
  let segs = ref [] in
  let sealed = Aggregator.of_meta meta in
  let loaded = ref 0 and corrupt = ref 0 and records = ref 0 in
  List.iter
    (fun m ->
      match load m with
      | Ok (sr, agg, nruns) ->
          segs := sr :: !segs;
          Aggregator.merge_into ~into:sealed agg;
          incr loaded;
          records := !records + nruns
      | Error _ -> incr corrupt)
    man.man_segs;
  {
    dir;
    meta;
    log_dir = man.man_log;
    segments = Array.of_list (List.rev !segs);
    sealed;
    cache;
    stats = { segments_loaded = !loaded; segments_corrupt = !corrupt; records_loaded = !records };
    tail = empty_tail meta;
    epoch = 0;
    snap = None;
  }

let open_ ~dir = Sbi_obs.Trace.with_span ~name:"index.open" ~args:dir (fun () -> open_body ~dir)

let cache_stats t = Sbi_store.Lru.stats t.cache

(* --- live tail --- *)

(* Ids must be in range and strictly ascending, as {!Report.t} documents:
   [append] writes the tail's postings unchecked, and a repeated id would
   put a zero gap into its tail posting, which the delta encoding cannot
   hold, and count twice in the tail aggregate. *)
let validate_ids what bound ids =
  let prev = ref (-1) in
  for i = 0 to Array.length ids - 1 do
    let id = Array.unsafe_get ids i in
    if id <= !prev || id >= bound then
      if id < 0 || id >= bound then
        invalid_arg (Printf.sprintf "Index.append: %s %d out of range" what id)
      else invalid_arg (Printf.sprintf "Index.append: %s %d does not follow %d" what id !prev);
    prev := id
  done

let validate_report meta (r : Report.t) =
  if r.Report.run_id < 0 then invalid_arg "Index.append: negative run id";
  validate_ids "site" meta.Dataset.nsites r.Report.observed_sites;
  validate_ids "predicate" meta.Dataset.npreds r.Report.true_preds

let validate t r = validate_report t.meta r

(* Append tail position [pos] to posting [j], a valid posting id: its gap
   from the posting's last position, into a buffer grown first when the
   gap might not fit. *)
let push tail j pos =
  let st = tail.t_state and k = 3 * j in
  let used = st.(k) and buf = tail.t_bufs.(j) in
  let buf =
    if used <= st.(k + 2) then buf
    else begin
      let grown = Bytes.create (max 16 (2 * Bytes.length buf)) in
      Bytes.blit buf 0 grown 0 used;
      tail.t_bufs.(j) <- grown;
      st.(k + 2) <- Bytes.length grown - Codec.max_varint_bytes;
      grown
    end
  in
  st.(k) <- Codec.put_varint buf used (pos - st.(k + 1));
  st.(k + 1) <- pos

(* [push] for each of [ids], validated ids of postings [off ..], inline
   for the common case: a one-byte gap into a buffer with room. *)
let push_ids tail ids ~off pos =
  let st = tail.t_state and bufs = tail.t_bufs in
  for i = 0 to Array.length ids - 1 do
    let j = off + Array.unsafe_get ids i in
    let k = 3 * j in
    let used = Array.unsafe_get st k and gap = pos - Array.unsafe_get st (k + 1) in
    if gap < 0x80 && used <= Array.unsafe_get st (k + 2) then begin
      Bytes.unsafe_set (Array.unsafe_get bufs j) used (Char.unsafe_chr gap);
      Array.unsafe_set st k (used + 1);
      Array.unsafe_set st (k + 1) pos
    end
    else push tail j pos
  done

let append t (r : Report.t) =
  validate_report t.meta r;
  let tail = t.tail and nsites = t.meta.Dataset.nsites in
  let pos = tail.t_len in
  push_ids tail r.Report.observed_sites ~off:0 pos;
  push_ids tail r.Report.true_preds ~off:nsites pos;
  if Report.outcome_is_failure r.Report.outcome then push tail (nsites + t.meta.Dataset.npreds) pos;
  tail.t_len <- pos + 1;
  Aggregator.observe tail.t_agg r;
  (* the write side of the epoch protocol: any snapshot built before this
     append is now stale (readers still holding it stay consistent) *)
  t.epoch <- t.epoch + 1

let tail_count t = t.tail.t_len
let tail_bytes t = Array.fold_left (fun n buf -> n + Bytes.length buf) 0 t.tail.t_bufs
let epoch t = t.epoch

(* The tail record is shared, not copied: [from] must take no further
   appends, and snapshots of it keep reading its own segments. *)
let with_tail_of fresh ~from = { fresh with tail = from.tail; epoch = from.epoch + 1; snap = None }

(* --- epoch-versioned snapshot --- *)

let snapshot t =
  match t.snap with
  | Some s when Snapshot.epoch s = t.epoch -> s
  | _ ->
      (* only the rebuild branch is a span: cache hits are the common
         case and must stay free of instrumentation.  A rebuild costs
         O(npreds + nsites) however long the tail: the sealed aggregate
         is fixed at open, [append] keeps the tail's current, and the
         tail is captured as its buffers and their lengths *)
      let tail = t.tail in
      let s =
        Sbi_obs.Trace.with_span ~name:"index.snapshot"
          ~args:(Printf.sprintf "epoch=%d" t.epoch) (fun () ->
            Snapshot.build ~epoch:t.epoch ~meta:t.meta
              ~counts:(Aggregator.to_counts (Aggregator.merge t.sealed tail.t_agg))
              ~tail:
                {
                  Snapshot.bufs = Array.copy tail.t_bufs;
                  used = Array.init (Array.length tail.t_bufs) (fun j -> tail.t_state.(3 * j));
                  len = tail.t_len;
                }
              t.segments)
      in
      t.snap <- Some s;
      s

let nruns t = Array.fold_left (fun acc sr -> acc + Segref.nruns sr) t.tail.t_len t.segments

let num_failures t =
  Array.fold_left
    (fun acc sr -> acc + Segref.num_f sr)
    t.tail.t_agg.Aggregator.num_f t.segments

(* --- compaction --- *)

type compact_stats = {
  cp_rounds : int;
  cp_merged : int;  (* input segments merged away *)
  cp_written : int;  (* merged segments written *)
  cp_segments_before : int;
  cp_segments_after : int;
  cp_bytes_before : int;
  cp_bytes_after : int;
  cp_reclaimed : string list;  (* obsolete segment files, deleted after the last manifest write *)
}

type compact_plan = {
  pl_tiers : (int * int * int * int) list;  (* tier, segments, runs, bytes *)
  pl_groups : (int * string list) list;  (* tier -> files that would merge *)
}

let tier_segs ~dir man =
  List.mapi
    (fun i m ->
      { Tier.ts_index = i; ts_runs = m.m_runs; ts_bytes = file_size (Filename.concat dir m.m_file) })
    man.man_segs

let compact_plan ?tier_max ~dir () =
  let man = load_manifest dir in
  let tsegs = tier_segs ~dir man in
  let entries = Array.of_list man.man_segs in
  {
    pl_tiers = Tier.describe tsegs;
    pl_groups =
      List.map
        (fun (tier, idxs) -> (tier, List.map (fun i -> entries.(i).m_file) idxs))
        (Tier.plan ?tier_max tsegs);
  }

(* Coalesce adjacent cover ranges of one shard so repeated compaction
   keeps cover lists short (leaf ranges of a shard are contiguous). *)
let rec coalesce_cover = function
  | (s1, a1, b1) :: (s2, a2, b2) :: rest when s1 = s2 && a2 = b1 ->
      coalesce_cover ((s1, a1, b2) :: rest)
  | x :: rest -> x :: coalesce_cover rest
  | [] -> []

(* One compaction pass: while any tier is overfull, merge ALL members of
   each overfull tier into one segment, then rewrite the manifest
   atomically.  Obsolete inputs are deleted only after the last manifest
   write — a kill at any point leaves either the old manifest plus an
   orphan merged file, or the new manifest plus orphan inputs; both are
   cleaned by {!repair} and harmless to {!open_} (which reads only
   manifest-listed files).  An index opened before the deletions keeps
   reading the deleted files through its segments' mappings. *)
let compact_impl ?io ?tier_max ~dir () =
  let meta = load_meta dir in
  let man0 = load_manifest dir in
  let bytes_of m = List.fold_left (fun a s -> a + file_size (Filename.concat dir s.m_file)) 0 m.man_segs in
  let segments_before = List.length man0.man_segs in
  let bytes_before = bytes_of man0 in
  let man = ref man0 in
  let next_id = ref (next_seg_id ~dir man0) in
  let rounds = ref 0 and merged_away = ref 0 and written = ref 0 in
  let obsolete = ref [] in
  let continue = ref true in
  (* 8 rounds bounds any cascade: a merge can promote at most one tier
     per round, and real indexes have single-digit tiers *)
  while !continue && !rounds < 8 do
    match Tier.plan ?tier_max (tier_segs ~dir !man) with
    | [] -> continue := false
    | groups ->
        incr rounds;
        let entries = Array.of_list !man.man_segs in
        let replacement = Hashtbl.create 8 in
        (* entry index -> `New merged entry | `Gone *)
        List.iter
          (fun (_tier, idxs) ->
            let members = List.map (fun i -> entries.(i)) idxs in
            let member_arr = Array.of_list members in
            (* members are decoded on demand (twice, by concat_n's two
               passes) so a merge never holds more than one input's
               postings on top of the output *)
            let load i =
              let path = Filename.concat dir member_arr.(i).m_file in
              try Segment.load path
              with Segment.Corrupt msg ->
                raise (Format_error (path ^ ": " ^ msg ^ " (run repair before compact)"))
            in
            let merged = Segment.concat_n ~load (Array.length member_arr) in
            let file = seg_file_name !next_id in
            incr next_id;
            write_file_atomic ?io (Filename.concat dir file) (Segment.encode merged);
            incr written;
            merged_away := !merged_away + List.length members;
            obsolete := List.rev_append (List.map (fun m -> m.m_file) members) !obsolete;
            let entry =
              {
                m_file = file;
                m_cover = coalesce_cover (List.concat_map (fun m -> m.m_cover) members);
                m_runs = merged.Segment.nruns;
                m_merged = true;
              }
            in
            (match idxs with
            | first :: rest ->
                Hashtbl.replace replacement first (`New entry);
                List.iter (fun i -> Hashtbl.replace replacement i `Gone) rest
            | [] -> ()))
          groups;
        let segs' =
          List.concat
            (List.mapi
               (fun i m ->
                 match Hashtbl.find_opt replacement i with
                 | Some (`New e) -> [ e ]
                 | Some `Gone -> []
                 | None -> [ m ])
               !man.man_segs)
        in
        man := { !man with man_segs = segs' };
        write_file_atomic ?io (manifest_file dir) (render_manifest !man)
  done;
  ignore meta;
  let reclaimed = List.rev !obsolete in
  List.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) reclaimed;
  {
    cp_rounds = !rounds;
    cp_merged = !merged_away;
    cp_written = !written;
    cp_segments_before = segments_before;
    cp_segments_after = List.length !man.man_segs;
    cp_bytes_before = bytes_before;
    cp_bytes_after = bytes_of !man;
    cp_reclaimed = reclaimed;
  }

let compact ?io ?tier_max ~dir () =
  Sbi_obs.Trace.with_span ~name:"index.compact" ~args:dir (fun () ->
      compact_impl ?io ?tier_max ~dir ())

let pp_compact st =
  Printf.sprintf
    "%d round(s): %d segment(s) -> %d, %d merged into %d new, %d -> %d bytes\n"
    st.cp_rounds st.cp_segments_before st.cp_segments_after st.cp_merged st.cp_written
    st.cp_bytes_before st.cp_bytes_after

let pp_plan pl =
  let buf = Buffer.create 256 in
  List.iter
    (fun (tier, nsegs, runs, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "  tier %d: %d segment(s), %d runs, %d bytes\n" tier nsegs runs bytes))
    pl.pl_tiers;
  if pl.pl_groups = [] then Buffer.add_string buf "nothing to compact\n"
  else
    List.iter
      (fun (tier, files) ->
        Buffer.add_string buf
          (Printf.sprintf "would merge %d segment(s) of tier %d: %s\n" (List.length files)
             tier (String.concat " " files)))
      pl.pl_groups;
  Buffer.contents buf

(* --- fsck --- *)

type fsck_seg = {
  seg_file : string;
  seg_ok : bool;
  seg_runs : int;
  seg_tier : int;
  seg_bytes : int;
  seg_error : string option;
}

type fsck_report = {
  fsck_segments : fsck_seg list;
  fsck_ok : int;
  fsck_corrupt : int;
  fsck_records : int;
  fsck_tiers : (int * int * int * int) list;  (* tier, segments, runs, bytes *)
  fsck_dead_files : string list;  (* unreferenced segment files + .tmp strays *)
  fsck_dead_bytes : int;
  fsck_live_bytes : int;
}

let fsck ~dir =
  let meta = load_meta dir in
  let man = load_manifest dir in
  let check m =
    let path = Filename.concat dir m.m_file in
    if not (Sys.file_exists path) then Error "missing file"
    else
      match Segment.load path with
      | exception Segment.Corrupt msg -> Error msg
      | seg ->
          if seg.Segment.nsites <> meta.Dataset.nsites || seg.Segment.npreds <> meta.Dataset.npreds
          then Error "table size mismatch with meta"
          else if seg.Segment.nruns <> m.m_runs then
            Error
              (Printf.sprintf "run count %d disagrees with manifest (%d)" seg.Segment.nruns
                 m.m_runs)
          else if
            (not m.m_merged)
            && (match m.m_cover with
               | [ (shard, _, _) ] -> seg.Segment.source_shard <> shard
               | _ -> true)
          then Error "source shard disagrees with manifest"
          else (
            (* exercise the lazy-open path too, so a footer-only
               corruption (the path open_ actually takes) is surfaced *)
            match Segment.read_footer (Segment.map path) with
            | ft ->
                if ft.Segment.ft_nruns <> seg.Segment.nruns then
                  Error "footer run count disagrees with body"
                else Ok seg
            | exception Segment.Corrupt msg -> Error ("footer: " ^ msg))
  in
  let segs =
    List.map
      (fun m ->
        let bytes = file_size (Filename.concat dir m.m_file) in
        match check m with
        | Ok seg ->
            {
              seg_file = m.m_file;
              seg_ok = true;
              seg_runs = seg.Segment.nruns;
              seg_tier = Tier.tier_of seg.Segment.nruns;
              seg_bytes = bytes;
              seg_error = None;
            }
        | Error msg ->
            {
              seg_file = m.m_file;
              seg_ok = false;
              seg_runs = 0;
              seg_tier = 0;
              seg_bytes = bytes;
              seg_error = Some msg;
            })
      man.man_segs
  in
  let ok_segs = List.filter (fun s -> s.seg_ok) segs in
  let listed = List.map (fun m -> m.m_file) man.man_segs in
  let dead =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
        Array.to_list names
        |> List.filter (fun name ->
               (seg_file_id name <> None && not (List.mem name listed))
               || Filename.check_suffix name ".tmp")
        |> List.sort String.compare
  in
  {
    fsck_segments = segs;
    fsck_ok = List.length ok_segs;
    fsck_corrupt = List.length segs - List.length ok_segs;
    fsck_records = List.fold_left (fun acc s -> acc + s.seg_runs) 0 segs;
    fsck_tiers =
      Tier.describe
        (List.map
           (fun s -> { Tier.ts_index = 0; ts_runs = s.seg_runs; ts_bytes = s.seg_bytes })
           ok_segs);
    fsck_dead_files = dead;
    fsck_dead_bytes = List.fold_left (fun acc f -> acc + file_size (Filename.concat dir f)) 0 dead;
    fsck_live_bytes = List.fold_left (fun acc s -> acc + s.seg_bytes) 0 ok_segs;
  }

(* --- repair --- *)

type repair_report = {
  rep_dropped : string list;
  rep_removed : string list;
  rep_rollbacks : (int * int * int) list;
}

(* A damaged segment invalidates everything indexed after it from the same
   source shard(s): the consumed offset only records the high-water mark,
   so the sole way to re-index the lost byte ranges is to roll each
   covered shard's offset back to the damaged segment's earliest cover
   start and drop every segment whose cover extends past a rollback point
   (their ranges would otherwise overlap the re-indexed bytes and
   double-count runs).  Dropping such a segment can poison further shards
   (merged segments cover several), so the drop set is closed under a
   fixpoint.  The next {!build} then re-consumes from the rollback
   points.  For an all-leaf manifest this reduces to the pre-tiering
   behavior: first bad segment of a shard plus all its later segments. *)
let repair ~dir =
  let clean_strays removed =
    Array.iter
      (fun name ->
        if Filename.check_suffix name ".tmp" then begin
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
          removed := name :: !removed
        end)
      (Sys.readdir dir)
  in
  if not (Sys.file_exists (Filename.concat dir Shard_log.meta_file)) then begin
    (* killed before the tables ever hit disk: nothing in the directory is
       trustworthy, so reset it to the fresh state the next build expects *)
    let removed = ref [] in
    let dropped = ref [] in
    Array.iter
      (fun name ->
        let is_seg = seg_file_id name <> None in
        if is_seg || name = "manifest" then begin
          (try Sys.remove (Filename.concat dir name) with Sys_error _ -> ());
          removed := name :: !removed;
          if is_seg then dropped := name :: !dropped
        end)
      (Sys.readdir dir);
    clean_strays removed;
    {
      rep_dropped = List.rev !dropped;
      rep_removed = List.sort_uniq String.compare !removed;
      rep_rollbacks = [];
    }
  end
  else begin
    let meta = load_meta dir in
    let man =
      (* killed between meta and the first manifest write: an empty manifest
         makes the next build re-index from scratch *)
      if Sys.file_exists (manifest_file dir) then load_manifest dir else empty_manifest
    in
    let seg_bad m =
      let path = Filename.concat dir m.m_file in
      if not (Sys.file_exists path) then true
      else
        match Segment.load path with
        | exception Segment.Corrupt _ -> true
        | seg ->
            seg.Segment.nsites <> meta.Dataset.nsites
            || seg.Segment.npreds <> meta.Dataset.npreds
            || seg.Segment.nruns <> m.m_runs
            || ((not m.m_merged)
               &&
               match m.m_cover with
               | [ (shard, _, _) ] -> seg.Segment.source_shard <> shard
               | _ -> true)
    in
    let entries = Array.of_list man.man_segs in
    let kept = Array.map (fun m -> not (seg_bad m)) entries in
    let poisoned = Hashtbl.create 8 in
    (* shard -> rollback offset (monotonically decreasing) *)
    let poison (shard, start, _stop) =
      match Hashtbl.find_opt poisoned shard with
      | Some cur when cur <= start -> ()
      | _ -> Hashtbl.replace poisoned shard start
    in
    Array.iteri (fun i m -> if not kept.(i) then List.iter poison m.m_cover) entries;
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iteri
        (fun i m ->
          if
            kept.(i)
            && List.exists
                 (fun (shard, _start, stop) ->
                   match Hashtbl.find_opt poisoned shard with
                   | Some off -> stop > off
                   | None -> false)
                 m.m_cover
          then begin
            kept.(i) <- false;
            List.iter poison m.m_cover;
            changed := true
          end)
        entries
    done;
    let keep = ref [] and dropped = ref [] in
    Array.iteri
      (fun i m -> if kept.(i) then keep := m :: !keep else dropped := m :: !dropped)
      entries;
    let keep = List.rev !keep and dropped = List.rev !dropped in
    let rollbacks = ref [] in
    let consumed =
      List.map
        (fun (shard, bytes) ->
          match Hashtbl.find_opt poisoned shard with
          | Some back when back < bytes ->
              rollbacks := (shard, bytes, back) :: !rollbacks;
              (shard, back)
          | _ -> (shard, bytes))
        man.man_consumed
    in
    let kept_files = List.map (fun m -> m.m_file) keep in
    let removed = ref [] in
    let remove_file name =
      let path = Filename.concat dir name in
      if Sys.file_exists path then begin
        (try Sys.remove path with Sys_error _ -> ());
        removed := name :: !removed
      end
    in
    (* dropped segments, orphan segment files a crashed build/compaction
       left unlisted, and stray temp files from killed atomic writes *)
    List.iter (fun m -> remove_file m.m_file) dropped;
    Array.iter
      (fun name ->
        let is_seg = seg_file_id name <> None in
        let is_tmp = Filename.check_suffix name ".tmp" in
        if (is_seg && not (List.mem name kept_files)) || is_tmp then remove_file name)
      (Sys.readdir dir);
    let man = { man with man_consumed = consumed; man_segs = keep } in
    write_file_atomic (manifest_file dir) (render_manifest man);
    {
      rep_dropped = List.map (fun m -> m.m_file) dropped;
      rep_removed = List.sort_uniq String.compare !removed;
      rep_rollbacks = List.rev !rollbacks;
    }
  end

let pp_repair r =
  let buf = Buffer.create 256 in
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "  dropped %s\n" f))
    r.rep_dropped;
  List.iter
    (fun f ->
      if not (List.mem f r.rep_dropped) then
        Buffer.add_string buf (Printf.sprintf "  removed stray %s\n" f))
    r.rep_removed;
  List.iter
    (fun (shard, from_, to_) ->
      Buffer.add_string buf
        (Printf.sprintf "  shard %d rolled back %d -> %d\n" shard from_ to_))
    r.rep_rollbacks;
  Buffer.add_string buf
    (Printf.sprintf "%d segment(s) dropped, %d file(s) removed, %d shard(s) rolled back\n"
       (List.length r.rep_dropped) (List.length r.rep_removed)
       (List.length r.rep_rollbacks));
  Buffer.contents buf

let pp_fsck r =
  let buf = Buffer.create 256 in
  List.iter
    (fun s ->
      match s.seg_error with
      | None ->
          Buffer.add_string buf
            (Printf.sprintf "  %s: ok, %d runs, tier %d, %d bytes\n" s.seg_file s.seg_runs
               s.seg_tier s.seg_bytes)
      | Some e -> Buffer.add_string buf (Printf.sprintf "  %s: CORRUPT (%s)\n" s.seg_file e))
    r.fsck_segments;
  List.iter
    (fun (tier, nsegs, runs, bytes) ->
      Buffer.add_string buf
        (Printf.sprintf "  tier %d: %d segment(s), %d runs, %d bytes\n" tier nsegs runs bytes))
    r.fsck_tiers;
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "  dead file %s\n" f))
    r.fsck_dead_files;
  Buffer.add_string buf
    (Printf.sprintf "%d segment(s): %d ok, %d corrupt, %d runs indexed, %d live bytes, %d dead bytes\n"
       (List.length r.fsck_segments) r.fsck_ok r.fsck_corrupt r.fsck_records r.fsck_live_bytes
       r.fsck_dead_bytes);
  Buffer.contents buf
