open Sbi_runtime

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt
let version = 1

(* --- varints (unsigned LEB128) --- *)

(* A while loop, not an inner [let rec]: a local closure here would be
   allocated on every call, and segment encoding makes one call per
   posting entry — tens of millions per compaction. *)
let add_varint buf n =
  if n < 0 then invalid_arg "Codec.add_varint: negative";
  let n = ref n in
  while !n >= 0x80 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !n)

(* nine 7-bit groups hold any non-negative int *)
let max_varint_bytes = 9

let put_varint b off n =
  if n < 0 then invalid_arg "Codec.put_varint: negative";
  let off = ref off and n = ref n in
  while !n >= 0x80 do
    Bytes.set b !off (Char.unsafe_chr (0x80 lor (!n land 0x7f)));
    incr off;
    n := !n lsr 7
  done;
  Bytes.set b !off (Char.unsafe_chr !n);
  !off + 1

(* Reads a varint from [s] at [!pos], bounded by [limit]; advances [pos].
   Nine 7-bit groups reach bit 62, the sign bit of a 63-bit int, so a
   final ninth byte of 0x40 to 0x7f would come back negative: a count or
   a length that no caller can use. *)
let read_varint s pos limit =
  let v = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    if !pos >= limit then corrupt "varint runs past end of record";
    if !shift > 62 then corrupt "varint too wide";
    let b = Char.code s.[!pos] in
    incr pos;
    v := !v lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b < 0x80 then fin := true
  done;
  if !v < 0 then corrupt "varint exceeds max_int";
  !v

(* --- int-array encodings --- *)

(* Strictly ascending, non-negative arrays (observed sites, true
   predicates) are delta-encoded: first element absolute, then successive
   differences.  This keeps nearly all varints to one byte for dense
   observation sets.  Both sides insist on distinct ids: a zero delta
   would make a reader count one id twice. *)
let add_sorted_deltas buf arr =
  add_varint buf (Array.length arr);
  let prev = ref (-1) in
  Array.iteri
    (fun i v ->
      if v <= !prev then invalid_arg "Codec: array not strictly ascending";
      add_varint buf (if i = 0 then v else v - !prev);
      prev := v)
    arr

let read_sorted_deltas s pos limit =
  let n = read_varint s pos limit in
  if n > limit - !pos then corrupt "array count %d exceeds record bounds" n;
  let arr = Array.make n 0 in
  let prev = ref (-1) in
  for i = 0 to n - 1 do
    let d = read_varint s pos limit in
    let v = if i = 0 then d else !prev + d in
    (* a zero delta repeats an id; an overflowing sum wraps below [prev] *)
    if v <= !prev then corrupt "id %d does not follow %d" v !prev;
    arr.(i) <- v;
    prev := v
  done;
  arr

(* Unordered non-negative arrays (ground-truth bug ids) and the counts
   parallel to [true_preds] are plain varint sequences. *)
let add_raw buf arr =
  add_varint buf (Array.length arr);
  Array.iter (fun v -> add_varint buf v) arr

let read_raw s pos limit =
  let n = read_varint s pos limit in
  if n > limit - !pos then corrupt "array count %d exceeds record bounds" n;
  Array.init n (fun _ -> read_varint s pos limit)

let read_raw_n s pos limit n = Array.init n (fun _ -> read_varint s pos limit)

(* --- report payload --- *)

let encode_to buf (r : Report.t) =
  add_varint buf version;
  add_varint buf r.Report.run_id;
  Buffer.add_char buf
    (match r.Report.outcome with Report.Success -> '\000' | Report.Failure -> '\001');
  add_sorted_deltas buf r.Report.observed_sites;
  add_sorted_deltas buf r.Report.true_preds;
  (* true_counts is parallel to true_preds, so its length is implicit *)
  Array.iter (fun c -> add_varint buf c) r.Report.true_counts;
  add_raw buf r.Report.bugs;
  match r.Report.crash_sig with
  | None -> Buffer.add_char buf '\000'
  | Some sg ->
      Buffer.add_char buf '\001';
      add_varint buf (String.length sg);
      Buffer.add_string buf sg

(* Sampled: encode/decode run at a few hundred ns, so clocking every
   call would not fit the <=2% instrumentation budget. *)
let obs_encode = Sbi_obs.Registry.Timer.create ~every:32 "codec.encode"
let obs_decode = Sbi_obs.Registry.Timer.create ~every:32 "codec.decode"

let encode r =
  Sbi_obs.Registry.Timer.time obs_encode (fun () ->
      let buf = Buffer.create 256 in
      encode_to buf r;
      Buffer.contents buf)

let decode_sub_impl s ~pos:start ~len =
  if start < 0 || len < 0 || start + len > String.length s then
    invalid_arg "Codec.decode_sub: out of bounds";
  let limit = start + len in
  let pos = ref start in
  let v = read_varint s pos limit in
  if v <> version then corrupt "unsupported record version %d" v;
  let run_id = read_varint s pos limit in
  if !pos >= limit then corrupt "record ends before outcome";
  let outcome =
    match s.[!pos] with
    | '\000' -> Report.Success
    | '\001' -> Report.Failure
    | c -> corrupt "bad outcome byte %d" (Char.code c)
  in
  incr pos;
  let observed_sites = read_sorted_deltas s pos limit in
  let true_preds = read_sorted_deltas s pos limit in
  let true_counts = read_raw_n s pos limit (Array.length true_preds) in
  let bugs = read_raw s pos limit in
  if !pos >= limit then corrupt "record ends before crash signature";
  let has_sig = s.[!pos] in
  incr pos;
  let crash_sig =
    match has_sig with
    | '\000' -> None
    | '\001' ->
        let n = read_varint s pos limit in
        if n > limit - !pos then corrupt "crash signature runs past end";
        let sg = String.sub s !pos n in
        pos := !pos + n;
        Some sg
    | c -> corrupt "bad crash-signature tag %d" (Char.code c)
  in
  if !pos <> limit then corrupt "%d trailing bytes in record" (limit - !pos);
  { Report.run_id; outcome; observed_sites; true_preds; true_counts; bugs; crash_sig }

let decode_sub s ~pos ~len =
  Sbi_obs.Registry.Timer.time obs_decode (fun () -> decode_sub_impl s ~pos ~len)

let decode s = decode_sub s ~pos:0 ~len:(String.length s)

(* --- framing: varint length + payload + CRC-32 (4 bytes LE) --- *)

let crc_bytes = 4

let add_framed buf r =
  let payload = encode r in
  add_varint buf (String.length payload);
  Buffer.add_string buf payload;
  let crc = Sbi_util.Crc32.string payload in
  for i = 0 to crc_bytes - 1 do
    Buffer.add_char buf (Char.unsafe_chr ((crc lsr (8 * i)) land 0xff))
  done

type frame = Frame of Report.t * int | Frame_corrupt of int | Frame_truncated

let read_framed s ~pos =
  let n = String.length s in
  let p = ref pos in
  match read_varint s p n with
  | exception Corrupt _ -> Frame_truncated
  | len ->
      if len > n - !p - crc_bytes then Frame_truncated
      else begin
        let payload_pos = !p in
        let crc_pos = payload_pos + len in
        let stored =
          let v = ref 0 in
          for i = crc_bytes - 1 downto 0 do
            v := (!v lsl 8) lor Char.code s.[crc_pos + i]
          done;
          !v
        in
        let next = crc_pos + crc_bytes in
        if Sbi_util.Crc32.sub s ~pos:payload_pos ~len <> stored then Frame_corrupt next
        else
          match decode_sub s ~pos:payload_pos ~len with
          | r -> Frame (r, next)
          | exception Corrupt _ -> Frame_corrupt next
      end
