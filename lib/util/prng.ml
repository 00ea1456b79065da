(* xoshiro256** with splitmix64 seeding.  Reference: Blackman & Vigna,
   "Scrambled linear pseudorandom number generators", 2018. *)

(* The four state words live unboxed in 32 bytes, read and written with
   [Bytes.get/set_int64_le]: a draw that keeps its words in locals
   allocates nothing, where mutable [int64] fields would box every word
   it stores. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

(* splitmix64's output function *)
let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* Word i is splitmix64's (i+1)-th output from state [seed]. *)
let[@inline] fill t seed =
  for i = 0 to 3 do
    Bytes.set_int64_le t (8 * i) (mix (Int64.add seed (Int64.mul golden (Int64.of_int (i + 1)))))
  done

let of_seed seed =
  let t = Bytes.create 32 in
  fill t seed;
  t

let create seed = of_seed (Int64.of_int seed)
let copy = Bytes.copy
let reseed t seed = fill t (Int64.of_int seed)

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] next t =
  let s0 = Bytes.get_int64_le t 0 and s1 = Bytes.get_int64_le t 8 in
  let s2 = Int64.logxor (Bytes.get_int64_le t 16) s0 in
  let s3 = Int64.logxor (Bytes.get_int64_le t 24) s1 in
  Bytes.set_int64_le t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_le t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_le t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_le t 24 (rotl s3 45);
  Int64.mul (rotl (Int64.mul s1 5L) 7) 9L

let int64 t = next t
let split t = of_seed (next t)
let bits30 t = Int64.to_int (Int64.shift_right_logical (next t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling to avoid modulo bias. *)
    let mask = ref 1 in
    while !mask < bound do
      mask := !mask lsl 1
    done;
    let mask = !mask - 1 in
    let v = ref (bits30 t land mask) in
    while !v >= bound do
      v := bits30 t land mask
    done;
    !v
  end
  else
    (* Large bounds: 62 random bits, never negative. *)
    Int64.to_int (Int64.shift_right_logical (next t) 2) mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let[@inline] unit_float t =
  (* 53 uniform bits into [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v *. 0x1.0p-53

let float t bound = unit_float t *. bound

let bool t = Int64.logand (next t) 1L = 1L

let bernoulli t p =
  if p <= 0. then false else if p >= 1. then true else unit_float t < p

(* Inverse transform: ceil (ln U / ln (1-p)) over U in (0,1], given
   [log_q = ln (1-p)]. *)
let[@inline] geometric_draw t log_q =
  let u = 1. -. unit_float t in
  let n = int_of_float (ceil (log u /. log_q)) in
  if n < 1 then 1 else n

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Prng.geometric: p must be in (0,1]";
  if p >= 1. then 1 else geometric_draw t (log (1. -. p))

let geometric_log t log_q i = geometric_draw t log_q.(i)

let gaussian t =
  let rec draw () =
    let u = (2. *. unit_float t) -. 1. in
    let v = (2. *. unit_float t) -. 1. in
    let s = (u *. u) +. (v *. v) in
    if s >= 1. || s = 0. then draw ()
    else u *. sqrt (-2. *. log s /. s)
  in
  draw ()

let choice t arr =
  if Array.length arr = 0 then invalid_arg "Prng.choice: empty array";
  arr.(int t (Array.length arr))

let choice_list t l =
  match l with
  | [] -> invalid_arg "Prng.choice_list: empty list"
  | _ -> List.nth l (int t (List.length l))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let permutation t n =
  let arr = Array.init n Fun.id in
  shuffle t arr;
  arr

let sample_without_replacement t k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  let arr = permutation t n in
  Array.sub arr 0 k
