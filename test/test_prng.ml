(* Unit and property tests for Sbi_util.Prng. *)
open Sbi_util

let test_determinism () =
  let a = Prng.create 7 in
  let b = Prng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 in
  let b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int64 a = Prng.int64 b then incr same
  done;
  Alcotest.(check bool) "streams diverge" true (!same < 5)

let test_copy_independent () =
  let a = Prng.create 9 in
  ignore (Prng.int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.int64 a) (Prng.int64 b)

let test_split_diverges () =
  let a = Prng.create 3 in
  let child = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int64 a = Prng.int64 child then incr same
  done;
  Alcotest.(check bool) "parent and child diverge" true (!same < 5)

let test_int_bounds () =
  let rng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 13 in
    Alcotest.(check bool) "0 <= v < 13" true (v >= 0 && v < 13)
  done

let test_int_invalid () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "bound 0 rejected" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_int_in_range () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 4 in
    Alcotest.(check bool) "-3 <= v <= 4" true (v >= -3 && v <= 4)
  done

let test_unit_float_range () =
  let rng = Prng.create 17 in
  for _ = 1 to 10_000 do
    let v = Prng.unit_float rng in
    Alcotest.(check bool) "[0,1)" true (v >= 0. && v < 1.)
  done

let test_uniformity () =
  (* chi-square-ish check on 8 buckets *)
  let rng = Prng.create 23 in
  let buckets = Array.make 8 0 in
  let n = 80_000 in
  for _ = 1 to n do
    let b = Prng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 8. in
  Array.iter
    (fun c ->
      let dev = abs_float (float_of_int c -. expected) /. expected in
      Alcotest.(check bool) "bucket within 5% of uniform" true (dev < 0.05))
    buckets

let test_bernoulli_rate () =
  let rng = Prng.create 29 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "empirical rate near 0.3" true (abs_float (rate -. 0.3) < 0.01)

let test_bernoulli_edges () =
  let rng = Prng.create 31 in
  Alcotest.(check bool) "p=0 never" false (Prng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1 always" true (Prng.bernoulli rng 1.)

let test_geometric_mean () =
  (* E[Geometric(p)] = 1/p *)
  let rng = Prng.create 37 in
  let p = 0.02 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Prng.geometric rng p
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.1f near 1/p = 50" mean)
    true
    (abs_float (mean -. 50.) < 2.5)

let test_geometric_support () =
  let rng = Prng.create 41 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) ">= 1" true (Prng.geometric rng 0.5 >= 1)
  done;
  Alcotest.(check int) "p=1 gives 1" 1 (Prng.geometric rng 1.)

let test_geometric_invalid () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "p=0 rejected"
    (Invalid_argument "Prng.geometric: p must be in (0,1]") (fun () ->
      ignore (Prng.geometric rng 0.))

let test_gaussian_moments () =
  let rng = Prng.create 43 in
  let n = 50_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = Prng.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (abs_float mean < 0.02);
  Alcotest.(check bool) "variance near 1" true (abs_float (var -. 1.) < 0.05)

let test_permutation_valid () =
  let rng = Prng.create 47 in
  let p = Prng.permutation rng 100 in
  let seen = Array.make 100 false in
  Array.iter (fun i -> seen.(i) <- true) p;
  Alcotest.(check bool) "is a permutation" true (Array.for_all Fun.id seen)

let test_shuffle_preserves () =
  let rng = Prng.create 53 in
  let arr = Array.init 50 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "multiset preserved" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Prng.create 59 in
  let s = Prng.sample_without_replacement rng 10 30 in
  Alcotest.(check int) "10 draws" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  for i = 1 to 9 do
    Alcotest.(check bool) "distinct" true (sorted.(i) <> sorted.(i - 1))
  done;
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Prng.sample_without_replacement: k > n") (fun () ->
      ignore (Prng.sample_without_replacement rng 5 3))

let test_choice () =
  let rng = Prng.create 61 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "choice in array" true (Array.mem (Prng.choice rng arr) arr)
  done;
  Alcotest.(check string) "singleton list" "x" (Prng.choice_list rng [ "x" ])

(* --- pinned streams --- *)

(* [name]'s first outputs from a fresh [create seed], rendered exactly
   (floats in hex).  [split] renders two child outputs, then two of the
   parent's; [copy] renders two outputs of a copy taken after one draw. *)
let stream seed name =
  let r = Prng.create seed in
  let draws n f = String.concat " " (List.init n (fun _ -> f ())) in
  let i64 () = Int64.to_string (Prng.int64 r) in
  let hex x = Printf.sprintf "%h" x in
  match name with
  | "int64" -> draws 4 i64
  | "bits30" -> draws 4 (fun () -> string_of_int (Prng.bits30 r))
  | "int" ->
      draws 4 (fun () -> string_of_int (Prng.int r 1000))
      ^ " "
      ^ draws 2 (fun () -> string_of_int (Prng.int r (1 lsl 40)))
  | "unit_float" -> draws 4 (fun () -> hex (Prng.unit_float r))
  | "geometric 0.013" -> draws 4 (fun () -> string_of_int (Prng.geometric r 0.013))
  | "geometric 0.5" -> draws 4 (fun () -> string_of_int (Prng.geometric r 0.5))
  | "gaussian" -> draws 4 (fun () -> hex (Prng.gaussian r))
  | "split" ->
      let child = Prng.split r in
      let c = draws 2 (fun () -> Int64.to_string (Prng.int64 child)) in
      c ^ " / " ^ draws 2 i64
  | "copy" ->
      ignore (Prng.int64 r);
      let c = Prng.copy r in
      ignore (Prng.int64 r);
      draws 2 (fun () -> Int64.to_string (Prng.int64 c))
  | _ -> invalid_arg name

(* Outputs of the generator whose state was four mutable [int64] fields,
   before it moved into 32 unboxed bytes: the stream must not change. *)
let pins =
  [
    (0, "int64", "-7355399402456485196 -4652746763540216534 1900383378846508768 7684712102626143532");
    (0, "bits30", "645601229 802916318 110616871 447309116");
    (0, "int", "295 316 850 221 883469155501 953790337354");
    (0, "unit_float", "0x1.33d8be6d96ebep-1 0x1.7edc3ef092ac8p-1 0x1.a5f849d4933ep-4 0x1.aa9653c498b4ap-2");
    (0, "geometric 0.013", "71 106 9 42");
    (0, "geometric 0.5", "2 2 1 1");
    (0, "gaussian", "0x1.323a82a4bc9e5p-1 -0x1.ca445408b789ap-1 -0x1.3532999190f0ap+1 -0x1.8678d5e775bcep-1");
    (0, "split", "5518286860253071851 5198098526511828694 / -4652746763540216534 1900383378846508768");
    (0, "copy", "-4652746763540216534 1900383378846508768");
    (42, "int64", "1546998764402558742 6990951692964543102 -5902157311460992607 -1389169964527427423");
    (42, "bits30", "90047179 406926945 730191052 992881489");
    (42, "int", "204 849 799 332 874076942789 419216772767");
    (42, "unit_float", "0x1.5780b2e0c2ecp-4 0x1.84136619b444ep-2 0x1.5c2ea66473c93p-1 0x1.d9715a8e0766cp-1");
    (42, "geometric 0.013", "7 37 88 198");
    (42, "geometric 0.5", "1 1 2 4");
    (42, "gaussian", "-0x1.73d2feb0fb377p-1 0x1.c5e21f7812a4cp-3 0x1.db514bfac5b4ep-2 0x1.79eb7c13cfccdp+0");
    (42, "split", "-8150312660505607085 1184342940732292706 / 6990951692964543102 -5902157311460992607");
    (42, "copy", "6990951692964543102 -5902157311460992607");
    (-17, "int64", "2256674679307824848 754968568072093907 -6661904138601197562 229840854461931811");
    (-17, "bits30", "131355754 43944954 685967966 13378498");
    (-17, "int", "606 962 670 987 457522068404 1075505623092");
    (-17, "unit_float", "0x1.f5151aa19c2e8p-4 0x1.4f45fd3490b8p-5 0x1.471852f6e5f12p-1 0x1.9847850a89bp-7");
    (-17, "geometric 0.013", "10 4 78 1");
    (-17, "geometric 0.5", "1 1 2 1");
    (-17, "gaussian", "-0x1.15e1193b305b2p+0 -0x1.4ca2a833fff9cp-6 -0x1.7f4f16cff0822p-2 -0x1.83311782dab34p-1");
    (-17, "split", "-3754325291134774738 3042212252492505480 / 754968568072093907 -6661904138601197562");
    (-17, "copy", "754968568072093907 -6661904138601197562");
  ]

let test_pinned_streams () =
  List.iter
    (fun (seed, name, expected) ->
      Alcotest.(check string) (Printf.sprintf "seed %d: %s" seed name) expected (stream seed name))
    pins

(* Sampling decisions over a Per_site plan with rates 0, 1 and 2/97..7/97
   (reseeded and re-armed per "run"), and over a uniform plan, pinned as
   the MD5 of the sampled trial indices. *)
let test_pinned_sampler () =
  let module S = Sbi_instrument.Sampler in
  (* the sampled trials among [n], trial [i] visiting site [site_of i] *)
  let sampled s ~n site_of =
    String.concat ""
      (List.filter_map
         (fun i -> if S.should_sample s (site_of i) then Some (string_of_int i ^ ",") else None)
         (List.init n Fun.id))
  in
  let md5 s = Digest.to_hex (Digest.string s) in
  let rates =
    Array.init 64 (fun i -> match i mod 8 with 0 -> 0. | 1 -> 1. | k -> float_of_int k /. 97.)
  in
  let per_site = S.create ~seed:7 ~nsites:64 (S.Per_site rates) in
  let runs =
    List.init 10 (fun run ->
        S.reseed per_site (run * 31);
        S.begin_run per_site;
        sampled per_site ~n:10_000 (fun i -> i * 7 mod 64))
  in
  Alcotest.(check string) "per-site plan" "ecfe85e859ec80da729daeb34aa844ae"
    (md5 (String.concat "" runs));
  let uniform = S.create ~seed:3 ~nsites:16 (S.Uniform 0.05) in
  Alcotest.(check string) "uniform plan" "2adcb9ba3a89f38773e2557a3e94afab"
    (md5 (sampled uniform ~n:100_000 (fun i -> i mod 16)))

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_draws_allocate_nothing () =
  let rng = Prng.create 5 in
  let zero name f = Alcotest.(check (float 0.)) name 0. (minor_words f) in
  zero "10,000 int draws" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Prng.int rng 1000)
      done);
  zero "10,000 geometric draws" (fun () ->
      for _ = 1 to 10_000 do
        ignore (Prng.geometric rng 0.013)
      done);
  let module S = Sbi_instrument.Sampler in
  let rates = Array.init 64 (fun i -> float_of_int (i mod 8) /. 8.) in
  let sampler = S.create ~nsites:64 (S.Per_site rates) in
  zero "10,000 should_sample calls on a Per_site plan" (fun () ->
      for i = 1 to 10_000 do
        ignore (S.should_sample sampler (i mod 64))
      done)

let qcheck_int_bound =
  QCheck2.Test.make ~name:"prng int always within bound" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) small_int)
    (fun (bound, seed) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds diverge" `Quick test_different_seeds;
    Alcotest.test_case "copy is independent continuation" `Quick test_copy_independent;
    Alcotest.test_case "split diverges from parent" `Quick test_split_diverges;
    Alcotest.test_case "int respects bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive bound" `Quick test_int_invalid;
    Alcotest.test_case "int_in inclusive range" `Quick test_int_in_range;
    Alcotest.test_case "unit_float in [0,1)" `Quick test_unit_float_range;
    Alcotest.test_case "uniformity over 8 buckets" `Slow test_uniformity;
    Alcotest.test_case "bernoulli empirical rate" `Slow test_bernoulli_rate;
    Alcotest.test_case "bernoulli p=0 and p=1" `Quick test_bernoulli_edges;
    Alcotest.test_case "geometric mean is 1/p" `Slow test_geometric_mean;
    Alcotest.test_case "geometric support starts at 1" `Quick test_geometric_support;
    Alcotest.test_case "geometric rejects p=0" `Quick test_geometric_invalid;
    Alcotest.test_case "gaussian moments" `Slow test_gaussian_moments;
    Alcotest.test_case "permutation is valid" `Quick test_permutation_valid;
    Alcotest.test_case "shuffle preserves multiset" `Quick test_shuffle_preserves;
    Alcotest.test_case "sampling without replacement" `Quick test_sample_without_replacement;
    Alcotest.test_case "choice stays in range" `Quick test_choice;
    QCheck_alcotest.to_alcotest qcheck_int_bound;
    Alcotest.test_case "pinned streams" `Quick test_pinned_streams;
    Alcotest.test_case "pinned sampler decisions" `Quick test_pinned_sampler;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
  ]
