(* Tests for the domain pool and the word-level Bitset kernels it fans:
   pool lifecycle and determinism, kernels against bit-at-a-time
   references, and the load-bearing property — parallel snapshot builds
   and parallel elimination rescoring are bit-identical to sequential
   at any pool size. *)
open Sbi_store
open Sbi_par

(* --- domain pool --- *)

(* ~clamp:false throughout: these tests must exercise real cross-domain
   execution (queues, steals, barriers) even on a single-core host where
   the default clamp would collapse the pool to inline execution. *)

let test_pool_basics () =
  let pool = Domain_pool.create ~clamp:false ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "pool size" 3 (Domain_pool.size pool);
      let f = Domain_pool.async pool (fun () -> 6 * 7) in
      Alcotest.(check int) "async/await" 42 (Domain_pool.await f);
      let results = Domain_pool.map_array pool (fun x -> x * x) (Array.init 100 Fun.id) in
      Alcotest.(check (array int)) "map_array" (Array.init 100 (fun i -> i * i)) results;
      (* nested submission from inside a task must not deadlock *)
      let nested =
        Domain_pool.async pool (fun () ->
            Domain_pool.await (Domain_pool.async pool (fun () -> 7)))
      in
      Alcotest.(check int) "nested async" 7 (Domain_pool.await nested))

let test_pool_clamp () =
  (* default: requested domains are capped at the hardware count *)
  let uncapped = Domain_pool.create ~clamp:false ~domains:3 () in
  Alcotest.(check int) "clamp:false honors the request" 3 (Domain_pool.size uncapped);
  Domain_pool.shutdown uncapped;
  let over = 4 * Domain_pool.default_domains () in
  let capped = Domain_pool.create ~domains:over () in
  Alcotest.(check int) "default clamps to hardware domains"
    (Domain_pool.default_domains ()) (Domain_pool.size capped);
  Domain_pool.shutdown capped

let test_pool_parallel_for () =
  let pool = Domain_pool.create ~clamp:false ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let n = 10_001 in
      let out = Array.make n 0 in
      Domain_pool.parallel_for pool ~n (fun lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- (2 * i) + 1
          done);
      Alcotest.(check (array int)) "disjoint blocks cover the range"
        (Array.init n (fun i -> (2 * i) + 1))
        out;
      (* empty and single-element ranges *)
      Domain_pool.parallel_for pool ~n:0 (fun _ _ -> Alcotest.fail "no work expected");
      let hit = ref false in
      Domain_pool.parallel_for pool ~n:1 (fun lo hi ->
          if lo = 0 && hi = 1 then hit := true);
      Alcotest.(check bool) "single element" true !hit)

(* map_array fans out over every element: on a 2-domain pool, two
   elements that each wait (at most 2 s) for the other to start must both
   see it.  An element run on the caller before the fan-out would wait
   out its deadline alone. *)
let test_pool_map_array_overlap () =
  let pool = Domain_pool.create ~clamp:false ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let started = Atomic.make 0 in
      let saw_other _ =
        Atomic.incr started;
        let deadline = Unix.gettimeofday () +. 2. in
        while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
          Domain.cpu_relax ()
        done;
        Atomic.get started >= 2
      in
      Alcotest.(check (array bool)) "both elements overlap" [| true; true |]
        (Domain_pool.map_array pool saw_other [| 0; 1 |]))

let test_pool_exceptions () =
  let pool = Domain_pool.create ~clamp:false ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      (match Domain_pool.await (Domain_pool.async pool (fun () -> failwith "boom")) with
      | exception Failure m -> Alcotest.(check string) "async exn surfaces" "boom" m
      | _ -> Alcotest.fail "expected Failure");
      (match Domain_pool.parallel_for pool ~n:100 (fun lo _ -> if lo = 0 then failwith "pf") with
      | exception Failure m -> Alcotest.(check string) "parallel_for exn surfaces" "pf" m
      | () -> Alcotest.fail "expected Failure");
      (* the pool is still usable after a failed batch *)
      Alcotest.(check int) "pool survives" 5
        (Domain_pool.await (Domain_pool.async pool (fun () -> 5))))

let test_pool_shutdown_idempotent () =
  let pool = Domain_pool.create ~clamp:false ~domains:2 () in
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* after shutdown, async degrades to inline execution *)
  Alcotest.(check int) "inline after shutdown" 9
    (Domain_pool.await (Domain_pool.async pool (fun () -> 9)))

let test_pool_task_errors () =
  let pool = Domain_pool.create ~clamp:false ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let hooked = Atomic.make 0 in
      Domain_pool.add_error_hook (fun _ -> Atomic.incr hooked);
      Alcotest.(check int) "no errors yet" 0 (Domain_pool.task_errors pool);
      Domain_pool.submit pool (fun () -> failwith "fire-and-forget boom");
      (* the failing task runs on a worker; poll for the count *)
      let deadline = Unix.gettimeofday () +. 5. in
      while Domain_pool.task_errors pool < 1 && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Alcotest.(check int) "bare submit error counted" 1 (Domain_pool.task_errors pool);
      Alcotest.(check bool) "error hook fired" true (Atomic.get hooked >= 1);
      (* the worker survives the escaped exception *)
      Alcotest.(check int) "pool alive after task error" 11
        (Domain_pool.await (Domain_pool.async pool (fun () -> 11))))

(* The tentpole determinism property: chunked work-stealing fan-outs are
   bit-identical to sequential execution for random (n, grain, domains) —
   chunk boundaries depend only on the geometry, never on which domain
   claims which chunk. *)
let qcheck_chunked_determinism =
  QCheck2.Test.make ~name:"parallel_for/map_array/scratch = sequential over (n, grain, domains)"
    ~count:30
    QCheck2.Gen.(
      quad (int_range 0 20_000) (int_range 1 512) (int_range 1 4) (int_range 0 1000))
    (fun (n, grain, domains, seed) ->
      let pool = Domain_pool.create ~clamp:false ~domains () in
      Fun.protect
        ~finally:(fun () -> Domain_pool.shutdown pool)
        (fun () ->
          let g i = (i * 2654435761) lxor seed in
          (* parallel_for: disjoint writes *)
          let out = Array.make (max n 1) 0 in
          Domain_pool.parallel_for pool ~grain ~n (fun lo hi ->
              for i = lo to hi - 1 do
                out.(i) <- g i
              done);
          let ok_for = Array.init (max n 1) (fun i -> if i < n then g i else 0) = out in
          (* map_array *)
          let arr = Array.init n (fun i -> i + seed) in
          let ok_map = Domain_pool.map_array pool ~grain g arr = Array.map g arr in
          (* scratch fan-out: commutative sum reduction *)
          let total = ref 0 in
          Domain_pool.parallel_for_scratch pool ~grain ~n
            ~scratch:(fun () -> ref 0)
            ~merge:(fun acc -> total := !total + !acc)
            (fun acc lo hi ->
              for i = lo to hi - 1 do
                acc := !acc + g i
              done);
          let expect = ref 0 in
          for i = 0 to n - 1 do
            expect := !expect + g i
          done;
          ok_for && ok_map && !total = !expect))

(* Stress: many concurrent fan-outs from several systhreads sharing one
   pool (tasks interleave in the worker queues and steal across them),
   nested fan-out from inside a worker, and exception propagation while
   other fan-outs are in flight. *)
let test_pool_stress () =
  let pool = Domain_pool.create ~clamp:false ~domains:3 () in
  Fun.protect
    ~finally:(fun () -> Domain_pool.shutdown pool)
    (fun () ->
      let failures = Atomic.make 0 in
      let client tid =
        for iter = 1 to 15 do
          let n = 1_000 + (97 * tid) + iter in
          if iter mod 5 = 0 then begin
            (* exception propagation: some chunk raises, barrier rethrows *)
            match
              Domain_pool.parallel_for pool ~grain:7 ~n (fun lo hi ->
                  for i = lo to hi - 1 do
                    if i = n / 2 then failwith "stress-boom"
                  done)
            with
            | exception Failure _ -> ()
            | () -> Atomic.incr failures
          end
          else begin
            let out = Array.make n 0 in
            Domain_pool.parallel_for pool ~grain:7 ~n (fun lo hi ->
                for i = lo to hi - 1 do
                  out.(i) <- i + tid
                done);
            if out <> Array.init n (fun i -> i + tid) then Atomic.incr failures
          end
        done
      in
      let threads = Array.init 4 (fun tid -> Thread.create client tid) in
      (* nested fan-out from inside a worker runs inline, no deadlock *)
      let nested =
        Domain_pool.async pool (fun () ->
            let acc = ref 0 in
            Domain_pool.parallel_for pool ~grain:16 ~n:500 (fun lo hi ->
                for i = lo to hi - 1 do
                  acc := !acc + i
                done);
            !acc)
      in
      Alcotest.(check int) "nested fan-out from worker" (500 * 499 / 2)
        (Domain_pool.await nested);
      Array.iter Thread.join threads;
      Alcotest.(check int) "all concurrent fan-outs correct" 0 (Atomic.get failures);
      Alcotest.(check int) "pool survives the stress" 13
        (Domain_pool.await (Domain_pool.async pool (fun () -> 13))))

(* --- bitset kernels vs bit-at-a-time references --- *)

let random_bitset st len =
  let b = Bitset.create len in
  for i = 0 to len - 1 do
    if Random.State.bool st then Bitset.set b i
  done;
  b

let naive_inter_count a b len =
  let n = ref 0 in
  for i = 0 to len - 1 do
    if Bitset.get a i && Bitset.get b i then incr n
  done;
  !n

let naive_inter_count3 a b c len =
  let n = ref 0 in
  for i = 0 to len - 1 do
    if Bitset.get a i && Bitset.get b i && Bitset.get c i then incr n
  done;
  !n

let gen_len = QCheck2.Gen.(pair (int_range 0 10_000) (int_range 0 300))

let qcheck_kernels =
  QCheck2.Test.make ~name:"bitset kernels = bit-at-a-time reference" ~count:100 gen_len
    (fun (seed, len) ->
      let st = Random.State.make [| seed; 0xb17 |] in
      let a = random_bitset st len
      and b = random_bitset st len
      and c = random_bitset st len in
      let ok_counts =
        Bitset.count a = naive_inter_count a a len
        && Bitset.inter_count a b = naive_inter_count a b len
        && Bitset.inter_count3 a b c = naive_inter_count3 a b c len
      in
      (* diff_inplace: a := a \ b *)
      let d = Bitset.copy a in
      Bitset.diff_inplace d b;
      let ok_diff =
        Array.init len (fun i -> Bitset.get d i)
        = Array.init len (fun i -> Bitset.get a i && not (Bitset.get b i))
      in
      (* diff_inter_inplace: a := a \ (b ∧ c) *)
      let e = Bitset.copy a in
      Bitset.diff_inter_inplace e b c;
      let ok_diff3 =
        Array.init len (fun i -> Bitset.get e i)
        = Array.init len (fun i -> Bitset.get a i && not (Bitset.get b i && Bitset.get c i))
      in
      (* full: every bit below len set, none above (popcount proves the tail) *)
      let f = Bitset.full len in
      let ok_full = Bitset.count f = len && Bitset.inter_count f a = Bitset.count a in
      ok_counts && ok_diff && ok_diff3 && ok_full)

let qcheck_of_positions =
  QCheck2.Test.make ~name:"of_positions = set loop" ~count:100
    QCheck2.Gen.(pair (int_range 1 500) (list_size (int_range 0 50) (int_range 0 499)))
    (fun (len, positions) ->
      let positions = List.filter (fun p -> p < len) positions in
      let a = Bitset.of_positions len (Array.of_list positions) in
      let b = Bitset.create len in
      List.iter (Bitset.set b) positions;
      Array.init len (fun i -> Bitset.get a i) = Array.init len (fun i -> Bitset.get b i)
      && Bitset.count a = List.length (List.sort_uniq Int.compare positions))

let suite =
  [
    Alcotest.test_case "pool basics" `Quick test_pool_basics;
    Alcotest.test_case "domain clamp" `Quick test_pool_clamp;
    Alcotest.test_case "parallel_for" `Quick test_pool_parallel_for;
    Alcotest.test_case "map_array overlaps elements" `Quick test_pool_map_array_overlap;
    Alcotest.test_case "task exceptions surface" `Quick test_pool_exceptions;
    Alcotest.test_case "shutdown idempotent" `Quick test_pool_shutdown_idempotent;
    Alcotest.test_case "bare submit errors counted" `Quick test_pool_task_errors;
    Alcotest.test_case "stress: concurrent + nested fan-outs" `Quick test_pool_stress;
    QCheck_alcotest.to_alcotest qcheck_chunked_determinism;
    QCheck_alcotest.to_alcotest qcheck_kernels;
    QCheck_alcotest.to_alcotest qcheck_of_positions;
  ]
