(* Observability layer: clock, histogram, registry, trace spans,
   slow-query log, enable switch. *)

open Sbi_obs

(* --- clock --- *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  Alcotest.(check bool) "now_ns never goes backwards" true (b >= a);
  Alcotest.(check bool) "now_ns is positive" true (a > 0)

let test_clock_mock () =
  Clock.with_mock
    (Clock.counter ~start:100 ~step:5 ())
    (fun () ->
      Alcotest.(check int) "first mocked read" 100 (Clock.now_ns ());
      Alcotest.(check int) "second mocked read" 105 (Clock.now_ns ());
      Alcotest.(check int) "third mocked read" 110 (Clock.now_ns ()));
  (* restored: a real monotonic read is far beyond the tiny mock values *)
  Alcotest.(check bool) "real clock restored" true (Clock.now_ns () > 1_000_000);
  (match Clock.with_mock (Clock.counter ()) (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "mock body exception must propagate");
  Alcotest.(check bool) "restored after raise" true (Clock.now_ns () > 1_000_000)

let test_pp_ns () =
  Alcotest.(check string) "ns" "250ns" (Clock.pp_ns 250);
  Alcotest.(check string) "us" "1.5us" (Clock.pp_ns 1_500);
  Alcotest.(check string) "ms" "12.3ms" (Clock.pp_ns 12_300_000);
  Alcotest.(check string) "s" "2.50s" (Clock.pp_ns 2_500_000_000)

(* --- histogram --- *)

let test_hist_edges () =
  let h = Hist.create () in
  Hist.observe_ns h (-50);
  (* negative clamps to 0 *)
  Hist.observe_ns h 0;
  Hist.observe_ns h 999;
  (* still < 1 us *)
  Hist.observe_ns h 1_000;
  (* exactly 1 us: first bucket that fits is Le 2 *)
  Hist.observe_ns h 30_000_000_000;
  (* 30 s: overflow *)
  Alcotest.(check int) "total" 5 (Hist.total h);
  Alcotest.(check bool)
    "buckets: 3x Le 1, 1x Le 2, 1x overflow" true
    (Hist.buckets h = [ (Hist.Le 1, 3); (Hist.Le 2, 1); (Hist.Gt Hist.max_finite_bound_us, 1) ]);
  (* the overflow bucket is Gt, never a fabricated finite bound *)
  List.iter
    (fun (b, _) ->
      match b with
      | Hist.Le us -> Alcotest.(check bool) "finite bounds stay finite" true (us <= Hist.max_finite_bound_us)
      | Hist.Gt us -> Alcotest.(check int) "overflow bound" Hist.max_finite_bound_us us)
    (Hist.buckets h);
  Alcotest.(check string) "pp Le" "2" (Hist.pp_bound (Hist.Le 2));
  Alcotest.(check string) "pp Gt" ">8388608" (Hist.pp_bound (Hist.Gt Hist.max_finite_bound_us))

let test_hist_percentile_saturation () =
  let h = Hist.create () in
  Alcotest.(check bool) "empty percentile is None" true (Hist.percentile h 50. = None);
  for _ = 1 to 10 do
    Hist.observe_ns h 30_000_000_000
  done;
  Alcotest.(check bool)
    "all-overflow p50 saturates to Gt" true
    (Hist.percentile h 50. = Some (Hist.Gt Hist.max_finite_bound_us));
  Alcotest.(check bool)
    "p99 saturates too" true
    (Hist.percentile h 99. = Some (Hist.Gt Hist.max_finite_bound_us))

(* Rank a bound for ordering checks: overflow sorts above every finite
   bound. *)
let bound_rank = function Hist.Le us -> us | Hist.Gt _ -> max_int

let gen_durations =
  (* spans negatives, sub-us, mid-range and well past overflow *)
  QCheck2.Gen.(list_size (int_range 1 200) (oneof [ int_range (-1_000) 1_000_000; int_range 0 20_000_000_000 ]))

let qcheck_merge_is_concat =
  QCheck2.Test.make ~name:"hist merge = bucket the concatenation" ~count:200
    QCheck2.Gen.(pair gen_durations gen_durations)
    (fun (xs, ys) ->
      let a = Hist.create () and b = Hist.create () and whole = Hist.create () in
      List.iter (Hist.observe_ns a) xs;
      List.iter (Hist.observe_ns b) ys;
      List.iter (Hist.observe_ns whole) (xs @ ys);
      Hist.merge_into ~into:a b;
      Hist.counts a = Hist.counts whole)

let qcheck_bucket_monotone =
  QCheck2.Test.make ~name:"bucket index is monotone in duration" ~count:500
    QCheck2.Gen.(pair (int_range (-1_000) 20_000_000_000) (int_range 0 20_000_000_000))
    (fun (ns, delta) -> Hist.bucket_of_ns ns <= Hist.bucket_of_ns (ns + delta))

let qcheck_percentiles_ordered =
  QCheck2.Test.make ~name:"p50 <= p90 <= p99" ~count:200 gen_durations (fun xs ->
      let h = Hist.create () in
      List.iter (Hist.observe_ns h) xs;
      match (Hist.percentile h 50., Hist.percentile h 90., Hist.percentile h 99.) with
      | Some p50, Some p90, Some p99 ->
          bound_rank p50 <= bound_rank p90 && bound_rank p90 <= bound_rank p99
      | _ -> false)

(* --- registry --- *)

let test_registry_intern () =
  let c1 = Registry.counter "test.obs.ctr" in
  let c2 = Registry.counter "test.obs.ctr" in
  Registry.incr c1;
  Registry.add c1 4;
  Alcotest.(check int) "get-or-create returns the same counter" 5 (Registry.value c2);
  let g = Registry.gauge "test.obs.gauge" in
  Registry.set g 17;
  Registry.set g 3;
  Alcotest.(check int) "gauge keeps last value" 3 (Registry.value g);
  (match Registry.histogram "test.obs.ctr" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter as a histogram must raise");
  (match Registry.gauge "test.obs.ctr" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "re-registering a counter as a gauge must raise");
  Alcotest.(check bool)
    "lines contains the counter" true
    (List.mem "test.obs.ctr 5" (Registry.lines ()))

let test_timer_sampling () =
  Clock.with_mock (Clock.counter ()) (fun () ->
      let t = Registry.Timer.create ~every:4 "test.obs.timer" in
      for _ = 1 to 8 do
        Registry.Timer.time t (fun () -> ())
      done;
      let h = Registry.histogram "test.obs.timer" in
      Alcotest.(check int)
        "every call counted" 8
        (Registry.value (Registry.counter "test.obs.timer.count"));
      Alcotest.(check int) "one in four clocked" 2 (Hist.total h);
      (* exceptions propagate; the count still ticks, no sample lands *)
      (match Registry.Timer.time t (fun () -> failwith "boom") with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "timer must propagate exceptions");
      Alcotest.(check int)
        "raising call still counted" 9
        (Registry.value (Registry.counter "test.obs.timer.count")))

(* --- trace --- *)

let find_span name =
  match List.find_opt (fun (s : Trace.span) -> s.name = name) (Trace.recent ()) with
  | Some s -> s
  | None -> Alcotest.fail (Printf.sprintf "span %s not recorded" name)

let test_trace_nesting () =
  Trace.clear ();
  Trace.with_span ~name:"t.outer" (fun () ->
      Trace.with_span ~name:"t.inner" ~args:"k=3" (fun () -> ()));
  let outer = find_span "t.outer" and inner = find_span "t.inner" in
  Alcotest.(check bool) "outer is a root" true (outer.parent = None);
  Alcotest.(check bool) "inner links to outer" true (inner.parent = Some outer.id);
  Alcotest.(check string) "args retained" "k=3" inner.args;
  Alcotest.(check bool) "no span left open" true (Trace.current () = None);
  (* spans survive the body raising — failing spans matter most *)
  (match Trace.with_span ~name:"t.raise" (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "with_span must propagate");
  ignore (find_span "t.raise");
  Alcotest.(check bool) "context popped after raise" true (Trace.current () = None)

let test_trace_ring () =
  Trace.clear ();
  Trace.set_capacity 4;
  Fun.protect
    ~finally:(fun () -> Trace.set_capacity 4096)
    (fun () ->
      for i = 1 to 6 do
        Trace.with_span ~name:(Printf.sprintf "t.ring.%d" i) (fun () -> ())
      done;
      let names = List.map (fun (s : Trace.span) -> s.name) (Trace.recent ()) in
      Alcotest.(check (list string))
        "ring keeps the newest, oldest first"
        [ "t.ring.3"; "t.ring.4"; "t.ring.5"; "t.ring.6" ]
        names;
      let newest = List.map (fun (s : Trace.span) -> s.name) (Trace.recent ~n:2 ()) in
      Alcotest.(check (list string)) "recent ~n trims from the old end" [ "t.ring.5"; "t.ring.6" ] newest)

let test_trace_lines () =
  Trace.clear ();
  Clock.with_mock (Clock.counter ()) (fun () ->
      Trace.with_span ~name:"t.fmt" ~args:"k=9" (fun () -> ()));
  match Trace.lines () with
  | [ line ] ->
      Alcotest.(check bool)
        "line mentions name and args" true
        (let has needle =
           let nl = String.length needle and ll = String.length line in
           let rec go i = i + nl <= ll && (String.sub line i nl = needle || go (i + 1)) in
           go 0
         in
         has "name=t.fmt" && has "args=k=9" && has "parent=-")
  | ls -> Alcotest.fail (Printf.sprintf "expected one line, got %d" (List.length ls))

(* --- slow-query log --- *)

let test_slowlog () =
  Slowlog.clear ();
  let captured = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Slowlog.set_threshold_ms None;
      Slowlog.set_sink (fun line -> Printf.eprintf "%s\n%!" line))
    (fun () ->
      Slowlog.set_sink (fun line -> captured := line :: !captured);
      (* disabled by default: nothing records *)
      Slowlog.observe ~cmd:"topk" ~args:"3" ~dur_ns:5_000_000_000 ~epoch:1;
      Alcotest.(check int) "no threshold, no entries" 0 (List.length (Slowlog.recent ()));
      Slowlog.set_threshold_ms (Some 10);
      Alcotest.(check bool) "threshold readable" true (Slowlog.threshold_ms () = Some 10);
      Slowlog.observe ~cmd:"ping" ~args:"" ~dur_ns:5_000_000 ~epoch:1;
      (* 5 ms < 10 ms *)
      Slowlog.observe ~cmd:"topk" ~args:"3" ~dur_ns:12_345_000 ~epoch:7;
      match Slowlog.recent () with
      | [ e ] ->
          Alcotest.(check string) "cmd" "topk" e.Slowlog.cmd;
          Alcotest.(check int) "epoch" 7 e.Slowlog.epoch;
          Alcotest.(check string)
            "args digested, never raw"
            (Printf.sprintf "%08x" (Sbi_util.Crc32.string "3"))
            e.Slowlog.args_digest;
          let expect =
            Printf.sprintf "slow-query cmd=topk args=#%s dur_ms=12.345 epoch=7" e.Slowlog.args_digest
          in
          Alcotest.(check string) "line format" expect (Slowlog.line_of e);
          Alcotest.(check (list string)) "sink saw the same line" [ expect ] !captured
      | es -> Alcotest.fail (Printf.sprintf "expected one slow entry, got %d" (List.length es)))

(* --- global enable switch --- *)

let test_disabled_is_noop () =
  Trace.clear ();
  Slowlog.clear ();
  let c = Registry.counter "test.obs.gated" in
  Fun.protect
    ~finally:(fun () -> set_enabled true)
    (fun () ->
      set_enabled false;
      Alcotest.(check bool) "enabled reads false" false (enabled ());
      Registry.incr c;
      Trace.with_span ~name:"t.gated" (fun () -> ());
      Slowlog.set_threshold_ms (Some 0);
      Slowlog.observe ~cmd:"topk" ~args:"" ~dur_ns:1 ~epoch:0;
      Slowlog.set_threshold_ms None;
      Alcotest.(check int) "counter untouched" 0 (Registry.value c);
      Alcotest.(check int) "no span recorded" 0 (List.length (Trace.recent ()));
      Alcotest.(check int) "no slow entry" 0 (List.length (Slowlog.recent ())));
  Registry.incr c;
  Alcotest.(check int) "counter works again once re-enabled" 1 (Registry.value c)

let suite =
  [
    Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic;
    Alcotest.test_case "clock mock" `Quick test_clock_mock;
    Alcotest.test_case "pp_ns" `Quick test_pp_ns;
    Alcotest.test_case "hist edges" `Quick test_hist_edges;
    Alcotest.test_case "hist percentile saturation" `Quick test_hist_percentile_saturation;
    QCheck_alcotest.to_alcotest qcheck_merge_is_concat;
    QCheck_alcotest.to_alcotest qcheck_bucket_monotone;
    QCheck_alcotest.to_alcotest qcheck_percentiles_ordered;
    Alcotest.test_case "registry intern" `Quick test_registry_intern;
    Alcotest.test_case "timer sampling" `Quick test_timer_sampling;
    Alcotest.test_case "trace nesting" `Quick test_trace_nesting;
    Alcotest.test_case "trace ring retention" `Quick test_trace_ring;
    Alcotest.test_case "trace line format" `Quick test_trace_lines;
    Alcotest.test_case "slowlog" `Quick test_slowlog;
    Alcotest.test_case "disabled is no-op" `Quick test_disabled_is_noop;
  ]
