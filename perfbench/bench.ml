(* Benchmark entry point: runs one workload and prints its metrics.

     bench.exe run --workload W --seed N --seconds S --trace 0|1
                   [--size full|tiny] --cbi PATH --work DIR
     bench.exe selftest --work DIR
     bench.exe prepare --seed N    (one cold collect-analyze set-up)

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.  Untraced runs report the
   end-to-end metrics; traced runs report every per-layer metric.  See
   README.md for the workloads and what each metric means. *)

let workloads = [ "drilldown"; "ingest-load"; "live-triage"; "collect-analyze" ]

(* Each workload's tail percentile, fixed in advance (README.md) rather
   than recomputed from a run's sample count, which would move whenever a
   faster program completed more operations. *)
let tail_p = function
  | "drilldown" -> Drilldown.tail_p
  | "ingest-load" -> Ingest.load_tail_p
  | "live-triage" -> Ingest.live_tail_p
  | _ -> Collect_analyze.tail_p

let run_workload (ctx : Ctx.t) name =
  let o = Outcome.create () in
  (match name with
  | "drilldown" -> Drilldown.run ctx o
  | "ingest-load" -> Ingest.run ~live:false ctx o
  | "live-triage" -> Ingest.run ~live:true ctx o
  | "collect-analyze" -> Collect_analyze.run ctx o
  | w -> invalid_arg ("unknown workload " ^ w));
  o

(* serve.* readings from the round-trip spans: every round trip is a root
   span named rtt.<command>; those with replayed children also give the
   time the library calls do not account for. *)
let serve_layers (o : Outcome.t) =
  let all = Spans.all () in
  let roots =
    List.filter (fun s -> s.Spans.parent < 0 && String.length s.Spans.name > 4 && String.sub s.Spans.name 0 4 = "rtt.") all
  in
  if roots <> [] then begin
    Outcome.layer o "serve.rtt_ms" (Sbi_util.Stats.median (Array.of_list (List.map Spans.dur_ms roots)));
    let kids = Spans.children_table all in
    let over =
      List.filter_map
        (fun r ->
          match Spans.children_of kids r.Spans.id with
          | [] -> None
          | cs -> Some (float_of_int (Spans.self_ns r cs) /. 1e6))
        roots
    in
    if over <> [] then Outcome.layer o "serve.overhead_ms" (Sbi_util.Stats.median (Array.of_list over));
    Outcome.layer o "serve.failed_ops" (float_of_int o.Outcome.failed)
  end

let num v = Printf.sprintf "%.12g" v

let json_line (o : Outcome.t) metrics =
  let m =
    String.concat ", "
      (List.map (fun (name, v, unit) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit) metrics)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.Outcome.correct
    o.Outcome.attempted o.Outcome.failed m

let end_to_end name (o : Outcome.t) =
  let p = tail_p name in
  let eps = Array.of_list (List.rev o.Outcome.episodes) in
  let med f = Sbi_util.Stats.median (Array.map f eps) in
  let counts = Array.map (fun e -> Array.length e.Outcome.lat) eps in
  let fewest = Array.fold_left min max_int counts in
  Printf.printf "%s: %d episode(s) of %s samples; tail_ms is p%g of each (%d or more beyond)\n" name
    (Array.length eps)
    (String.concat "/" (Array.to_list (Array.map string_of_int counts)))
    p (Outcome.beyond ~p fewest);
  Printf.printf "%s: set-ups of %s s\n" name
    (String.concat "/" (List.rev_map (Printf.sprintf "%.3f") o.Outcome.setups));
  if Outcome.beyond ~p fewest < 10 then
    Printf.printf "%s: warning: fewer than 10 samples beyond the tail percentile\n" name;
  [
    ("setup_s", Sbi_util.Stats.median (Array.of_list o.Outcome.setups), "s");
    ("ops_per_s", med Outcome.rate, "1/s");
    ("p50_ms", med (fun e -> Sbi_util.Stats.median e.Outcome.lat), "ms");
    ("tail_ms", med (fun e -> Sbi_util.Stats.percentile e.Outcome.lat p), "ms");
    ("rss_mb", Sbi_util.Stats.median (Array.of_list o.Outcome.rss_mb), "MB");
  ]

let per_layer (o : Outcome.t) =
  List.map
    (fun (name, unit) ->
      let v = match List.assoc_opt name o.Outcome.layers with Some v -> v | None -> 0. in
      (name, v, unit))
    Outcome.per_layer

let cmd_run args =
  let get k d = match List.assoc_opt k args with Some v -> v | None -> d in
  let name = get "--workload" "" in
  if not (List.mem name workloads) then begin
    prerr_endline ("bench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  let trace = get "--trace" "0" = "1" in
  let work = Filename.concat (get "--work" "perfbench/_work") (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Procfs.fresh_dir work;
  let ctx =
    {
      Ctx.seed = int_of_string (get "--seed" "1");
      seconds = float_of_string (get "--seconds" "10");
      tiny = get "--size" "full" = "tiny";
      trace;
      cbi = get "--cbi" "_build/default/bin/cbi.exe";
      work;
    }
  in
  let o =
    Fun.protect
      ~finally:(fun () ->
        Served.kill_all ();
        if trace then (try Spans.write_jsonl (Filename.concat (Filename.dirname work) (name ^ ".trace.jsonl")) with Sys_error _ -> ());
        Procfs.rm_rf work)
      (fun () ->
        let o = run_workload ctx name in
        if trace then serve_layers o;
        o)
  in
  List.iter (fun p -> Printf.printf "%s: check failed: %s\n" name p) (List.rev o.Outcome.problems);
  let metrics = if trace then per_layer o else end_to_end name o in
  List.iter (fun (m, v, u) -> Printf.printf "%s: %s = %s %s\n" name m (num v) u) metrics;
  print_endline (json_line o metrics);
  exit (if o.Outcome.correct then 0 else 1)

let parse_args l =
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> go ((k, v) :: acc) rest
    | [] -> List.rev acc
    | x :: _ ->
        prerr_endline ("bench: unexpected argument " ^ x);
        exit 2
  in
  go [] l

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> cmd_run (parse_args rest)
  | _ :: "prepare" :: rest ->
      let seed = match List.assoc_opt "--seed" (parse_args rest) with Some s -> int_of_string s | None -> 1 in
      Printf.printf "%.9f\n" (snd (Collect_analyze.prepare ~seed))
  | _ :: "selftest" :: rest ->
      let args = parse_args rest in
      let work = match List.assoc_opt "--work" args with Some w -> w | None -> "perfbench/_work" in
      exit (Selftest.run ~work)
  | _ ->
      prerr_endline "usage: bench.exe run --workload W --seed N --seconds S --trace 0|1 | selftest | prepare";
      exit 2
