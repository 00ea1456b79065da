(* drilldown: one connection sends closed-loop `affinity P 10` to a served
   synthetic index that fits in the posting cache.  P is drawn by the seed
   from the ranked list.  The operation is one request; the first request
   of an episode loads every posting and is part of set-up.

   The corpus is the synthetic generator's default population (its own
   default seed): an affinity request costs in proportion to the number
   of retained predicates, which differs from corpus to corpus, so only
   the draws vary with the workload seed. *)

open Sbi_index

let runs ctx = if ctx.Ctx.tiny then 4_000 else 200_000
let episodes ctx = if ctx.Ctx.tiny then 2 else 3
let tail_p = 90.

(* A reply per distinct P: every reply for the same P must be identical,
   and equal to the in-process answer. *)
type seen = (int, Served.reply) Hashtbl.t

let note (o : Outcome.t) (seen : seen) p reply =
  match Hashtbl.find_opt seen p with
  | None -> Hashtbl.replace seen p reply
  | Some r -> Outcome.check o (r = reply) (Printf.sprintf "affinity %d: replies differ between requests" p)

type episode = {
  traced : bool;
  n : int;
  cpu : float;
  segments : int;
  reqs : (int * int) list;  (** P, root span of each traced request *)
}

let run (ctx : Ctx.t) (o : Outcome.t) =
  let log = Ctx.path ctx [ "log" ] in
  Ctx.log "drilldown: generating %d runs" (runs ctx);
  ignore (Sbi_corpus.Synth.generate ~runs:(runs ctx) ~dir:log ());
  (* the in-process index holding the same population: the ranked list
     the draws come from, the expected replies, and the replay *)
  let ref_dir = Ctx.path ctx [ "ref" ] in
  Spans.on := ctx.Ctx.trace;
  Spans.span "index.build" (fun () -> ignore (Index.build ~log ~dir:ref_dir ()));
  let ref_idx = Spans.span "index.open" (fun () -> Index.open_ ~dir:ref_dir) in
  Spans.on := false;
  let ranked = Array.of_list (Expect.ranked (Index.snapshot ref_idx)) in
  if Array.length ranked = 0 then failwith "drilldown: empty ranking";
  Ctx.log "drilldown: ranked list of %d predicates" (Array.length ranked);
  let rng = Sbi_util.Prng.create (Sbi_runtime.Collect.run_seed ~seed:ctx.Ctx.seed ~run_index:2) in
  let draw () = Sbi_util.Prng.choice rng ranked in
  let seen : seen = Hashtbl.create 64 in
  let n_ep = episodes ctx * if ctx.Ctx.trace then 2 else 1 in
  let slice = ctx.Ctx.seconds /. float_of_int (episodes ctx) in
  let eps = ref [] in
  for e = 1 to n_ep do
    (* traced runs interleave untraced and traced episodes *)
    let traced = ctx.Ctx.trace && e mod 2 = 0 in
    let dir = Ctx.path ctx [ Printf.sprintf "e%d" e ] in
    Procfs.fresh_dir dir;
    Spans.on := traced;
    let t0 = Sbi_obs.Clock.now_ns () in
    let srv = Served.up ~cbi:ctx.Ctx.cbi ~dir ~log in
    let c = Served.connect srv in
    let p0 = draw () in
    note o seen p0 (Served.request c (Printf.sprintf "affinity %d 10" p0));
    o.Outcome.setups <- Ctx.secs_since t0 :: o.Outcome.setups;
    let cpu0 = Procfs.cpu_ms srv.Served.pid in
    let start = Sbi_obs.Clock.now_ns () in
    let deadline = start + int_of_float (slice *. 1e9) in
    let n = ref 0 and ok = ref 0 and reqs = ref [] and ep_lat = ref [] in
    while Sbi_obs.Clock.now_ns () < deadline do
      let p = draw () in
      let line = Printf.sprintf "affinity %d 10" p in
      let t = Sbi_obs.Clock.now_ns () in
      let reply, id = Spans.time ~req:!n "rtt.affinity" (fun () -> Served.request c line) in
      ep_lat := Ctx.ms_since t :: !ep_lat;
      o.Outcome.attempted <- o.Outcome.attempted + 1;
      (match reply with
      | Ok _ -> incr ok
      | Error m ->
          o.Outcome.failed <- o.Outcome.failed + 1;
          Ctx.log "affinity %d failed: %s" p m);
      note o seen p reply;
      if traced then reqs := (p, id) :: !reqs;
      incr n
    done;
    let busy = Ctx.secs_since start in
    Outcome.episode o ~traced ~lat:!ep_lat ~ops:(float_of_int !ok) ~busy;
    Ctx.log "drilldown: episode %d: set-up %.3f s, %d requests, median %.2f ms" e
      (List.hd o.Outcome.setups) !n (Sbi_util.Stats.median (Array.of_list !ep_lat));
    let cpu = Procfs.cpu_ms srv.Served.pid -. cpu0 in
    let segments = Served.stat_int (Served.stats c) "segments" in
    o.Outcome.rss_mb <- Procfs.vm_hwm_mb srv.Served.pid :: o.Outcome.rss_mb;
    Served.close c;
    Served.stop srv;
    Procfs.rm_rf (Filename.concat dir "idx");
    Spans.on := false;
    eps := { traced; n = !n; cpu; segments; reqs = List.rev !reqs } :: !eps
  done;
  let eps = List.rev !eps in
  (* traced run: replay the last traced episode's requests through the
     calls the server makes per request, as children of each round trip *)
  if ctx.Ctx.trace then begin
    Spans.on := true;
    let traced = List.filter (fun e -> e.traced) eps in
    let sum f l = List.fold_left (fun a e -> a +. f e) 0. l in
    Outcome.layer o "trace.overhead" (Outcome.trace_overhead o);
    Outcome.layer o "serve.cpu_ms_per_op" (sum (fun e -> e.cpu) traced /. sum (fun e -> float_of_int e.n) traced);
    let last = List.nth traced (List.length traced - 1) in
    Outcome.layer o "index.segments" (float_of_int last.segments);
    List.iter
      (fun (p, id) ->
        Spans.replay_into ~parent:id (fun () ->
            let snap = Spans.span ~parent:id ~req:id ~replayed:true "index.snapshot" (fun () -> Index.snapshot ref_idx) in
            let entries =
              Spans.span ~parent:id ~req:id ~replayed:true "triage.affinity" (fun () ->
                  Expect.affinity_entries snap ~pred:p)
            in
            Spans.span ~parent:id ~req:id ~replayed:true "wire.render" (fun () ->
                let header, lines = Expect.affinity_reply ref_idx ~pred:p ~k:10 entries in
                ignore (Sbi_serve.Wire.render_ok ~header ~lines))))
      last.reqs;
    Ctx.cache_layers o ref_idx;
    let all = Spans.all () in
    let aff = List.map Spans.dur_ms (Spans.named all "triage.affinity") in
    (match aff with
    | cold :: (_ :: _ as warm) ->
        let warm_med = Sbi_util.Stats.median (Array.of_list warm) in
        Outcome.layer o "triage.affinity_ms" warm_med;
        Outcome.layer o "store.posting_load_ms" (Float.max 0. (cold -. warm_med))
    | _ -> ());
    Outcome.layer o "index.snapshot_ms" (Spans.median_ms all "index.snapshot");
    Ctx.index_layers o all ~dir:ref_dir ~runs:(runs ctx)
  end;
  (* answer check: every distinct P against the in-process index *)
  let snap = Index.snapshot ref_idx in
  Hashtbl.iter
    (fun p reply ->
      let expected = Expect.affinity_reply ref_idx ~pred:p ~k:10 (Expect.affinity_entries snap ~pred:p) in
      Outcome.check o (Expect.reply_matches ~expected reply)
        (Printf.sprintf "affinity %d: reply differs from the in-process answer" p))
    seen;
  Ctx.log "drilldown: %d distinct P checked" (Hashtbl.length seen)
