type task = unit -> unit

(* Work-stealing chunked scheduler.
   - One queue per worker domain (own mutex + condvar).  External
     submitters round-robin over queues via an atomic ticket; a worker
     pops its own queue first and steals from peers when empty, so a
     backlog behind one busy worker drains through the others.
   - Fan-outs ({!parallel_for} and friends) do not enqueue one task per
     block.  They publish a single job descriptor (an atomic chunk
     cursor over [0, n) cut into ~4 chunks per participant, never
     smaller than [grain]) plus one shared helper task per worker; every
     participant — caller included — claims chunks with one
     [Atomic.fetch_and_add] each until the cursor runs dry.  Assignment
     is dynamic (stragglers rebalance automatically) while the chunk
     *boundaries* depend only on (n, grain, pool size), and bodies write
     block-disjoint locations, so results stay bit-identical to
     sequential for every domain count.
   - Sub-grain work ([n <= grain]) never touches the pool at all: it
     runs inline on the caller, which keeps warm cache-resident queries
     off the submission path entirely.
   - [create] clamps the pool to {!default_domains} unless told not to:
     domains beyond the hardware count cannot add parallelism but do
     multiply GC stop-the-world synchronization cost. *)

type wq = {
  q_mutex : Mutex.t;
  q_cond : Condition.t;  (* the owning worker sleeps here *)
  q_tasks : task Queue.t;
}

type t = {
  queues : wq array;  (* one per worker domain *)
  mutable handles : unit Domain.t array;
  shutting_down : bool Atomic.t;
  ticket : int Atomic.t;  (* round-robin cursor for external submits *)
  errors : int Atomic.t;  (* tasks that raised with nobody to catch it *)
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Worker membership is a domain-local flag written once at worker
   startup — O(1) per query instead of the old O(workers) id-array scan
   that ran on every async/parallel_for. *)
let dls_pool : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let on_worker t =
  match Domain.DLS.get dls_pool with Some p -> p == t | None -> false

(* --- error accounting (bare fire-and-forget tasks) ---

   async and parallel_for capture exceptions and re-raise them at the
   await/barrier; anything that still reaches the worker loop came from
   a bare {!submit} and used to vanish silently.  Now it is counted on
   the pool, printed to stderr, and fed to registered hooks (Sbi_obs
   adds one that bumps the [pool.task_err] counter). *)

let error_hooks : (exn -> unit) list ref = ref []
let add_error_hook h = error_hooks := h :: !error_hooks

let run_task pool task =
  try task ()
  with e ->
    Printf.eprintf "sbi-par: task-error exn=%s\n%!" (Printexc.to_string e);
    List.iter (fun h -> try h e with _ -> ()) !error_hooks;
    (* counted last: whoever observes the count also sees the hooks' effects *)
    Atomic.incr pool.errors

let task_errors t = Atomic.get t.errors

(* --- queues: pop own, steal on empty, sleep on own condvar --- *)

let try_pop q =
  locked q.q_mutex (fun () ->
      if Queue.is_empty q.q_tasks then None else Some (Queue.pop q.q_tasks))

let try_steal pool idx =
  let w = Array.length pool.queues in
  let rec scan k =
    if k >= w then None
    else
      match try_pop pool.queues.((idx + k) mod w) with
      | Some _ as r -> r
      | None -> scan (k + 1)
  in
  scan 1

let rec get_task pool idx =
  let own = pool.queues.(idx) in
  match try_pop own with
  | Some _ as r -> r
  | None -> (
      match try_steal pool idx with
      | Some _ as r -> r
      | None ->
          if Atomic.get pool.shutting_down then None
          else begin
            (* sleep only if the own queue is still empty under the lock:
               submit signals under the same mutex, so no wakeup is lost.
               A task parked in a peer's queue wakes that peer's owner;
               stealing is opportunistic, not load-bearing for liveness. *)
            locked own.q_mutex (fun () ->
                if Queue.is_empty own.q_tasks && not (Atomic.get pool.shutting_down)
                then Condition.wait own.q_cond own.q_mutex);
            get_task pool idx
          end)

let rec worker_loop pool idx =
  match get_task pool idx with
  | None -> ()  (* shutting down and every reachable queue drained *)
  | Some task ->
      run_task pool task;
      worker_loop pool idx

let default_domains () = max 1 (Domain.recommended_domain_count ())

let create ?(clamp = true) ?domains () =
  let requested =
    match domains with Some d when d > 0 -> d | _ -> default_domains ()
  in
  (* more domains than cores is pure overhead: no extra parallelism, and
     every minor GC must stop-the-world across all of them *)
  let n = if clamp then min requested (default_domains ()) else requested in
  let pool =
    {
      queues =
        Array.init (n - 1) (fun _ ->
            { q_mutex = Mutex.create (); q_cond = Condition.create (); q_tasks = Queue.create () });
      handles = [||];
      shutting_down = Atomic.make false;
      ticket = Atomic.make 0;
      errors = Atomic.make 0;
    }
  in
  pool.handles <-
    Array.init (n - 1) (fun idx ->
        Domain.spawn (fun () ->
            Domain.DLS.set dls_pool (Some pool);
            worker_loop pool idx));
  pool

let size t = Array.length t.queues + 1

let shutdown t =
  Atomic.set t.shutting_down true;
  Array.iter (fun q -> locked q.q_mutex (fun () -> Condition.broadcast q.q_cond)) t.queues;
  Array.iter Domain.join t.handles;
  t.handles <- [||]

(* An optional wrapper applied to every queued task at submit time, on
   the submitting thread.  Sbi_obs installs one to propagate trace
   context across domains and to measure queue wait vs. run time; the
   pool itself stays dependency-free.  Inline execution paths (async
   from a worker or an empty pool, chunks the caller claims itself)
   bypass it: they never wait in a queue and already run in the
   submitter's context. *)
let task_hook : (task -> task) ref = ref (fun t -> t)
let set_task_hook f = task_hook := f

let enqueue_at t i task =
  let q = t.queues.(i) in
  locked q.q_mutex (fun () ->
      if Atomic.get t.shutting_down then false
      else begin
        Queue.push task q.q_tasks;
        Condition.signal q.q_cond;
        true
      end)

let submit t task =
  let task = !task_hook task in
  let w = Array.length t.queues in
  if w = 0 || on_worker t then run_task t task
  else begin
    let i = Atomic.fetch_and_add t.ticket 1 mod w in
    (* a pool racing into shutdown degrades to inline execution rather
       than dropping (or rejecting) the task *)
    if not (enqueue_at t i task) then run_task t task
  end

(* --- futures (cross-query parallelism: the serving path) --- *)

type 'a future = {
  f_mutex : Mutex.t;
  f_done : Condition.t;
  mutable f_state : 'a state;
}

and 'a state = Pending | Done of 'a | Failed of exn

let async t f =
  let fut = { f_mutex = Mutex.create (); f_done = Condition.create (); f_state = Pending } in
  let run () =
    let state = match f () with v -> Done v | exception e -> Failed e in
    locked fut.f_mutex (fun () ->
        fut.f_state <- state;
        Condition.broadcast fut.f_done)
  in
  (* nested use from a worker (or a 1-domain pool) executes inline: the
     submitting worker would otherwise occupy its slot waiting for a peer
     that may never be free — the classic fixed-pool deadlock *)
  if Array.length t.queues = 0 || on_worker t then run () else submit t run;
  fut

let await fut =
  locked fut.f_mutex (fun () ->
      let rec wait () =
        match fut.f_state with
        | Pending ->
            Condition.wait fut.f_done fut.f_mutex;
            wait ()
        | Done v -> v
        | Failed e -> raise e
      in
      wait ())

let run t f = await (async t f)

(* --- chunked fan-out (data parallelism: rescoring, segment load) ---

   Chunk geometry depends only on (n, grain, pool size): [0, n) is cut
   into ceil(n / chunk) chunks of [chunk = max grain (ceil (n / (4 *
   participants)))] elements.  ~4 chunks per participant keeps handoff
   amortized while leaving enough slack for dynamic rebalancing; which
   participant runs which chunk is decided at runtime by the atomic
   cursor and never affects the result (bodies write block-disjoint
   locations; scratch merges must be commutative). *)

let chunks_per_participant = 4

let chunk_size t ~grain ~n =
  let parts = Array.length t.queues + 1 in
  let target = parts * chunks_per_participant in
  max grain ((n + target - 1) / target)

(* Enqueue one shared helper to each of [helpers] distinct workers, one
   lock round per worker — not one queue round-trip per block like the
   old static fan-out.  Wrapped once: the submit-time context is the
   same for all of them. *)
let spawn_helpers t ~helpers work =
  let w = Array.length t.queues in
  let help = !task_hook work in
  let start = Atomic.fetch_and_add t.ticket 1 in
  for k = 0 to helpers - 1 do
    ignore (enqueue_at t ((start + k) mod w) help)
  done

type job = {
  j_fn : int -> int -> unit;
  j_n : int;
  j_chunk : int;
  j_nchunks : int;
  j_next : int Atomic.t;  (* chunk cursor *)
  j_left : int Atomic.t;  (* chunks not yet completed *)
  j_mutex : Mutex.t;
  j_finished : Condition.t;
  mutable j_failure : exn option;
}

let job_fail job e =
  locked job.j_mutex (fun () -> if job.j_failure = None then job.j_failure <- Some e)

(* Claim-and-run loop shared by the caller and every helper.  A helper
   that arrives after the cursor ran dry (its worker was busy and the
   others finished the job) is a cheap no-op. *)
let work_job job =
  let rec claim () =
    let c = Atomic.fetch_and_add job.j_next 1 in
    if c < job.j_nchunks then begin
      let lo = c * job.j_chunk in
      let hi = min job.j_n (lo + job.j_chunk) in
      (try job.j_fn lo hi with e -> job_fail job e);
      if Atomic.fetch_and_add job.j_left (-1) = 1 then
        locked job.j_mutex (fun () -> Condition.broadcast job.j_finished);
      claim ()
    end
  in
  claim ()

let parallel_for t ?(grain = 1) ~n f =
  let grain = max 1 grain in
  if n > 0 then begin
    let w = Array.length t.queues in
    (* sequential cutoff: sub-grain work (and any nested or post-shutdown
       fan-out) runs inline and never touches the queues *)
    if w = 0 || on_worker t || n <= grain then f 0 n
    else begin
      let chunk = chunk_size t ~grain ~n in
      let nchunks = (n + chunk - 1) / chunk in
      if nchunks < 2 then f 0 n
      else begin
        let job =
          {
            j_fn = f;
            j_n = n;
            j_chunk = chunk;
            j_nchunks = nchunks;
            j_next = Atomic.make 0;
            j_left = Atomic.make nchunks;
            j_mutex = Mutex.create ();
            j_finished = Condition.create ();
            j_failure = None;
          }
        in
        spawn_helpers t ~helpers:(min w (nchunks - 1)) (fun () -> work_job job);
        (* the caller claims chunks too instead of idling at the barrier *)
        work_job job;
        locked job.j_mutex (fun () ->
            while Atomic.get job.j_left > 0 do
              Condition.wait job.j_finished job.j_mutex
            done);
        match job.j_failure with Some e -> raise e | None -> ()
      end
    end
  end

(* --- scratch fan-out (per-domain private accumulators) ---

   Like {!parallel_for}, but each participant lazily allocates one
   private scratch value for all the chunks it claims and merges it into
   the shared result exactly once, under the job mutex, after the cursor
   runs dry.  Bodies therefore never write shared cache lines at all —
   the false-sharing chunk-boundary writes of a shared result array are
   gone — at the cost of one commutative merge per participant. *)

type 'acc sjob = {
  s_fn : 'acc -> int -> int -> unit;
  s_scratch : unit -> 'acc;
  s_merge : 'acc -> unit;
  s_n : int;
  s_chunk : int;
  s_nchunks : int;
  s_next : int Atomic.t;
  s_mutex : Mutex.t;
  s_finished : Condition.t;
  mutable s_chunks_done : int;
  mutable s_entered : int;  (* participants that claimed >= 1 chunk *)
  mutable s_merged : int;  (* participants whose merge has run *)
  mutable s_failure : exn option;
}

let sjob_fail job e =
  if job.s_failure = None then job.s_failure <- Some e

(* Entry is registered (under the mutex) before the participant's first
   chunk completes, so the barrier below can never observe "all chunks
   done" without also counting every participant that still owes a
   merge; and a helper that claims no chunk never enters, so no merge
   can run after the barrier releases the caller. *)
let swork job =
  let c0 = Atomic.fetch_and_add job.s_next 1 in
  if c0 < job.s_nchunks then begin
    locked job.s_mutex (fun () -> job.s_entered <- job.s_entered + 1);
    let acc =
      match job.s_scratch () with
      | a -> Some a
      | exception e ->
          locked job.s_mutex (fun () -> sjob_fail job e);
          None
    in
    let run_chunk c =
      let lo = c * job.s_chunk in
      let hi = min job.s_n (lo + job.s_chunk) in
      (match acc with
      | Some a -> ( try job.s_fn a lo hi with e -> locked job.s_mutex (fun () -> sjob_fail job e))
      | None -> ());
      locked job.s_mutex (fun () -> job.s_chunks_done <- job.s_chunks_done + 1)
    in
    run_chunk c0;
    let rec claim () =
      let c = Atomic.fetch_and_add job.s_next 1 in
      if c < job.s_nchunks then begin
        run_chunk c;
        claim ()
      end
    in
    claim ();
    locked job.s_mutex (fun () ->
        (match acc with
        | Some a -> ( try job.s_merge a with e -> sjob_fail job e)
        | None -> ());
        job.s_merged <- job.s_merged + 1;
        if job.s_chunks_done = job.s_nchunks && job.s_merged = job.s_entered then
          Condition.broadcast job.s_finished)
  end

let parallel_for_scratch t ?(grain = 1) ~n ~scratch ~merge body =
  let grain = max 1 grain in
  if n > 0 then begin
    let w = Array.length t.queues in
    let inline () =
      let acc = scratch () in
      body acc 0 n;
      merge acc
    in
    if w = 0 || on_worker t || n <= grain then inline ()
    else begin
      let chunk = chunk_size t ~grain ~n in
      let nchunks = (n + chunk - 1) / chunk in
      if nchunks < 2 then inline ()
      else begin
        let job =
          {
            s_fn = body;
            s_scratch = scratch;
            s_merge = merge;
            s_n = n;
            s_chunk = chunk;
            s_nchunks = nchunks;
            s_next = Atomic.make 0;
            s_mutex = Mutex.create ();
            s_finished = Condition.create ();
            s_chunks_done = 0;
            s_entered = 0;
            s_merged = 0;
            s_failure = None;
          }
        in
        spawn_helpers t ~helpers:(min w (nchunks - 1)) (fun () -> swork job);
        swork job;
        locked job.s_mutex (fun () ->
            while not (job.s_chunks_done = job.s_nchunks && job.s_merged = job.s_entered) do
              Condition.wait job.s_finished job.s_mutex
            done);
        match job.s_failure with Some e -> raise e | None -> ()
      end
    end
  end

let map_array t ?grain f arr =
  (* the fan-out covers every element, 0 included, so none runs on the
     caller ahead of the others *)
  let out = Array.make (Array.length arr) None in
  parallel_for t ?grain ~n:(Array.length arr) (fun lo hi ->
      for i = lo to hi - 1 do
        out.(i) <- Some (f arr.(i))
      done);
  Array.map Option.get out
