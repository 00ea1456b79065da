(* Event-driven, multi-domain connection front end.

   Connection count must stay cheap at fleet scale: no systhread per
   client, and no [Unix.select], which raises once any fd crosses
   FD_SETSIZE (1024).  So [loops] domains each run a poll(2) readiness
   loop (C stub in [poll_stubs.c]) over non-blocking connection fds,
   driving a per-connection state machine for the newline/dot-framed
   protocol — read buffer → incremental parse → dispatch → write
   buffer.

   Division of labour:

   - {b Loop domains} own their connections exclusively (no per-conn
     locks): they accept, read, parse, flush write buffers, and enforce
     monotonic-clock idle deadlines.  They never block on request work.
   - {b Worker threads} (a small bounded pool) run the [handler] —
     triage queries, ingest parked on the group-commit window — and post
     the rendered response back to the owning loop through a
     mutex-protected inbox plus a self-pipe wakeup.

   Backpressure is structural: while a request is being handled (or its
   response is still draining), the connection's fd is dropped from the
   loop's read interest set, so a flooding peer is throttled by the
   kernel socket buffer instead of growing server-side queues.  At most
   one request per connection is in flight, so a connection's responses
   leave in request order.

   One listener for every transport: loop 0 polls it and round-robins
   accepted fds to its peers ([Adopt] message), itself included. *)

module Clock = Sbi_obs.Clock
module Io = Sbi_fault.Io

(* --- poll(2) primitives --- *)

external poll_fds : Unix.file_descr array -> int array -> int -> int
  = "sbi_serve_poll"
(* [poll_fds fds events timeout_ms] polls [fds] with interest bits from
   [events] (1 = read, 2 = write), writes readiness bits back into
   [events] in place (adding 4 = error/hangup), and returns poll(2)'s
   ready count — or -1 when the wait was interrupted (EINTR), leaving
   the caller to recompute its timeout budget. *)

external nofile : int -> int * int = "sbi_serve_nofile"

let nofile_limit () = nofile (-1)

let set_nofile_limit n =
  if n < 0 then invalid_arg "Evloop.set_nofile_limit: negative limit";
  nofile n

let ev_read = 1
let ev_write = 2
let ev_error = 4

(* Single-fd readiness wait with EINTR-safe deadline accounting: the
   poll-based replacement for the [Unix.select] calls that used to guard
   client connect deadlines and the group-commit self-pipe (both broke
   outright on fds >= FD_SETSIZE).  [timeout_ms < 0] waits forever. *)
let wait_fd interest fd ~timeout_ms =
  let fds = [| fd |] in
  let deadline =
    if timeout_ms < 0 then None else Some (Clock.now_ns () + (timeout_ms * 1_000_000))
  in
  let rec go timeout_ms =
    let events = [| interest |] in
    match poll_fds fds events timeout_ms with
    | -1 -> (
        (* interrupted: spend only the remaining budget *)
        match deadline with
        | None -> go (-1)
        | Some d ->
            let left_ns = d - Clock.now_ns () in
            if left_ns <= 0 then `Timeout else go ((left_ns + 999_999) / 1_000_000))
    | 0 -> `Timeout
    | _ -> `Ready (* readiness, or error/hangup: the next syscall reports it *)
  in
  go timeout_ms

let wait_readable ?(timeout_ms = -1) fd = wait_fd ev_read fd ~timeout_ms
let wait_writable ?(timeout_ms = -1) fd = wait_fd ev_write fd ~timeout_ms

(* --- the connection front end --- *)

type request = Line of string | Batch of string list
type response = { body : string; close : bool }

type config = {
  loops : int;
  workers : int;
  max_conns : int;  (* admission cap, enforced exactly at accept time *)
  max_line : int;
  max_batch_lines : int;
  idle_timeout_ns : int;  (* <= 0 disables idle deadlines *)
  io : Io.t;
  handler : request -> response;  (* runs on the worker pool, never on a loop *)
  on_fault : string -> unit;
  on_open : unit -> unit;
  on_close : unit -> unit;
}

type batch_acc = { mutable b_payloads : string list; mutable b_count : int }

type conn = {
  c_id : int;
  c_fd : Unix.file_descr;
  mutable c_rbuf : Bytes.t;  (* unparsed input, always at offset 0 *)
  mutable c_rlen : int;
  mutable c_wbuf : string;  (* pending response bytes *)
  mutable c_wpos : int;  (* already written prefix of c_wbuf *)
  mutable c_busy : bool;  (* a request is on the worker pool *)
  mutable c_no_read : bool;  (* terminal: drain the write buffer, then close *)
  mutable c_close_after_write : bool;
  mutable c_quit : bool;  (* peer sent [quit]: its hang-up is no fault *)
  mutable c_batch : batch_acc option;  (* inside an ingest-batch body *)
  mutable c_deadline : int;  (* monotonic ns; refreshed on any progress *)
}

type msg =
  | Dispatched of conn * response  (* worker -> owning loop *)
  | Adopt of Unix.file_descr  (* distributor -> peer loop *)

type loop = {
  l_id : int;
  l_wake_r : Unix.file_descr;
  l_wake_w : Unix.file_descr;
  l_mx : Mutex.t;  (* guards l_inbox and l_dead *)
  mutable l_inbox : msg list;  (* newest first *)
  mutable l_dead : bool;  (* set at loop exit: no further posts land *)
  l_conns : (int, conn) Hashtbl.t;  (* touched only by the owning domain *)
  l_listener : Unix.file_descr option;
  mutable l_pause_until : int;
      (* accept backoff: after a transient accept(2) failure (EMFILE,
         ECONNABORTED, ...) the listener is dropped from the interest set
         until this stamp — live connections keep being served at full
         speed while the listener cools off *)
}

type t = {
  cfg : config;
  loops : loop array;
  stop : bool Atomic.t;
  nconns : int Atomic.t;  (* admitted, not yet closed — the exact cap counter *)
  next_id : int Atomic.t;
  mutable rr : int;  (* accept round-robin cursor; loop 0 only *)
  wq : (loop * conn * request) Queue.t;
  wq_mx : Mutex.t;
  wq_cv : Condition.t;
  mutable domains : unit Domain.t list;
  mutable workers : Thread.t list;
}

let accept_backoff_ns = 50_000_000
let busy_reply = Wire.render_err "busy"

let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

let kick l =
  try ignore (Unix.single_write_substring l.l_wake_w "!" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _)
  ->
    ()

(* Delivers a message to a loop's inbox; false if the loop already died
   (caller owns any fd riding in the message). *)
let post l msg =
  Mutex.lock l.l_mx;
  let ok = not l.l_dead in
  if ok then l.l_inbox <- msg :: l.l_inbox;
  Mutex.unlock l.l_mx;
  if ok then kick l;
  ok

let drain_wake l =
  let buf = Bytes.create 256 in
  let rec go () =
    match Unix.read l.l_wake_r buf 0 256 with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

let deadline_of g now = if g.cfg.idle_timeout_ns <= 0 then max_int else now + g.cfg.idle_timeout_ns
let touch g c = c.c_deadline <- deadline_of g (Clock.now_ns ())
let wpending c = String.length c.c_wbuf - c.c_wpos

let close_conn g l c =
  if Hashtbl.mem l.l_conns c.c_id then begin
    Hashtbl.remove l.l_conns c.c_id;
    (* halt any in-progress parse recursion over this connection *)
    c.c_no_read <- true;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    Atomic.decr g.nconns;
    g.cfg.on_close ()
  end

(* A connection error after the peer said [quit] is its clean close
   racing our [bye] (the client closes without reading it), not a fault. *)
let conn_fault g c kind = if not c.c_quit then g.cfg.on_fault kind

let enqueue_write c body =
  if c.c_wpos > 0 then begin
    c.c_wbuf <- String.sub c.c_wbuf c.c_wpos (String.length c.c_wbuf - c.c_wpos);
    c.c_wpos <- 0
  end;
  c.c_wbuf <- (if c.c_wbuf = "" then body else c.c_wbuf ^ body)

(* Hands a parsed request to the worker pool; the connection is parked
   ([c_busy]) until the response comes back through the inbox. *)
let submit g l c req =
  c.c_busy <- true;
  Mutex.lock g.wq_mx;
  Queue.add (l, c, req) g.wq;
  Condition.signal g.wq_cv;
  Mutex.unlock g.wq_mx

(* The per-connection state machine.  [conn_flush] drains the write
   buffer as far as the socket accepts and, once fully drained, resumes
   parsing any pipelined input left in the read buffer; [parse_lines]
   walks complete lines (tracking a consumed offset — compaction happens
   once, in [conn_parse]) and stops as soon as a request is submitted,
   so exactly one request per connection is ever in flight. *)
let rec conn_oversize g l c msg =
  g.cfg.on_fault "oversize";
  c.c_batch <- None;
  c.c_no_read <- true;
  c.c_close_after_write <- true;
  enqueue_write c (Wire.render_err msg);
  conn_flush g l c

and conn_flush g l c =
  let len = wpending c in
  if len = 0 then begin
    if c.c_wbuf <> "" then begin
      c.c_wbuf <- "";
      c.c_wpos <- 0
    end;
    if c.c_close_after_write then close_conn g l c
    else if (not c.c_busy) && not c.c_no_read then conn_parse g l c
  end
  else
    match Io.fd_write ~io:g.cfg.io c.c_fd (Bytes.unsafe_of_string c.c_wbuf) c.c_wpos len with
    | 0 -> ()
    | n ->
        c.c_wpos <- c.c_wpos + n;
        touch g c;
        conn_flush g l c
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> conn_flush g l c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        () (* kernel buffer full: wait for POLLOUT *)
    | exception Unix.Unix_error _ ->
        conn_fault g c "reset";
        close_conn g l c

and conn_parse g l c =
  let consumed = parse_lines g l c 0 in
  if consumed > 0 then begin
    let remain = c.c_rlen - consumed in
    if remain > 0 then Bytes.blit c.c_rbuf consumed c.c_rbuf 0 remain;
    c.c_rlen <- remain
  end

and parse_lines g l c off =
  if c.c_busy || c.c_no_read then off
  else
    let newline =
      match Bytes.index_from_opt c.c_rbuf off '\n' with
      | Some i when i < c.c_rlen -> Some i
      | _ -> None (* a '\n' at or past c_rlen is stale buffer content *)
    in
    match newline with
    | None ->
        if c.c_rlen - off > g.cfg.max_line then
          conn_oversize g l c
            (Printf.sprintf "request exceeds %d bytes" g.cfg.max_line);
        off
    | Some i ->
        let line = strip_cr (Bytes.sub_string c.c_rbuf off (i - off)) in
        let off = i + 1 in
        if String.length line > g.cfg.max_line then begin
          conn_oversize g l c
            (Printf.sprintf "request exceeds %d bytes" g.cfg.max_line);
          off
        end
        else begin
          (match c.c_batch with
          | Some b ->
              if line = "." then begin
                c.c_batch <- None;
                if b.b_count > g.cfg.max_batch_lines then begin
                  (* consumed through the terminator: reject the batch
                     without dropping the connection, so the stream
                     stays in sync.  The write is picked up by the next
                     poll round (POLLOUT interest). *)
                  g.cfg.on_fault "oversize";
                  enqueue_write c
                    (Wire.render_err
                       (Printf.sprintf "ingest-batch exceeds %d reports"
                          g.cfg.max_batch_lines))
                end
                else submit g l c (Batch (List.rev b.b_payloads))
              end
              else begin
                b.b_count <- b.b_count + 1;
                if b.b_count <= g.cfg.max_batch_lines then
                  b.b_payloads <- Wire.unstuff line :: b.b_payloads
              end
          | None ->
              if line = "ingest-batch" then
                c.c_batch <- Some { b_payloads = []; b_count = 0 }
              else begin
                if line = "quit" then c.c_quit <- true;
                submit g l c (Line line)
              end);
          parse_lines g l c off
        end

let read_step g l c =
  (* ensure read headroom; the buffer is bounded by the line limit (the
     parser rejects an unterminated line beyond [max_line] well before
     the bound is reached) *)
  let cap = Bytes.length c.c_rbuf in
  let limit = g.cfg.max_line + 8192 in
  if c.c_rlen = cap && cap < limit then begin
    let grown = Bytes.create (min (cap * 2) limit) in
    Bytes.blit c.c_rbuf 0 grown 0 c.c_rlen;
    c.c_rbuf <- grown
  end;
  let room = Bytes.length c.c_rbuf - c.c_rlen in
  if room <= 0 then
    conn_oversize g l c (Printf.sprintf "request exceeds %d bytes" g.cfg.max_line)
  else
    match Io.fd_read ~io:g.cfg.io c.c_fd c.c_rbuf c.c_rlen room with
    | 0 -> close_conn g l c (* peer closed *)
    | n ->
        c.c_rlen <- c.c_rlen + n;
        touch g c;
        conn_parse g l c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        conn_fault g c "reset";
        close_conn g l c
    | exception Unix.Unix_error _ ->
        conn_fault g c "error";
        close_conn g l c

let register g l fd =
  let id = Atomic.fetch_and_add g.next_id 1 in
  let c =
    {
      c_id = id;
      c_fd = fd;
      c_rbuf = Bytes.create 4096;
      c_rlen = 0;
      c_wbuf = "";
      c_wpos = 0;
      c_busy = false;
      c_no_read = false;
      c_close_after_write = false;
      c_quit = false;
      c_batch = None;
      c_deadline = deadline_of g (Clock.now_ns ());
    }
  in
  Hashtbl.replace l.l_conns id c;
  g.cfg.on_open ();
  (* bytes may already be queued on a freshly adopted socket *)
  read_step g l c

let drain_inbox g l =
  Mutex.lock l.l_mx;
  let msgs = List.rev l.l_inbox in
  l.l_inbox <- [];
  Mutex.unlock l.l_mx;
  List.iter
    (fun msg ->
      match msg with
      | Adopt fd ->
          if Atomic.get g.stop then begin
            (try Unix.close fd with Unix.Unix_error _ -> ());
            Atomic.decr g.nconns
          end
          else register g l fd
      | Dispatched (c, resp) ->
          if Hashtbl.mem l.l_conns c.c_id then begin
            c.c_busy <- false;
            if resp.close then begin
              c.c_no_read <- true;
              c.c_close_after_write <- true
            end;
            enqueue_write c resp.body;
            touch g c;
            conn_flush g l c
          end)
    msgs

let pick_loop g =
  let i = g.rr in
  g.rr <- (i + 1) mod Array.length g.loops;
  g.loops.(i)

let accept_step g l lfd =
  let rec burst budget =
    if budget > 0 && not (Atomic.get g.stop) then
      match Unix.accept ~cloexec:true lfd with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> burst budget
      | exception Unix.Unix_error (Unix.EBADF, _, _) ->
          () (* listener closed by stop *)
      | exception Unix.Unix_error (_, _, _) ->
          (* EMFILE/ENFILE/ECONNABORTED/ENOBUFS/...: transient.  Count
             it, park the listener briefly, keep serving — the old
             accept loop swallowed these as "listener closed" and spun,
             silently dropping every connection attempt. *)
          g.cfg.on_fault "accept";
          l.l_pause_until <- Clock.now_ns () + accept_backoff_ns
      | fd, _ ->
          (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
          (* exact admission: fetch_and_add decides, losers roll back —
             two loops racing at max_conns - 1 can never both admit *)
          if Atomic.fetch_and_add g.nconns 1 >= g.cfg.max_conns then begin
            Atomic.decr g.nconns;
            g.cfg.on_fault "overload";
            (try
               ignore (Unix.write_substring fd busy_reply 0 (String.length busy_reply))
             with Unix.Unix_error _ -> ());
            (try Unix.close fd with Unix.Unix_error _ -> ());
            burst (budget - 1)
          end
          else begin
            let target = pick_loop g in
            if target == l then register g l fd
            else if not (post target (Adopt fd)) then begin
              (try Unix.close fd with Unix.Unix_error _ -> ());
              Atomic.decr g.nconns
            end;
            burst (budget - 1)
          end
  in
  burst 64

(* Idle-deadline sweep.  Busy connections are exempt — the request clock
   belongs to the handler; the deadline governs peers, not workers.  A
   connection that expired with response bytes still pending stalled on
   *our* write (peer stopped reading): that is a send stall, not a
   receive timeout, and is classified separately. *)
let sweep g l now =
  if g.cfg.idle_timeout_ns > 0 then begin
    let expired =
      Hashtbl.fold
        (fun _ c acc -> if (not c.c_busy) && now >= c.c_deadline then c :: acc else acc)
        l.l_conns []
    in
    List.iter
      (fun c ->
        conn_fault g c (if wpending c > 0 then "send_timeout" else "timeout");
        close_conn g l c)
      expired
  end

let loop_iter g l =
  drain_inbox g l;
  let now = Clock.now_ns () in
  sweep g l now;
  (* build the interest set *)
  let tags = ref [] and fds = ref [] and evs = ref [] in
  let add tag fd interest =
    tags := tag :: !tags;
    fds := fd :: !fds;
    evs := interest :: !evs
  in
  add `Wake l.l_wake_r ev_read;
  (match l.l_listener with
  | Some lfd when now >= l.l_pause_until -> add (`Listener lfd) lfd ev_read
  | _ -> ());
  let next_deadline = ref max_int in
  Hashtbl.iter
    (fun _ c ->
      let want_w = wpending c > 0 in
      let want_r = (not c.c_busy) && (not c.c_no_read) && not want_w in
      if not c.c_busy then next_deadline := min !next_deadline c.c_deadline;
      if want_r || want_w then
        add (`Conn c) c.c_fd
          ((if want_r then ev_read else 0) lor if want_w then ev_write else 0))
    l.l_conns;
  (match l.l_listener with
  | Some _ when l.l_pause_until > now ->
      next_deadline := min !next_deadline l.l_pause_until
  | _ -> ());
  let timeout_ms =
    if !next_deadline = max_int then 250
    else min 250 (max 0 ((!next_deadline - now + 999_999) / 1_000_000))
  in
  let tags = Array.of_list !tags in
  let fds = Array.of_list !fds in
  let evs = Array.of_list !evs in
  match poll_fds fds evs timeout_ms with
  | -1 | 0 -> ()
  | _ ->
      Array.iteri
        (fun i tag ->
          let re = evs.(i) in
          if re <> 0 then
            match tag with
            | `Wake -> drain_wake l
            | `Listener lfd -> accept_step g l lfd
            | `Conn c ->
                if Hashtbl.mem l.l_conns c.c_id then begin
                  if re land ev_write <> 0 then conn_flush g l c;
                  if
                    Hashtbl.mem l.l_conns c.c_id
                    && re land (ev_read lor ev_error) <> 0
                  then
                    if wpending c > 0 then conn_flush g l c
                      (* error/hangup while write-parked: the write
                         reports it (EPIPE) *)
                    else if (not c.c_busy) && not c.c_no_read then read_step g l c
                    else if re land ev_error <> 0 then begin
                      conn_fault g c "reset";
                      close_conn g l c
                    end
                end)
        tags

let loop_main g l =
  let rec run () =
    if not (Atomic.get g.stop) then begin
      (try loop_iter g l
       with e ->
         (* a loop domain must never die while the server runs: count
            the fault, cool off, keep serving *)
         g.cfg.on_fault "loop";
         prerr_endline ("cbi serve: event loop error: " ^ Printexc.to_string e);
         Unix.sleepf 0.05);
      run ()
    end
  in
  run ();
  (* teardown: refuse further posts, then release everything this loop
     owns — adopted-but-unregistered fds included, so no admission slot
     or descriptor leaks through shutdown *)
  Mutex.lock l.l_mx;
  l.l_dead <- true;
  let pending = l.l_inbox in
  l.l_inbox <- [];
  Mutex.unlock l.l_mx;
  List.iter
    (fun msg ->
      match msg with
      | Adopt fd ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Atomic.decr g.nconns
      | Dispatched _ -> ())
    pending;
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) l.l_conns [] in
  List.iter (fun c -> close_conn g l c) conns

(* Workers drain the queue even after stop is raised: a request already
   parsed off a connection completes (its side effects — a durable
   ingest — happen before shutdown returns); the response is dropped if
   the owning loop is gone. *)
let worker_loop g =
  let next () =
    Mutex.lock g.wq_mx;
    let rec go () =
      if not (Queue.is_empty g.wq) then Some (Queue.pop g.wq)
      else if Atomic.get g.stop then None
      else begin
        Condition.wait g.wq_cv g.wq_mx;
        go ()
      end
    in
    let job = go () in
    Mutex.unlock g.wq_mx;
    job
  in
  let rec run () =
    match next () with
    | None -> ()
    | Some (l, c, req) ->
        let resp =
          try g.cfg.handler req
          with e ->
            {
              body = Wire.render_err ("internal error: " ^ Printexc.to_string e);
              close = true;
            }
        in
        ignore (post l (Dispatched (c, resp)));
        run ()
  in
  run ()

let mk_loop id listener =
  let r, w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock r;
  Unix.set_nonblock w;
  {
    l_id = id;
    l_wake_r = r;
    l_wake_w = w;
    l_mx = Mutex.create ();
    l_inbox = [];
    l_dead = false;
    l_conns = Hashtbl.create 64;
    l_listener = listener;
    l_pause_until = 0;
  }

let start (cfg : config) lfd =
  let nloops = max 1 cfg.loops in
  (* the accept burst relies on EAGAIN to stop: a blocking listener
     would wedge the whole loop domain inside accept(2) *)
  Unix.set_nonblock lfd;
  let g =
    {
      cfg = { cfg with loops = nloops };
      loops = Array.init nloops (fun i -> mk_loop i (if i = 0 then Some lfd else None));
      stop = Atomic.make false;
      nconns = Atomic.make 0;
      next_id = Atomic.make 0;
      rr = 0;
      wq = Queue.create ();
      wq_mx = Mutex.create ();
      wq_cv = Condition.create ();
      domains = [];
      workers = [];
    }
  in
  g.domains <-
    List.init nloops (fun i -> Domain.spawn (fun () -> loop_main g g.loops.(i)));
  g.workers <-
    List.init (max 1 cfg.workers) (fun _ -> Thread.create worker_loop g);
  g

let stop g =
  if not (Atomic.exchange g.stop true) then begin
    Array.iter kick g.loops;
    List.iter Domain.join g.domains;
    g.domains <- [];
    Mutex.lock g.wq_mx;
    Condition.broadcast g.wq_cv;
    Mutex.unlock g.wq_mx;
    List.iter Thread.join g.workers;
    g.workers <- [];
    Array.iter
      (fun l ->
        (try Unix.close l.l_wake_r with Unix.Unix_error _ -> ());
        try Unix.close l.l_wake_w with Unix.Unix_error _ -> ())
      g.loops
  end

let conn_count g = Atomic.get g.nconns
