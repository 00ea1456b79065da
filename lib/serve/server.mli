(** Concurrent triage query server.

    Serves the {!Wire} protocol over a Unix or TCP socket through the
    event-driven {!Evloop} front end: [acceptors] poll(2) loop domains
    with per-connection state machines and a bounded dispatch worker
    pool.  On every transport loop 0 accepts on the one listener and
    round-robins connections across the loops.  Scales to thousands of
    concurrent connections (no per-connection thread, no FD_SETSIZE
    ceiling).

    The front end enforces the [max_conns] admission cap (excess clients
    get a one-line [err busy] and a [fault.overload] count, never a
    hang), counts transient accept(2) failures as [fault.accept] with a
    brief backoff instead of silently dropping connections, and feeds
    the server's {!Metrics}; dispatch takes a global lock around index
    state.

    Read-only queries ([topk], [pred], [affinity]) follow an
    epoch-snapshot read path: the lock is held only to fetch (or, after
    an ingest bumped the epoch, rebuild) the index's cached bitmap
    {!Sbi_index.Snapshot}; the query then computes on the immutable
    snapshot with the lock released, on the dispatch worker that took
    the request.  Readers never block ingest.

    Queries ([topk], [pred], [affinity], [stats], [ping]) read the open
    {!Index}; [topk] and [pred] accept an optional [formula=NAME]
    argument selecting any registered SBFL formula (see
    {!Sbi_sbfl.Registry}; the [formulas] command lists them), answered
    from the same cached snapshot aggregate as the default importance
    path; [ingest] decodes a base64 {!Sbi_ingest.Codec} payload,
    validates it against the site/predicate tables, appends it to a
    fresh shard of the index's source log (with [fsync] when configured,
    so an acknowledged report survives power loss), and folds it into
    the index's live tail — visible to the very next query.
    [ingest-batch] carries many payloads in one request (dot-framed like
    a response) and answers with one status line per report; with
    [group_commit_ms > 0] all ingest requests share windowed group-commit
    fsyncs, amortizing one durability barrier over every report that
    arrived in the window while keeping ack ⊆ fsynced.

    {!stop} is the graceful-shutdown path (the CLI wires it to SIGINT):
    stop accepting, close open connections, drain the dispatch workers,
    close the durable writer. *)

type t

type config = {
  addr : Wire.addr;
  timeout : float;
      (** per-connection idle deadline, seconds, swept by the owning
          loop: a connection that sends no request, or stops reading its
          response, for this long is closed ([fault.timeout] /
          [fault.send_timeout]); [<= 0] disables it *)
  fsync : bool;
      (** make every acknowledged report durable (inline or group-commit
          fsync, see [group_commit_ms]) *)
  ingest_log : string option;
      (** shard-log directory for durable ingest; [None] disables the
          [ingest] command *)
  max_request : int;
      (** byte bound on any single request line; an oversized request is
          rejected ([err] + close) and counted as a [fault.oversize] *)
  io : Sbi_fault.Io.t;
      (** fault-injection hook for wire and ingest-log I/O; passthrough
          ({!Sbi_fault.Io.none}) in production *)
  compact_every : float option;
      (** background compaction period in seconds; [None] (the default)
          disables the maintenance thread.  Each cycle runs
          {!Sbi_index.Index.compact} on the index directory, which deletes
          the merged-away files; when segments were merged, the index is
          reopened and the server swaps to it under its lock, carrying
          the live ingest tail over by reference.  Queries in flight keep
          reading the deleted files through the old index's mappings. *)
  tier_max : int;
      (** tier fan-in passed to {!Sbi_index.Index.compact}
          ({!Sbi_store.Tier.default_tier_max} by default) *)
  group_commit_ms : float;
      (** [> 0] (with [fsync] on and an ingest log): ingest switches to
          group commit — appends go to the shard-log buffer without an
          inline fsync, and a coordinator thread runs one [log.fsync]
          covering every report that arrived in the window (flushing on
          [max_batch] pending reports, this delay, or shutdown).  Acks
          and tail visibility are still released only after the covering
          fsync returns, so durable-before-visible and ack ⊆ fsynced are
          preserved exactly; only latency (up to the window) and fsync
          count change.  Default [2.].  [0.] keeps one inline fsync per
          ingest request — note that even then an [ingest-batch] request
          runs a single fsync barrier for the whole batch. *)
  max_batch : int;
      (** force a group-commit flush once this many reports are pending
          in the window (default 512) *)
  acceptors : int;
      (** {!Evloop} loop domains, [>= 1] (default 1).  Loop 0 accepts
          on the one listener and hands connections round-robin to all
          loops, itself included. *)
  max_conns : int;
      (** exact connection admission cap (default 4096): a client
          beyond it is accepted, answered [err busy], closed, and
          counted as [fault.overload] *)
}

val default_config : Wire.addr -> config
(** What [cbi serve] runs: 30s idle deadline, fsync on, no ingest log,
    1 MiB request bound, passthrough I/O, no background compaction, 2 ms
    group-commit window flushing at 512 pending reports, one event loop,
    4096-connection cap. *)

val max_batch_lines : int
(** Hard cap on reports per [ingest-batch] request (65536); larger
    batches are rejected whole, without dropping the connection. *)

val start : config -> Sbi_index.Index.t -> t
(** Bind, listen, and spawn the event loops.  When [ingest_log] is set,
    opens a writer on a fresh shard (max existing shard + 1), which
    {!stop} removes again if it took no report.
    @raise Unix.Unix_error when the address cannot be bound.
    @raise Invalid_argument when the address does not resolve, or
    [acceptors < 1] or [max_conns < 1]. *)

val addr : t -> Wire.addr

val stop : t -> unit
(** Graceful shutdown; idempotent.  Returns once every loop and
    dispatch worker has exited and the ingest writer (if any) is
    closed — and its shard file removed when no report was appended to
    it. *)

val ingested : t -> int
(** Reports accepted over the wire since {!start}. *)

val worker_count : t -> int
(** Live connections: admitted and not yet closed.  After every client
    has disconnected this drains to exactly zero. *)
