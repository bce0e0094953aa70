(** The certification daemon: IFC-as-a-service over the batch pipeline.

    One server multiplexes any number of concurrent client connections
    onto a single {!Ifc_pipeline.Pool} of worker domains and one shared
    content-addressed {!Ifc_pipeline.Cache} — so every client benefits
    from every other client's certifications. The wire protocol is
    {!Protocol} (newline-delimited JSON, versioned; version 4 adds
    per-connection pipelining); robustness comes from {!Limits}
    (request size, connection, queue, and in-flight caps, deadlines
    with cooperative cancellation) and observability from
    {!Ifc_pipeline.Telemetry} (counters, a latency histogram, an
    optional JSONL request log, and the [stats] operation).

    Connections are served by [shards] event-loop threads, each owning
    the read/write buffers of the connections dealt to it, batching
    NDJSON reads and writes and dispatching pipelined requests
    concurrently. {!handle} drives the same classification core one
    request at a time without sockets; the differential server oracle
    ({!Oracle}) replays request streams through it as its serial
    reference.

    Lifecycle: {!create} binds the sockets, {!run} serves until
    {!request_stop} (typically from a SIGINT/SIGTERM handler — it only
    flips an atomic, so it is safe in a signal handler), then drains:
    in-flight requests complete and are answered, shard threads and
    worker domains are joined, the request log is flushed and closed,
    and Unix socket files are unlinked. *)

type config = {
  endpoints : Conn.endpoint list;  (** At least one. *)
  workers : int;  (** Worker domains for the job pool. *)
  shards : int;
      (** Connection-shard event loops, at least one. The shared cache
          is striped [shards] ways. *)
  cache_capacity : int;  (** Shared LRU result cache entries. *)
  limits : Limits.t;
  log : Ifc_pipeline.Telemetry.sink option;
      (** JSONL request log; the server closes it on drain. *)
  store : Ifc_pipeline.Tier.t option;
      (** Persistent second-level result tier. When set, {!create}
          warm-starts the memory cache from the tier's hottest
          generation, cache misses consult the tier before computing,
          computed results are persisted, drain records the cache's
          final heat back to the tier, and [stats] responses gain a
          [store] object. *)
}

val default_config : config
(** No endpoints (caller must add some), 1 worker, the recommended
    domain count of connection shards, 4096 cache entries,
    {!Limits.default}, no log, no store. *)

type t

val create : config -> (t, string) result
(** Binds and listens on every endpoint (stale Unix socket files are
    unlinked first), spawns the worker pool, and ignores [SIGPIPE]
    process-wide (a dead client must be an [EPIPE], not a crash).
    [Error] when there is no endpoint, no worker or no shard, or a bind
    fails. *)

val port : t -> int option
(** The actual port of the first TCP endpoint — useful after binding
    port [0]. *)

val run : t -> unit
(** The accept loop. Blocks until {!request_stop}, then drains and
    releases everything. Call from the thread that should own the
    server's lifetime. *)

val request_stop : t -> unit
(** Initiate graceful shutdown; safe to call from a signal handler or
    any thread, idempotent. *)

val stopped : t -> bool

val handle : t -> Conn.item -> string
(** One request item in, one response line out: {!run}'s
    classification core behind a blocking wait, so embedders, tests and
    the oracle's reference can drive a server without sockets. *)
