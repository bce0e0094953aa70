(** A fixed-size worker pool of OCaml 5 domains over a mutex/condition
    work queue.

    The pool is deliberately minimal: tasks are [unit -> unit] thunks,
    submission is FIFO, and results travel through whatever the thunk
    closes over ({!Batch} writes into a per-job slot). Every task runs
    under a per-worker exception barrier, so a faulting job can never
    kill a domain or wedge the queue — the exception is routed to the
    [on_error] callback (default: ignored) and the worker moves on.

    {!shutdown} is graceful: already-queued tasks drain before the
    domains exit, and the call blocks until every worker has been
    joined. *)

type t

val create : ?on_error:(worker:int -> exn -> unit) -> workers:int -> unit -> t
(** [create ~workers ()] spawns [workers] domains immediately.
    @raise Invalid_argument if [workers < 1]. *)

val workers : t -> int

val submit : t -> (unit -> unit) -> unit
(** Enqueues a task.
    @raise Invalid_argument if the pool has been shut down. *)

val pending : t -> int
(** Tasks enqueued but not yet picked up (a snapshot, racy by nature). *)

val shutdown : t -> unit
(** Stops accepting tasks, drains the queue, joins all domains.
    Idempotent; concurrent calls are safe. *)

val run : ?on_error:(worker:int -> exn -> unit) -> workers:int ->
  (unit -> unit) list -> unit
(** [run ~workers tasks] runs [tasks] in FIFO order on at most [workers]
    domains at once, under the same exception barrier ([worker] is in
    [[0, workers)]), and returns when all have finished. Its domains
    are single-worker pools that outlive the call and are reused by
    later calls: a process keeps as many as the most [run] workers ever
    busy at once, because OCaml 5.1 reclaims the heap of a terminated
    domain slowly. Idle domains still take part in every minor
    collection, which slows allocation-heavy code on other domains.
    @raise Invalid_argument if [workers < 1]. *)
