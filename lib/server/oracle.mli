(** Differential server oracle.

    Replays one seeded request stream twice — serially through
    {!Server.handle} of a fresh in-process reference server that never
    touches a socket, and pipelined over sockets against the sharded
    engine of a second, independent server — and demands byte-identical
    responses per correlation id after stripping the two legitimately
    nondeterministic fields ([duration_ns] timing and [cache]
    disposition, which concurrent identical requests may race). The two
    servers share no cache or pool. A nonempty divergence list is a bug
    in the sharded transport or the classification core. *)

type divergence = {
  id : int;  (** Correlation id of the diverging request. *)
  request : string;  (** The request line as sent. *)
  reference : string;  (** Canonicalised reference response. *)
  sharded : string;  (** Canonicalised sharded-engine response. *)
}

type result_t = {
  requests : int;
  compared : int;
  divergences : divergence list;  (** Empty means the transcripts agree. *)
}

val gen_stream : seed:int -> requests:int -> (int * string) list
(** The deterministic stream: [(id, request line)] pairs mixing checks
    (clean and leaky), cert emissions, lints, pings, and envelope
    errors. Same seed, same stream — forever. *)

val diff :
  (int * string) list ->
  reference:(int, string) Hashtbl.t ->
  sharded:(int, string) Hashtbl.t ->
  divergence list
(** [diff stream ~reference ~sharded] compares two canonicalised
    transcripts (response per correlation id) over [stream], in stream
    order: one divergence per id whose responses differ, an id absent
    from a transcript reading as ["<no response>"]. *)

val run :
  ?seed:int ->
  ?requests:int ->
  ?shards:int ->
  ?workers:int ->
  unit ->
  (result_t, string) result
(** [run ()] boots both servers in-process on temporary Unix sockets
    (the reference binds one but never accepts), replays, compares with
    {!diff}, and tears down. Defaults: seed 42, 500 requests;
    the sharded server gets 2 shards and 2 workers. [Error] means a replay itself broke (transport
    failure), which is just as damning as a divergence. *)

val report_fields : result_t -> (string * Ifc_pipeline.Telemetry.json) list
(** JSON summary: counts plus the first five divergences in full. *)
