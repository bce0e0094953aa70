(** Channel lint over the {!Graph}: communication deadlock, orphan
    (never-received) messages, same-endpoint contention, and the
    per-channel summary records.

    Two complementary mechanisms back the diagnostics. The {e graph}
    checks are per-endpoint: a recv site no may-communicate edge feeds
    blocks forever whenever it is reached, and a send site no edge
    consumes produces a message that is never received. The {e interval}
    checks mirror the semaphore liveness analysis ({!Ifc_analysis.Semlive})
    with per-channel send/recv counting: when the fewest recvs any
    execution performs exceed the most messages that could ever be sent,
    or the fewest sends exceed capacity plus the most possible recvs,
    every execution blocks — a guaranteed communication deadlock.

    The claims are phrased for refutation by bounded dynamic exploration
    (see {!Ifc_exec.Explore.summary}): a reached stuck state with a
    blocked channel refutes [comm_deadlock_free]; a reached terminal
    refutes [comm_must_block]; a witnessed pair of co-enabled same-kind
    operations on one channel refutes [chan_race_free]. *)

type count = Fin of int | Inf

val le_count : count -> count -> bool

val pp_count : Format.formatter -> count -> unit

type kind =
  | Comm_deadlock
      (** A recv that can never be fed, or counting proves every
          execution blocks on the channel. *)
  | Orphan_message  (** A sent message that no recv can ever consume. *)
  | Chan_race
      (** Two sends (or two recvs) on one channel may run in parallel:
          which message lands where depends on the schedule. A send
          alongside a recv is the intended rendezvous, not contention. *)

type severity = Error | Warning

type finding = {
  kind : kind;
  severity : severity;
  span : Ifc_lang.Loc.span;
  related : Ifc_lang.Loc.span option;
  message : string;
}

(** The per-channel summary record: capacity, class annotation, the
    send/recv operation intervals, and the channel's may-communicate
    degree. *)
type summary = {
  s_chan : string;
  s_cap : int;
  s_cls : string option;
  s_send_min : int;
  s_send_max : count;
  s_recv_min : int;
  s_recv_max : count;
  s_degree : int;
}

type claims = {
  comm_deadlock_free : bool;
      (** No execution can block on a channel, even transiently.
          Deliberately conservative: queues start empty, so only
          channels whose sends fit capacity outright and which nobody
          receives from qualify. *)
  comm_must_block : bool;  (** No execution terminates. *)
  chan_race_free : bool;  (** No same-endpoint contention finding. *)
}

type result = { findings : finding list; claims : claims; summaries : summary list }

val kind_name : kind -> string
(** ["chan-deadlock"], ["orphan-message"], ["chan-race"]. *)

val analyze :
  may_parallel:(int -> int -> bool) ->
  graph:Graph.t ->
  Ifc_lang.Ast.program ->
  result
(** [may_parallel] is injected (typically
    {!Ifc_analysis.Mhp.may_happen_in_parallel}, which refines the
    structural relation by wait/signal handshakes). Findings come out in
    channel-declaration order, graph checks before interval checks. *)

val pp_summary : Format.formatter -> summary -> unit
