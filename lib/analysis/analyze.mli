(** The static concurrency analyzer: one pass over a program combining
    may-happen-in-parallel race detection ({!Mhp}), semaphore liveness
    ({!Semlive}), the channel lint ({!Ifc_chan.Lint} over the channel
    graph, with MHP injected) and guard lints ({!Guards}) into a single
    report.

    Before the structural passes run, the interval dataflow engine
    ({!Ifc_dataflow.Prune}) rewrites statically unreachable branch arms
    to [skip]: a race or deadlock inside an arm no execution reaches is
    not reported, and each pruned arm with a non-constant guard becomes
    an [unreachable] warning (constant guards remain {!Guards}
    findings, byte-for-byte). A backward liveness pass adds
    [dead-store] warnings. Pruning only ever removes findings and
    strengthens claims; the differential fuzzer cross-checks every
    pruned span against bounded exploration ([prune-unsound]).

    The report's {e claims} are the analyzer's positive safety
    statements, phrased so that bounded dynamic exploration can refute
    them: a concrete interleaving with co-enabled conflicting accesses
    refutes [race_free]; a reachable stuck state refutes
    [deadlock_free]; a reachable terminal state refutes [must_block].
    The differential fuzzer cross-checks exactly these (labels
    [race-unsound] / [deadlock-unsound]); see DESIGN.md for why the
    claims as implemented are sound.

    Cost after pruning: O(statements + reported race pairs), plus the
    parallel pairs a wait/signal handshake orders. Race detection visits
    only same-variable access pairs under a common [cobegin] in
    different branches ({!Mhp.parallel_after}); the semaphore usage
    intervals are computed once, bottom-up; the channel graph relates
    each channel's send and recv sites pairwise. *)

type claims = {
  race_free : bool;  (** No race findings. *)
  deadlock_free : bool;
      (** No execution can block — on a semaphore {e or} a channel —
          even transiently (semaphore liveness and channel lint both
          agree). *)
  must_block : bool;
      (** No execution terminates: a guaranteed block through either
          semaphores or channels. *)
  chan_race_free : bool;
      (** No same-endpoint channel contention findings
          ({!Ifc_chan.Lint}). *)
  chan_deadlock_free : bool;
      (** The channel-only component of [deadlock_free]: no execution
          can block on a channel, even transiently. *)
}

type stats = {
  statements : int;  (** Statement nodes analyzed. *)
  accesses : int;  (** Data access points considered. *)
  pairs : int;
      (** Same-variable endpoint pairs with at least one write, whatever
          their relation: per variable, C(m,2) - C(r,2) for its [m]
          endpoints, [r] of them read-only. An endpoint is one
          statement's accesses to one variable. *)
}

type report = {
  findings : Finding.t list;  (** Sorted with {!Finding.compare}. *)
  claims : claims;
  stats : stats;
  channels : Ifc_chan.Lint.summary list;
      (** Per-channel summary records, in declaration order. *)
  pruned : Ifc_dataflow.Prune.pruned list;
      (** Arms rewritten to [skip] before the structural passes. *)
}

val run :
  ?dataflow:bool ->
  ?prune:Ifc_dataflow.Prune.result ->
  Ifc_lang.Ast.program ->
  report
(** [run p] analyzes [p]. [~dataflow:false] disables pruning and the
    dataflow lints (the pre-engine behaviour, kept for differential
    testing); [?prune] supplies a pre-computed pruning result — the
    summary path for linked units — instead of running the engine. *)

val pp_report : Format.formatter -> report -> unit
(** One line per finding ({!Finding.pp}); nothing for a clean report. *)
