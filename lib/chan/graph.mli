(** The channel graph: one node per channel with its endpoint sites, and
    a {e may-communicate} edge from a [send] site to a [recv] site when a
    message enqueued at the former may be the one dequeued at the latter.

    The structural relation between two program points is injected (the
    caller typically adapts {!Ifc_analysis.Mhp.relate}); this keeps the
    subsystem independent of the concurrency analyzer while letting it
    reuse the same program-point ids. An edge exists when the send is
    sequentially before the recv, the two sit in parallel branches of a
    common [cobegin], or both sit under a loop (a send textually after a
    recv can feed its next iteration). Sites in exclusive [if] arms never
    exchange a message. *)

type site = {
  node : int;
      (** The statement's program-point id: one statement, one site, so
          the id identifies the site. *)
  span : Ifc_lang.Loc.span;
  under_loop : bool;
}

(** Mirror of {!Ifc_analysis.Mhp.relation} (redeclared here to keep the
    dependency injected rather than structural). *)
type relation = Equal | Before | After | Parallel | Exclusive

type node = {
  chan : string;
  cap : int;  (** Declared capacity (default for undeclared channels). *)
  cls : string option;  (** Declared class annotation, if any. *)
  sends : site list;  (** [send] sites, in source order. *)
  recvs : site list;  (** [recv] sites, in source order. *)
}

type edge = { e_chan : string; e_send : site; e_recv : site }

type t

val build :
  relate:(int -> int -> relation) ->
  sends:site list Ifc_support.Smap.t ->
  recvs:site list Ifc_support.Smap.t ->
  Ifc_lang.Ast.program ->
  t
(** One [relate] call per (send, recv) site pair of a channel; the
    per-site and per-channel answers below are computed here once. *)

val nodes : t -> node list
(** Nodes in declaration order, then any used-but-undeclared channels in
    name order at the default capacity. *)

val edges : t -> edge list
(** Per channel in {!nodes} order, by send site, then by recv site. *)

val fed : t -> site -> bool
(** [fed t r]: some may-communicate edge ends at recv site [r]. A recv
    no edge feeds blocks forever whenever reached. *)

val consumed : t -> site -> bool
(** [consumed t s]: some edge starts at send site [s]. A send no edge
    consumes produces a message that is never received. *)

val degree : t -> string -> int
(** Number of may-communicate edges of a channel. *)

val pp : Format.formatter -> t -> unit
