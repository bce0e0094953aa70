(** May-happen-in-parallel analysis over the [Seq]/[Cobegin] tree,
    refined by must-precede edges from matching [wait]/[signal] pairs.

    Program points are statement nodes, numbered once in preorder from
    the program body (id 0): a node's subtree is the contiguous id range
    from the node to its last descendant. Two points' structural
    relation is decided at their lowest common ancestor: through a [Seq]
    they are ordered, through a [Cobegin] they may run in parallel,
    through an [If] they are mutually exclusive. A point that is an
    ancestor of another is the guard read of an enclosing [if]/[while]
    and precedes it.

    The parallel verdict is then refined: [p] must precede [q] when [q]
    is dominated by a [wait(s)] (every path to [q] first completes one),
    every [signal(s)] site lies sequentially after [p], and [s] is
    {e handshake-eligible} — initial count 0 and no [wait]/[signal] site
    of [s] under a [while]. Eligibility is what makes the edge sound:
    with a zero start and once-only sites, the unit a dominating wait
    consumes can only come from a signal that [p] precedes, so [p]
    completed before [q] started. Without it, a leftover unit from an
    earlier loop iteration could satisfy the wait and break the edge
    (see DESIGN.md). The refinement is deliberately not transitively
    closed: chaining edges through a conditionally-executed middle point
    is unsound.

    Cost: {!create} is one walk, O(statements + accesses), with the
    must-wait sets shared between nodes (each [Seq] child adds one
    semaphore-set union). {!parallel_after} takes one step per enclosing
    [cobegin] it visits; {!relate} climbs from the shallower point to the lowest
    common ancestor. Race detection over them ({!Analyze}) is
    O(statements + reported race pairs), plus the parallel pairs a
    handshake orders. *)

type relation =
  | Equal
  | Before  (** Sequentially ordered: left completes before right starts. *)
  | After
  | Parallel  (** Different branches of a common [Cobegin]. *)
  | Exclusive  (** Different arms of a common [If]: never both execute. *)

(** One data access: an assignment/store target write, or a read of a
    variable in an expression (including [if]/[while] guard reads,
    attributed to the statement's span). Arrays are whole-object accesses
    (weak updates), matching the certifiers' treatment. *)
type access = {
  node : int;  (** Preorder id of the accessing statement. *)
  span : Ifc_lang.Loc.span;
  var : string;
  write : bool;
}

type t

val create : Ifc_lang.Ast.program -> t

val node : t -> int list -> int
(** [node t path]: the id of the statement reached from the body by the
    child indices of [path] (arms [0]/[1] of an [if], [0] for a [while]
    body, positions in a [Seq]/[Cobegin]). Raises [Invalid_argument] on
    a path that leaves the tree. *)

val accesses : t -> access list
(** Every data access point of the body, in source order: ascending by
    node, and one statement's accesses are contiguous. Semaphore
    operations are not data accesses (they are the liveness analysis's
    subject, {!Semlive}); a [send]'s payload read and a [recv]'s target
    write are, but the channel endpoint itself is not (see
    {!send_sites}/{!recv_sites}). *)

(** One synchronization site of a semaphore or channel. *)
type sem_site = {
  site_node : int;
  site_span : Ifc_lang.Loc.span;
  under_loop : bool;  (** The site sits under a [while]. *)
}

val send_sites : t -> sem_site list Ifc_support.Smap.t
(** Per-channel [send] sites of the body, in source order. *)

val recv_sites : t -> sem_site list Ifc_support.Smap.t
(** Per-channel [recv] sites of the body, in source order. *)

val relate : t -> int -> int -> relation
(** Structural relation of two program points (no semaphore
    refinement). *)

val parallel_after : t -> int -> until:int -> (int * int) list
(** [parallel_after t p ~until]: inclusive id ranges, ascending and
    disjoint, holding exactly the points with a larger id than [p] that
    are structurally [Parallel] to it — for each enclosing [cobegin],
    innermost first, the branches after the one holding [p] — except
    that ranges starting after [until] are left out. A caller that
    knows its last candidate pays only for the enclosing [cobegin]s
    below it. *)

val may_happen_in_parallel : t -> int -> int -> bool
(** [Parallel] and not ordered by a handshake in either direction. *)

val handshake_ordered : t -> int -> int -> bool
(** [handshake_ordered t p q]: [p] must complete before [q] starts,
    established by an eligible wait/signal handshake as described
    above. *)
