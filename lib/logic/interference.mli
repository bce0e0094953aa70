(** Interference freedom for the concurrency rule (Owicki–Gries), written
    once for the proof checker ({!Check}) and the independent certificate
    checker.

    Every assertion of one process must be preserved by every write of a
    sibling process: for an assertion [r] and a write of [x] with
    precondition [pre], [r @ pre |- r[cls(x) <- written (+) bounds]],
    where [bounds] joins the [local]/[global] bounds of [pre] (or the
    symbols themselves when [pre] is not in [{V,L,G}] form). *)

type 'a write = {
  stmt : Ifc_lang.Ast.stmt;  (** The acting statement, for messages. *)
  pre : 'a Assertion.t;  (** Its precondition. *)
  var : string;  (** The variable, semaphore or channel written. *)
  written : 'a Cexpr.t;  (** The class the write carries in. *)
}

val writes : 'a Ifc_lattice.Lattice.t -> Ifc_lang.Ast.stmt -> (string * 'a Cexpr.t) list
(** [writes l s] lists what the atomic statement [s] writes, with the class
    each write carries in, in the order the checkers visit them; [[]] for
    compound statements and [skip]. *)

val preserved : 'a Ifc_lattice.Lattice.t -> 'a Assertion.t -> 'a write -> bool
(** [preserved l r w] decides the obligation for one pair with the
    syntactic entailer, re-deriving only the atoms of [r] that mention the
    written variable. It is exactly [Entail.check l (r @ w.pre)
    (Assertion.subst sigma r)]. *)

val violations :
  ?entailer:Entail.entailer ->
  'a Ifc_lattice.Lattice.t ->
  ('a Assertion.t list * 'a write list) list ->
  string list
(** [violations l branches] takes each process's assertions and writes and
    returns one message per unpreserved pair, ordered by process, sibling,
    the sibling's write, then the process's assertion. *)
