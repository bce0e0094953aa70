(** Entailment between flow assertions ([P |- Q], paper §3.1).

    Two procedures:

    - {!check} — a sound syntactic derivation search: decompose each goal
      atom's left join and discharge the pieces by join-upper-bound,
      constant comparison, and transitive chaining through hypotheses. It
      validates every entailment the Theorem-1 construction produces, and
      never accepts a false entailment (the property suite tests it against
      {!decide}).

    - {!decide} — sound and complete for the assertion language, by
      enumerating all valuations of the free symbols over the (finite)
      scheme: [P |- Q] iff every valuation satisfying [P] satisfies [Q].
      Exponential, so bounded by [max_valuations]; intended for tests and
      small problems. *)

val check : 'a Ifc_lattice.Lattice.t -> 'a Assertion.t -> 'a Assertion.t -> bool
(** Sound, incomplete, fast: a goal that is the hypothesis in the same
    position is decided by {!settled}; for the others each hypothesis is
    normalized once and indexed by the symbols of its left-hand side
    ({!index}), so a goal symbol costs one lookup rather than a pass over
    the hypotheses. *)

type 'a index
(** A hypothesis set prepared for {!check_indexed}. *)

val index : 'a Ifc_lattice.Lattice.t -> 'a Assertion.t -> 'a index

val settled : 'a Ifc_lattice.Lattice.t -> 'a Assertion.atom -> bool
(** [settled l a] is [const(lhs) <= const(rhs)]: exactly whether [a] is
    derivable from any hypotheses that include [a] itself. *)

val check_indexed :
  'a Ifc_lattice.Lattice.t -> 'a index list -> 'a Assertion.t -> bool
(** [check_indexed l [index l h1; ...; index l hn] goals] is
    [check l (h1 @ ... @ hn) goals], without re-indexing hypothesis sets
    shared between calls. *)

val decide :
  ?max_valuations:int ->
  'a Ifc_lattice.Lattice.t ->
  'a Assertion.t ->
  'a Assertion.t ->
  (bool, string) result
(** Sound and complete; [Error _] when the valuation count would exceed
    [max_valuations] (default [200_000]). *)

type entailer = [ `Syntactic | `Complete ]
(** Which procedure discharges an entailment: {!check}, or {!decide}
    falling back to {!check} when it would exceed its valuation limit. *)

val entails :
  entailer -> 'a Ifc_lattice.Lattice.t -> 'a Assertion.t -> 'a Assertion.t -> bool
