(** Independent validation of flow-proof derivations against Figure 1.

    The checker verifies, at every node, that the rule instance is a
    correct application: axioms by simultaneous substitution and
    normalized assertion equality, structural rules by the shape
    constraints on the [{V, L, G}] decomposition, side conditions and the
    consequence steps by entailment, and the concurrency rule additionally
    by interference freedom.

    It shares no code with the Theorem-1 generator, so
    "generated proofs check" is a meaningful property — and, per the
    paper's Theorems 1 and 2, checking the generated proof is equivalent
    to CFM certification (tested on random programs in the suite). *)

type error = { span : Ifc_lang.Loc.span; rule : string; reason : string }

val pp_error : Format.formatter -> error -> unit

type entailer = Entail.entailer
(** Which entailment procedure discharges side conditions: the sound
    syntactic checker (default; validates everything the generator emits)
    or the complete-but-exponential decider (small proofs only). *)

val check :
  ?entailer:entailer ->
  ?interference:[ `Check | `Trust ] ->
  'a Ifc_lattice.Lattice.t ->
  'a Proof.t ->
  (unit, error list) result
(** [check l p] validates the derivation [p]. [`Trust] skips the
    interference-freedom check of the concurrency rule ({!Interference}).
    For a [cobegin] whose processes hold [A] assertions and [W] writes in
    all, that check visits at most [A * W] (assertion, sibling write)
    pairs; each costs a table lookup, and only each distinct pair of a
    syntactically distinct assertion and a write costs a derivation, of
    the assertion's atoms that mention the written variable. The other
    rules cost time near-linear in the size of the assertions they
    compare. *)

val valid : ?entailer:entailer -> 'a Ifc_lattice.Lattice.t -> 'a Proof.t -> bool
