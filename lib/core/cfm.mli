(** The Concurrent Flow Mechanism (paper §4.2, Figure 2).

    For a statement [S] and a static binding, CFM computes:

    - [mod S] — the greatest lower bound of the bindings of variables
      potentially modified by [S] (Definition 5a);
    - [flow S] — the least upper bound of the global flows produced by [S],
      valued in the extended scheme with [nil] meaning "no global flow"
      (Definition 5b);
    - [cert S] — whether [S] specifies no flow violating the binding
      (Definition 5c),

    by a single post-order pass, hence in time linear in the program length
    (the paper's §6 complexity claim; see the scaling benchmarks).

    [analyze] retains every individual certification check so reports can
    say exactly which constraint failed and where; [certified] is the bare
    boolean for hot paths.

    The composition rule is implemented with the [j < i] reading of
    Figure 2's side condition (matching the appendix proofs); pass
    [~self_check:true] for the literal [j <= i] reading, which additionally
    requires each statement's own global flow to be bounded by its own
    [mod]. See DESIGN.md §3. *)

module Extended = Ifc_lattice.Extended

(** One primitive certification check: [lhs <= rhs] in the extended
    scheme, with enough context to render a diagnostic. *)
type 'a check = {
  span : Ifc_lang.Loc.span;  (** The statement that required the check. *)
  rule : rule;  (** Which Figure 2 clause produced it. *)
  lhs : 'a Extended.elt;
  rhs : 'a;
  ok : bool;
}

and rule =
  | Assign_direct  (** [sbind(e) <= sbind(x)]. *)
  | Declassify_direct
      (** [C <= sbind(x)] for [x := declassify e to C]: the named class
          stands in for [sbind(e)]. Unresolvable class names fail as the
          lattice top. *)
  | Store_direct
      (** [sbind(i) (+) sbind(e) <= sbind(a)] for [a\[i\] := e]: the index
          flows into the array — which slot changed is information
          (Denning & Denning's array treatment). *)
  | Send_direct
      (** [sbind(e) <= sbind(c)] for [send(c, e)]: the payload flows into
          the channel. A send is otherwise signal-like — [mod] is
          [sbind(c)], so the surrounding context checks bound every
          potential sender's global flow by the channel's class. *)
  | Recv_direct
      (** [sbind(c) <= sbind(x)] for [recv(c, x)]: the delivered message
          (whose class the send rule capped at [sbind(c)]) flows into [x].
          A recv is otherwise wait-like — its conditional delay is a
          global flow of the channel's class. *)
  | If_local  (** [sbind(e) <= mod(S)]. *)
  | While_global  (** [flow(S) <= mod(S1)]. *)
  | Seq_global of int
      (** [i]: [(+)_(j<i) flow(Sj) <= mod(Si)], 0-based — the prefix-join
          form of Figure 2's pairwise [flow(Sj) <= mod(Si)] conditions,
          equivalent because a join is below a class iff every joinand is,
          and linear instead of quadratic in the block length. *)

(** The result of analysing one statement (Definition 5's three
    functions, plus the full check list in evaluation order). *)
type 'a result = {
  certified : bool;
  mod_ : 'a;
  flow : 'a Extended.elt;
  checks : 'a check list;
}

val rule_name : rule -> string

val check_outcome : 'a Ifc_lattice.Lattice.t -> 'a Extended.elt -> 'a -> bool
(** [check_outcome l lhs rhs] decides [lhs <= rhs] with [lhs] in the
    extended scheme ([Nil] always passes). Shared with {!Denning}. *)

val flow_join :
  'a Ifc_lattice.Lattice.t -> 'a Extended.elt -> 'a Extended.elt -> 'a Extended.elt
(** [flow_join l f1 f2] is [f1 (+) f2] in the extended scheme: [Nil] is
    the identity (Definition 4). *)

(** {1 Figure 2, once}

    The rules are one node-level function, {!step}, over an abstract
    class domain. [Cfm] runs it over the concrete domain ({!concrete});
    the incremental certifier ([Ifc_store.Incremental]) runs it over
    memoised child summaries; the module-system summaries
    ([Ifc_modsys.Summary]) run it over a symbolic domain whose classes
    keep the imports unresolved. *)

(** A class domain. ['c] classifies data and global flows (flows are
    ['c Extended.elt], [Nil] for "no global flow"); ['m] is the domain
    of [mod]. In the concrete domain both are lattice elements. *)
type ('c, 'm) domain = {
  join : 'c -> 'c -> 'c;
  meet : 'm -> 'm -> 'm;
  top : 'm;  (** [mod] of a statement that modifies nothing. *)
  expr : Ifc_lang.Ast.expr -> 'c;  (** [sbind(e)]: the class of an expression. *)
  name : string -> 'c;
      (** [sbind(x)] read as data: the class of a semaphore or channel
          whose delay is a global flow. *)
  const : string -> 'c;
      (** The class a [declassify … to C] constant names; unresolvable
          names are the lattice top. *)
  target : string -> 'm;  (** [sbind(x)] as the [mod] of a modified name. *)
  check : Ifc_lang.Loc.span -> rule -> 'c Extended.elt -> 'm -> bool;
      (** [check span rule lhs rhs] is called once per certification
          check [lhs <= rhs], in evaluation order, and returns its
          outcome. It is where a caller records, decides or decomposes
          checks. *)
}

val concrete :
  'a Binding.t ->
  check:(Ifc_lang.Loc.span -> rule -> 'a Extended.elt -> 'a -> bool) ->
  ('a, 'a) domain
(** The domain of a static binding: classes are the binding's lattice
    elements, [expr], [name] and [target] read the binding. *)

val step :
  ('c, 'm) domain ->
  self_check:bool ->
  Ifc_lang.Ast.stmt ->
  ('m * 'c Extended.elt * bool) list ->
  'm * 'c Extended.elt * bool
(** [step d ~self_check s children] is [(mod S, flow S, cert S)] for one
    statement [S], given the triples of its {!Ifc_lang.Ast.children} in
    order. It calls [d.check] for [S]'s own checks only — for a block,
    the [Seq_global i] checks in component order — so a caller that
    evaluates the children first records checks in post-order. Raises
    [Invalid_argument] if [children] does not match [s]'s shape. *)

val walk :
  ('c, 'm) domain -> self_check:bool -> Ifc_lang.Ast.stmt -> 'm * 'c Extended.elt * bool
(** [walk d ~self_check s] runs {!step} bottom-up over all of [s], children
    left to right before their parent. {!analyze}, {!certified}, {!mod_of}
    and {!flow_of} are [walk] over {!concrete}. *)

val analyze :
  ?self_check:bool ->
  'a Binding.t ->
  Ifc_lang.Ast.stmt ->
  'a result
(** [analyze b s] runs CFM on [s] under binding [b]. *)

val certified : ?self_check:bool -> 'a Binding.t -> Ifc_lang.Ast.stmt -> bool
(** [certified b s] is [cert(S)] alone — no check list is accumulated, so
    this is the function to benchmark and to call in search loops. *)

val mod_of : 'a Binding.t -> Ifc_lang.Ast.stmt -> 'a
(** [mod_of b s] is Definition 5a's [mod(S)]. For a statement modifying
    nothing (e.g. [skip]) it is the lattice top: every flow into "nothing"
    is acceptable. *)

val flow_of : 'a Binding.t -> Ifc_lang.Ast.stmt -> 'a Extended.elt
(** [flow_of b s] is Definition 5b's [flow(S)]. *)

val failed_checks : 'a result -> 'a check list

val analyze_program :
  ?self_check:bool -> 'a Binding.t -> Ifc_lang.Ast.program -> 'a result
(** [analyze_program b p] analyses the body of [p]. *)
