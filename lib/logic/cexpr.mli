(** Class expressions of the flow logic (paper §3.1).

    Terms denote security classes: constants of the scheme, the current
    class [v̄] of a program variable, the certification variables [local]
    and [global], and joins thereof. (Meets never occur in Figure 1's
    assertions, so they are not represented; [mod] lives in {!Ifc_core.Cfm},
    not here.) *)

type 'a t =
  | Const of 'a
  | Cls of string  (** [v̄], the current class of variable [v]. *)
  | Local
  | Global
  | Join of 'a t * 'a t

(** Substitutable symbols. *)
type sym = S_cls of string | S_local | S_global

val join : 'a t -> 'a t -> 'a t

val joins : 'a Ifc_lattice.Lattice.t -> 'a t list -> 'a t
(** [joins l es] folds [Join]; the empty join is [Const l.bottom]. *)

val of_expr : 'a Ifc_lattice.Lattice.t -> Ifc_lang.Ast.expr -> 'a t
(** [of_expr l e] is [ē]: constants map to [low], [e1 op e2] to the join
    (Definition 2). *)

val subst : (sym -> 'a t option) -> 'a t -> 'a t
(** [subst f e] simultaneously replaces every symbol [s] with [f s] when
    that is [Some _]. Simultaneous: replacement terms are not re-visited. *)

val subst1 : sym -> 'a t -> 'a t -> 'a t
(** [subst1 s r e] replaces just [s] by [r]. *)

val syms : 'a t -> sym list
(** Symbols occurring in [e], without duplicates, in first-occurrence
    order. *)

val eval : 'a Ifc_lattice.Lattice.t -> (sym -> 'a) -> 'a t -> 'a
(** [eval l env e] is the class denoted by [e] under valuation [env]. *)

(** Normal form: a join of distinct non-constant atoms plus one constant.
    Two expressions denote the same class in every lattice and valuation
    iff they have equal normal forms with equal constants. *)
type 'a normal = { const : 'a; atoms : sym list (* sorted, distinct *) }

val normalize : 'a Ifc_lattice.Lattice.t -> 'a t -> 'a normal

val of_normal : 'a normal -> 'a t

val equal : 'a Ifc_lattice.Lattice.t -> 'a t -> 'a t -> bool
(** Equality of normal forms. *)

val same : 'a Ifc_lattice.Lattice.t -> 'a t -> 'a t -> bool
(** Syntactic identity, constants compared with the lattice's [equal]. It
    implies {!equal}. *)

val compare_sym : sym -> sym -> int

val pp : 'a Ifc_lattice.Lattice.t -> Format.formatter -> 'a t -> unit
(** Prints e.g. [class(x) (+) local (+) high]. *)
