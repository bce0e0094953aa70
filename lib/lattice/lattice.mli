(** Finite security classification schemes (paper, Definition 1).

    A security classification scheme is a finite complete lattice [(C, <=)].
    Lattices are represented as first-class values — a record of operations
    over an abstract element type ['a] — so every analysis in the toolkit is
    polymorphic in the scheme: the same CFM code runs over the two-point
    {low, high} lattice, a 65536-element powerset of categories, or a lattice
    parsed at runtime from a user specification. *)

type 'a t = {
  name : string;  (** Human-readable scheme name. *)
  elements : 'a list;  (** Every element of [C]; finite by Definition 1. *)
  equal : 'a -> 'a -> bool;
  compare : 'a -> 'a -> int;  (** A total order used only for containers. *)
  leq : 'a -> 'a -> bool;  (** The partial order [<=]. *)
  join : 'a -> 'a -> 'a;  (** Least upper bound [⊕]. *)
  meet : 'a -> 'a -> 'a;  (** Greatest lower bound [⊗]. *)
  bottom : 'a;  (** [low], the minimum of [C]. *)
  top : 'a;  (** [high], the maximum of [C]. *)
  to_string : 'a -> string;
  of_string : string -> ('a, string) result;
}

val pp : 'a t -> Format.formatter -> 'a -> unit
(** [pp l] is a pretty-printer for elements of [l]. *)

val of_string_or_top : 'a t -> string -> 'a
(** [of_string_or_top l name] is the element [name] denotes, or [l.top]
    when it denotes none. This is how every analysis reads the class
    named by a [declassify]: an unresolvable name conservatively counts
    as the most secret class, so the data it labels can flow nowhere
    lower. Callers that must report an unknown name as an error use
    [l.of_string] instead. *)

val mem : 'a t -> 'a -> bool
(** [mem l x] is true iff [x] is an element of [l]. *)

val joins : 'a t -> 'a list -> 'a
(** [joins l xs] is the least upper bound of [xs] ([l.bottom] when empty). *)

val meets : 'a t -> 'a list -> 'a
(** [meets l xs] is the greatest lower bound of [xs] ([l.top] when empty).
    This convention — the meet of no constraints is the most permissive
    class — is exactly what [mod] of a statement that modifies nothing
    requires. *)

val lt : 'a t -> 'a -> 'a -> bool
(** [lt l x y] is strict ordering: [leq x y] and not [equal x y]. *)

val comparable : 'a t -> 'a -> 'a -> bool
(** [comparable l x y] is true iff [x <= y] or [y <= x]. *)

val covers : 'a t -> ('a * 'a) list
(** [covers l] is the covering relation (Hasse diagram edges): pairs
    [(x, y)] with [x < y] and no [z] strictly between. *)

val height : 'a t -> int
(** [height l] is the length of the longest chain minus one. *)

val make_from_order :
  name:string ->
  elements:'a list ->
  leq:('a -> 'a -> bool) ->
  to_string:('a -> string) ->
  ('a t, string) result
(** [make_from_order ~name ~elements ~leq ~to_string] builds a lattice from
    a finite set and its partial order, computing joins and meets by search.
    Returns [Error _] when the order is not a lattice (some pair lacks a
    unique least upper or greatest lower bound) or lacks extrema.
    Structural equality is used for [equal]; [of_string] inverts
    [to_string] over [elements]. Cost of construction is O(n^3). *)

val rename : string -> 'a t -> 'a t
(** [rename name l] is [l] with its [name] replaced. *)

val to_dot : 'a t -> string
(** [to_dot l] renders the Hasse diagram (covering edges, bottom at the
    bottom) as a Graphviz digraph — pipe through [dot -Tsvg] to see the
    scheme. *)

val dual : ?name:string -> 'a t -> 'a t
(** [dual l] is the order-theoretic dual: [leq] flipped, [join]/[meet] and
    [bottom]/[top] swapped. Integrity policies (Biba) are the dual of
    confidentiality policies: information may flow from high to low
    *integrity*, so running CFM over [dual l] certifies integrity with no
    other change. *)

val stringify : 'a t -> string t
(** [stringify l] is the same scheme with elements represented by their
    printed names — the uniform representation the CLI works with.
    Operations look their arguments up by name (a hash of the name per
    call; names outside the carrier go through [of_string]) and print
    the results of [join] and [meet]. *)
