(** The canonical byte form of syntax trees, fed to MD5 by every
    structural digest: module and linked-unit digests
    ({!Ifc_cert.Linked}) and the incremental certifier's per-node keys
    ({!Ifc_store.Incremental}).

    It is a direct byte fold over the tree rather than Format-based
    pretty-printing, whose constant would dominate the digest paths.
    Strings are length-prefixed and lists length-tagged, so distinct
    trees cannot collide by concatenation; source spans are ignored, so
    two parses of the same text share a form. The bytes are pinned: the
    [body:] lines of linked certificates are MD5s of {!of_module}. *)

val node : Buffer.t -> Ast.node -> unit
(** [node b n] appends [n]'s own bytes — its tag, its names and
    expressions, and for a block its length — but none of its
    sub-statements. A statement's form is its node's bytes followed by
    its {!Ast.children}'s forms in order. *)

val of_module : Ast.module_unit -> string
(** A module's interface, declarations and body. *)

val of_linked : Ast.linked -> string
(** A linked unit's modules in order, then its main program if any. *)
