(* Interference freedom for the concurrency rule, shared by the proof
   checker and the independent certificate checker. *)

module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast

type 'a write = {
  stmt : Ast.stmt;
  pre : 'a Assertion.t;
  var : string;
  written : 'a Cexpr.t;
}

let writes (l : 'a Lattice.t) (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Assign (x, e) -> [ (x, Cexpr.of_expr l e) ]
  | Ast.Declassify (x, _, cls) ->
    let named = Lattice.of_string_or_top l cls in
    [ (x, Cexpr.Const named) ]
  | Ast.Store (a, i, e) ->
    [ (a, Cexpr.Join (Cexpr.Cls a, Cexpr.Join (Cexpr.of_expr l i, Cexpr.of_expr l e))) ]
  | Ast.Wait sem | Ast.Signal sem -> [ (sem, Cexpr.Cls sem) ]
  | Ast.Send (chan, e) ->
    (* A send writes the channel: old contents persist (weak update) and
       the payload joins in. *)
    [ (chan, Cexpr.Join (Cexpr.Cls chan, Cexpr.of_expr l e)) ]
  | Ast.Recv (chan, x) ->
    (* A recv writes both the target (the delivered message, whose class
       the channel bounds) and the channel. *)
    [ (x, Cexpr.Cls chan); (chan, Cexpr.Cls chan) ]
  | Ast.Skip | Ast.If _ | Ast.While _ | Ast.Seq _ | Ast.Cobegin _ -> []

(* The acting process's own certification variables are approximated by
   the bounds in the action's precondition — the paper's "indirect flows
   in one process do not affect indirect flows in another". The write
   substitutes [written (+) bounds] for the written variable's class. *)
let sigma (l : 'a Lattice.t) w =
  let bounds =
    match Assertion.triple_of l w.pre with
    | Some { Assertion.l = lb; g = gb; _ } -> Cexpr.Join (lb, gb)
    | None -> Cexpr.Join (Cexpr.Local, Cexpr.Global)
  in
  let rhs = Cexpr.Join (w.written, bounds) in
  fun sym ->
    match sym with
    | Cexpr.S_cls v when String.equal v w.var -> Some rhs
    | Cexpr.S_cls _ | Cexpr.S_local | Cexpr.S_global -> None

(* The obligation for an assertion [r] of one process and a write [w] of
   a sibling is [r @ pre(w) |- r[sigma]]. Under the syntactic entailer
   only the atoms of [r] that mention [cls(var w)] need a derivation.
   Every other atom is unchanged by [sigma] and is itself among the
   hypotheses, so its derivation succeeds exactly when
   [const(lhs) <= const(rhs)] ({!Entail.settled}, which relies on [leq]
   being reflexive, as Laws checks). That test does not depend on the
   write or on the other hypotheses, so it is computed once per atom. *)
type 'a atom_info = {
  atom : 'a Assertion.atom;
  names : string list;  (** Variables whose class the atom mentions. *)
  settled : bool;  (** [const(lhs) <= const(rhs)]. *)
}

type 'a prepared = {
  assertion : 'a Assertion.t;
  atoms : 'a atom_info list;
  index : 'a Entail.index Lazy.t;  (** The assertion as hypotheses. *)
}

let class_names e =
  List.filter_map
    (function Cexpr.S_cls v -> Some v | Cexpr.S_local | Cexpr.S_global -> None)
    (Cexpr.syms e)

let prepare (l : 'a Lattice.t) r =
  let info (a : 'a Assertion.atom) =
    {
      atom = a;
      names = class_names a.Assertion.lhs @ class_names a.Assertion.rhs;
      settled = Entail.settled l a;
    }
  in
  { assertion = r; atoms = List.map info r; index = lazy (Entail.index l r) }

type 'a prepared_write = {
  write : 'a write;
  subst : Cexpr.sym -> 'a Cexpr.t option;
  pre_index : 'a Entail.index Lazy.t;
}

let prepare_write l w =
  { write = w; subst = sigma l w; pre_index = lazy (Entail.index l w.pre) }

let preserved_prepared (l : 'a Lattice.t) p pw =
  List.for_all
    (fun i ->
      if List.mem pw.write.var i.names then
        Entail.check_indexed l
          [ Lazy.force p.index; Lazy.force pw.pre_index ]
          (Assertion.subst pw.subst [ i.atom ])
      else i.settled)
    p.atoms

let preserved l r w = preserved_prepared l (prepare l r) (prepare_write l w)

let message (l : 'a Lattice.t) r w =
  Fmt.str "interference: %a not preserved by %s under %a" (Assertion.pp l) r
    (Ifc_lang.Pretty.stmt_to_string w.stmt)
    (Assertion.pp l) w.pre

(* A hash of the whole syntax of an assertion (the generic hash looks at a
   bounded prefix only, and long assertions share long prefixes). *)
let hash_assertion (l : 'a Lattice.t) r =
  let rec h acc = function
    | Cexpr.Const c -> (acc * 31) + Hashtbl.hash (l.Lattice.to_string c)
    | Cexpr.Cls v -> (acc * 31) + Hashtbl.hash v + 1
    | Cexpr.Local -> (acc * 31) + 2
    | Cexpr.Global -> (acc * 31) + 3
    | Cexpr.Join (a, b) -> h (h ((acc * 31) + 4) a) b
  in
  List.fold_left
    (fun acc (a : 'a Assertion.atom) -> h (h acc a.Assertion.lhs) a.Assertion.rhs)
    0 r

let violations_of entailer (l : 'a Lattice.t) branches =
  (* The same assertion recurs at many nodes of a process and across
     processes, and syntactically identical assertions have the same
     obligations: each distinct one is prepared once, numbered, and
     decided at most once against each write. *)
  let distinct = Hashtbl.create 16 and assertions = ref 0 and writes = ref 0 in
  let intern r =
    let h = hash_assertion l r in
    let same (p, _) = List.equal (Assertion.same_atom l) p.assertion r in
    match List.find_opt same (Hashtbl.find_all distinct h) with
    | Some d -> d
    | None ->
      let d = (prepare l r, !assertions) in
      incr assertions;
      Hashtbl.add distinct h d;
      d
  in
  let number w =
    incr writes;
    (!writes - 1, prepare_write l w)
  in
  let bs =
    List.map (fun (rs, ws) -> (List.map (fun r -> (r, intern r)) rs, List.map number ws)) branches
    |> Array.of_list
  in
  let decided = Hashtbl.create 16 in
  let holds (p, a) (w, pw) =
    let key = (a * !writes) + w in
    match Hashtbl.find_opt decided key with
    | Some b -> b
    | None ->
      let b =
        match entailer with
        | `Syntactic -> preserved_prepared l p pw
        | `Complete ->
          (* The complete entailer has no shortcut: the full obligation. *)
          Entail.entails `Complete l (p.assertion @ pw.write.pre)
            (Assertion.subst pw.subst p.assertion)
      in
      Hashtbl.add decided key b;
      b
  in
  (* Messages follow the pairs: process [i], sibling [j], each write of
     [j], each assertion of [i]. *)
  let out = ref [] in
  Array.iteri
    (fun i (rs, _) ->
      Array.iteri
        (fun j (_, ws) ->
          if i <> j then
            List.iter
              (fun w ->
                List.iter
                  (fun (r, d) -> if not (holds d w) then out := message l r (snd w).write :: !out)
                  rs)
              ws)
        bs)
    bs;
  List.rev !out

let violations ?(entailer = `Syntactic) l branches =
  if List.compare_length_with branches 2 < 0 then [] else violations_of entailer l branches
