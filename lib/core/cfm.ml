(* The Concurrent Flow Mechanism (Figure 2). The rules are one node-level
   function, [step], over an abstract class domain; one post-order [walk]
   of it computes mod, flow and the certification checks of every
   construct. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast

type 'a check = {
  span : Ifc_lang.Loc.span;
  rule : rule;
  lhs : 'a Extended.elt;
  rhs : 'a;
  ok : bool;
}

and rule =
  | Assign_direct
  | Declassify_direct
  | Store_direct
  | Send_direct
  | Recv_direct
  | If_local
  | While_global
  | Seq_global of int

type 'a result = {
  certified : bool;
  mod_ : 'a;
  flow : 'a Extended.elt;
  checks : 'a check list;
}

let rule_name = function
  | Assign_direct -> "assign: sbind(e) <= sbind(x)"
  | Declassify_direct -> "declassify: C <= sbind(x)"
  | Store_direct -> "store: sbind(i) (+) sbind(e) <= sbind(a)"
  | Send_direct -> "send: sbind(e) <= sbind(c)"
  | Recv_direct -> "recv: sbind(c) <= sbind(x)"
  | If_local -> "if: sbind(e) <= mod(S)"
  | While_global -> "while: flow(S) <= mod(S1)"
  | Seq_global i -> Printf.sprintf "begin: flow(S1..S%d) <= mod(S%d)" i (i + 1)

(* Join of two extended-flow values: nil is the identity of ⊕ on the
   extended scheme (Definition 4). *)
let join_flows join f1 f2 =
  match (f1, f2) with
  | Extended.Nil, f | f, Extended.Nil -> f
  | Extended.El a, Extended.El b -> Extended.El (join a b)

let flow_join l f1 f2 = join_flows l.Lattice.join f1 f2

let check_outcome l lhs rhs =
  match lhs with Extended.Nil -> true | Extended.El f -> l.Lattice.leq f rhs

type ('c, 'm) domain = {
  join : 'c -> 'c -> 'c;
  meet : 'm -> 'm -> 'm;
  top : 'm;
  expr : Ast.expr -> 'c;
  name : string -> 'c;
  const : string -> 'c;
  target : string -> 'm;
  check : Ifc_lang.Loc.span -> rule -> 'c Extended.elt -> 'm -> bool;
}

let concrete binding ~check =
  let l = Binding.lattice binding in
  {
    join = l.Lattice.join;
    meet = l.Lattice.meet;
    top = l.Lattice.top;
    expr = Binding.expr_class binding;
    name = Binding.sbind binding;
    (* An unresolvable class name conservatively fails as top. *)
    const = Lattice.of_string_or_top l;
    target = Binding.sbind binding;
    check;
  }

(* Figure 2, written once: the (mod, flow, cert) of [s] from its
   children's, in [Ast.children] order. Every caller evaluates the
   children first, so a node's own checks follow its children's. *)
let step d ~self_check (s : Ast.stmt) children =
  match (s.node, children) with
  | Ast.Skip, [] -> (d.top, Extended.Nil, true)
  | Ast.Assign (x, e), [] ->
    let target = d.target x in
    (target, Extended.Nil, d.check s.span Assign_direct (Extended.El (d.expr e)) target)
  | Ast.Declassify (x, _, cls), [] ->
    (* The named class replaces the expression's class: the escape
       hatch for data. The target must still clear the named class, and
       contexts are enforced by the surrounding if/while/seq checks. *)
    let target = d.target x in
    let source = Extended.El (d.const cls) in
    (target, Extended.Nil, d.check s.span Declassify_direct source target)
  | Ast.Store (a, i, e), [] ->
    (* Denning's array rule: the index is part of the stored
       information — which slot changed reveals it. *)
    let target = d.target a in
    let source = d.join (d.expr i) (d.expr e) in
    (target, Extended.Nil, d.check s.span Store_direct (Extended.El source) target)
  | Ast.Wait sem, [] ->
    (* mod = flow = sbind(sem); cert = true. The conditional delay of a
       wait is a global flow of the semaphore's class. *)
    (d.target sem, Extended.El (d.name sem), true)
  | Ast.Signal sem, [] -> (d.target sem, Extended.Nil, true)
  | Ast.Send (chan, e), [] ->
    (* A send is an assignment into the channel that also signals: the
       payload's class must flow to the channel's class, and — like a
       signal — it produces no global flow of its own. mod = sbind(c)
       means the enclosing if/while/seq checks force every potential
       sender's context flow below the channel's class, so sbind(c)
       dominates the global flow of every potential sender (the join the
       recv rule needs is paid for here). *)
    let c = d.target chan in
    (c, Extended.Nil, d.check s.span Send_direct (Extended.El (d.expr e)) c)
  | Ast.Recv (chan, x), [] ->
    (* A recv is a wait whose class is the channel's — the conditional
       delay is a global flow of sbind(c) — followed by an assignment of
       the delivered message (class sbind(c), which bounds every
       sender's payload and context) into x. *)
    let c = Extended.El (d.name chan) in
    let target = d.target x in
    let ok = d.check s.span Recv_direct c target in
    (d.meet (d.target chan) target, c, ok)
  | Ast.If (cond, _, _), [ (m1, f1, c1); (m2, f2, c2) ] ->
    let e = d.expr cond in
    let mod_ = d.meet m1 m2 in
    (* flow(S) = nil when both branches are flow-free; otherwise the
       branch flows joined with sbind(e) — escaping global flows reveal
       the condition. *)
    let flow =
      match join_flows d.join f1 f2 with
      | Extended.Nil -> Extended.Nil
      | Extended.El f -> Extended.El (d.join f e)
    in
    let local_ok = d.check s.span If_local (Extended.El e) mod_ in
    (mod_, flow, c1 && c2 && local_ok)
  | Ast.While (cond, _), [ (m1, f1, c1) ] ->
    (* flow(S) = flow(S1) ⊕ sbind(e): a loop always produces a global
       flow — its termination is conditional on [e]. *)
    let e = d.expr cond in
    let flow =
      Extended.El (match f1 with Extended.Nil -> e | Extended.El f -> d.join f e)
    in
    let global_ok = d.check s.span While_global flow m1 in
    (m1, flow, c1 && global_ok)
  | Ast.Seq stmts, _ ->
    (* flow(Sj) <= mod(Si) for all j < i is equivalent to checking the
       running prefix join (+)_{j<i} flow(Sj) against mod(Si) — which
       keeps the whole pass linear, the paper's §6 complexity claim.
       Under ~self_check (the literal j <= i reading) the component's
       own flow joins the prefix before its check. *)
    let _, mod_, flow, ok =
      List.fold_left2
        (fun (i, mod_, prefix, ok) (si : Ast.stmt) (mi, fi, ci) ->
          let joined = join_flows d.join prefix fi in
          let ok_i =
            if i = 0 && not self_check then true
            else d.check si.span (Seq_global i) (if self_check then joined else prefix) mi
          in
          (i + 1, d.meet mod_ mi, joined, ok && ci && ok_i))
        (0, d.top, Extended.Nil, true) stmts children
    in
    (mod_, flow, ok)
  | Ast.Cobegin _, _ ->
    (* Parallel composition needs no extra check: branches execute
       independently (§4.2). *)
    List.fold_left
      (fun (mod_, flow, ok) (m, f, c) ->
        (d.meet mod_ m, join_flows d.join flow f, ok && c))
      (d.top, Extended.Nil, true) children
  | _ -> invalid_arg "Cfm.step: children do not match the statement"

let walk d ~self_check stmt =
  let rec go s = step d ~self_check s (List.map go (Ast.children s)) in
  go stmt

let analyze ?(self_check = false) binding stmt =
  let l = Binding.lattice binding in
  let checks = ref [] in
  let check span rule lhs rhs =
    let ok = check_outcome l lhs rhs in
    checks := { span; rule; lhs; rhs; ok } :: !checks;
    ok
  in
  let mod_, flow, certified = walk (concrete binding ~check) ~self_check stmt in
  { certified; mod_; flow; checks = List.rev !checks }

let certified ?(self_check = false) binding stmt =
  let l = Binding.lattice binding in
  let check _span _rule lhs rhs = check_outcome l lhs rhs in
  let _, _, cert = walk (concrete binding ~check) ~self_check stmt in
  cert

let unchecked _ _ _ _ = true

let mod_of binding stmt =
  let mod_, _, _ = walk (concrete binding ~check:unchecked) ~self_check:false stmt in
  mod_

let flow_of binding stmt =
  let _, flow, _ = walk (concrete binding ~check:unchecked) ~self_check:false stmt in
  flow

let failed_checks r = List.filter (fun c -> not c.ok) r.checks

let analyze_program ?self_check binding (p : Ast.program) =
  analyze ?self_check binding p.body
