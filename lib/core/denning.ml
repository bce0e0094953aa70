(* The Denning & Denning baseline: local flows only, no [flow] function.
   Its rules differ from Figure 2's, so it does not run Cfm.step. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast

type 'a result = {
  certified : bool;
  checks : 'a Cfm.check list;
  rejected_constructs : Ifc_lang.Loc.span list;
}

let traverse ~on_concurrency binding ~record ~reject stmt =
  let l = Binding.lattice binding in
  (* Returns (mod, cert). *)
  let rec go (s : Ast.stmt) =
    match s.node with
    | Ast.Skip -> (l.Lattice.top, true)
    | Ast.Assign (x, e) ->
      let target = Binding.sbind binding x in
      let source = Binding.expr_class binding e in
      let ok = record s.span Cfm.Assign_direct (Extended.El source) target in
      (target, ok)
    | Ast.Declassify (x, _, cls) ->
      let target = Binding.sbind binding x in
      let source = Lattice.of_string_or_top l cls in
      let ok = record s.span Cfm.Declassify_direct (Extended.El source) target in
      (target, ok)
    | Ast.Store (a, i, e) ->
      let target = Binding.sbind binding a in
      let source =
        l.Lattice.join (Binding.expr_class binding i) (Binding.expr_class binding e)
      in
      let ok = record s.span Cfm.Store_direct (Extended.El source) target in
      (target, ok)
    | Ast.If (cond, then_, else_) ->
      let m1, c1 = go then_ in
      let m2, c2 = go else_ in
      let mod_ = l.Lattice.meet m1 m2 in
      let e_class = Binding.expr_class binding cond in
      let ok = record s.span Cfm.If_local (Extended.El e_class) mod_ in
      (mod_, c1 && c2 && ok)
    | Ast.While (cond, body) ->
      let m1, c1 = go body in
      let e_class = Binding.expr_class binding cond in
      (* Local check only: the Dennings treat the loop condition like an
         alternation condition and see no termination channel. *)
      let ok = record s.span Cfm.If_local (Extended.El e_class) m1 in
      (m1, c1 && ok)
    | Ast.Seq stmts ->
      let results = List.map go stmts in
      (Lattice.meets l (List.map fst results), List.for_all snd results)
    | Ast.Wait sem | Ast.Signal sem -> (
      match on_concurrency with
      | `Reject ->
        reject s.span;
        (Binding.sbind binding sem, false)
      | `Ignore -> (Binding.sbind binding sem, true))
    | Ast.Send (chan, e) -> (
      (* The payload check is a local flow the Dennings would see; the
         synchronization (and its global flow) is what they would not. *)
      let target = Binding.sbind binding chan in
      let source = Binding.expr_class binding e in
      let ok = record s.span Cfm.Send_direct (Extended.El source) target in
      match on_concurrency with
      | `Reject ->
        reject s.span;
        (target, false)
      | `Ignore -> (target, ok))
    | Ast.Recv (chan, x) -> (
      let target = Binding.sbind binding x in
      let source = Binding.sbind binding chan in
      let ok = record s.span Cfm.Recv_direct (Extended.El source) target in
      match on_concurrency with
      | `Reject ->
        reject s.span;
        (target, false)
      | `Ignore -> (target, ok))
    | Ast.Cobegin branches -> (
      match on_concurrency with
      | `Reject ->
        reject s.span;
        let results = List.map go branches in
        (Lattice.meets l (List.map fst results), false)
      | `Ignore ->
        let results = List.map go branches in
        (Lattice.meets l (List.map fst results), List.for_all snd results))
  in
  go stmt

let analyze ~on_concurrency binding stmt =
  let l = Binding.lattice binding in
  let checks = ref [] in
  let rejected = ref [] in
  let record span rule lhs rhs =
    let ok = Cfm.check_outcome l lhs rhs in
    checks := { Cfm.span; rule; lhs; rhs; ok } :: !checks;
    ok
  in
  let reject span = rejected := span :: !rejected in
  let _, certified = traverse ~on_concurrency binding ~record ~reject stmt in
  { certified; checks = List.rev !checks; rejected_constructs = List.rev !rejected }

let certified ~on_concurrency binding stmt =
  let l = Binding.lattice binding in
  let record _ _ lhs rhs = Cfm.check_outcome l lhs rhs in
  let reject _ = () in
  snd (traverse ~on_concurrency binding ~record ~reject stmt)

let analyze_program ~on_concurrency binding (p : Ast.program) =
  analyze ~on_concurrency binding p.body
