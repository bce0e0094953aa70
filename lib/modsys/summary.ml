(* The symbolic instance of Figure 2: Cfm.step over a domain whose
   classes carry an import part. *)

module Lattice = Ifc_lattice.Lattice
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Linked = Ifc_cert.Linked
module Store = Ifc_store.Store
module Sset = Ifc_support.Sset

(* Join-form symbolic class: base ⊕ ⊕_{y ∈ over} cls(y). *)
type sym = { base : string; over : Sset.t }

(* Meet-form symbolic mod: floor ⊗ ⊗_{y ∈ under} cls(y). *)
type symod = { floor : string; under : Sset.t }

(* Decompose a symbolic check [lhs <= rhs] into atoms. Concrete/concrete
   atoms discharge now (the result is their conjunction, so the walk's
   cert is the module's [locals_ok]); anything touching an import
   becomes a residual constraint. Trivial atoms — a bottom on the left, a
   top on the right, cls(y) <= cls(y) — are dropped, which is what keeps
   the residue bounded by the interface, not the body. *)
let check l constraints lhs rhs =
  match lhs with
  | Extended.Nil -> true
  | Extended.El { base; over } ->
    let lhs_atoms =
      (if l.Lattice.equal base l.Lattice.bottom then [] else [ `Const base ])
      @ List.map (fun y -> `Cls y) (Sset.elements over)
    in
    let rhs_atoms =
      (if l.Lattice.equal rhs.floor l.Lattice.top then [] else [ `Const rhs.floor ])
      @ List.map (fun z -> `Cls z) (Sset.elements rhs.under)
    in
    List.fold_left
      (fun ok a ->
        List.fold_left
          (fun ok b ->
            match (a, b) with
            | `Const k1, `Const k2 -> ok && l.Lattice.leq k1 k2
            | `Cls y, `Const k ->
              constraints := Linked.Upper (y, l.Lattice.to_string k) :: !constraints;
              ok
            | `Const k, `Cls z ->
              constraints := Linked.Lower (l.Lattice.to_string k, z) :: !constraints;
              ok
            | `Cls y, `Cls z ->
              if not (String.equal y z) then
                constraints := Linked.Rel (y, z) :: !constraints;
              ok)
          ok rhs_atoms)
      true lhs_atoms

let domain l bind imports constraints =
  let const c = { base = c; over = Sset.empty } in
  let join a b = { base = l.Lattice.join a.base b.base; over = Sset.union a.over b.over } in
  let name x =
    if Sset.mem x imports then { base = l.Lattice.bottom; over = Sset.singleton x }
    else const (Binding.sbind bind x)
  in
  let rec expr = function
    | Ast.Int _ | Ast.Bool _ -> const l.Lattice.bottom
    | Ast.Var x -> name x
    | Ast.Index (a, i) -> join (name a) (expr i)
    | Ast.Unop (_, e) -> expr e
    | Ast.Binop (_, e1, e2) -> join (expr e1) (expr e2)
  in
  {
    Cfm.join;
    meet =
      (fun a b ->
        { floor = l.Lattice.meet a.floor b.floor; under = Sset.union a.under b.under });
    top = { floor = l.Lattice.top; under = Sset.empty };
    expr;
    name;
    const = (fun cls -> const (Lattice.of_string_or_top l cls));
    target =
      (fun x ->
        if Sset.mem x imports then { floor = l.Lattice.top; under = Sset.singleton x }
        else { floor = Binding.sbind bind x; under = Sset.empty });
    check = (fun _ _ lhs rhs -> check l constraints lhs rhs);
  }

(* The synchronization obligations: which names the body sends on,
   receives from, waits on and signals. *)
let obligations body =
  let rec go ((sends, recvs, waits, signals) as acc) (s : Ast.stmt) =
    let acc =
      match s.node with
      | Ast.Send (c, _) -> (Sset.add c sends, recvs, waits, signals)
      | Ast.Recv (c, _) -> (sends, Sset.add c recvs, waits, signals)
      | Ast.Wait x -> (sends, recvs, Sset.add x waits, signals)
      | Ast.Signal x -> (sends, recvs, waits, Sset.add x signals)
      | _ -> acc
    in
    List.fold_left go acc (Ast.children s)
  in
  go (Sset.empty, Sset.empty, Sset.empty, Sset.empty) body

let summarize ~lattice ?default (m : Ast.module_unit) =
  let resolve what cls =
    match lattice.Lattice.of_string cls with
    | Ok c -> Ok c
    | Error _ -> Error (Printf.sprintf "unknown class %s in %s" cls what)
  in
  let rec resolve_entries what = function
    | [] -> Ok []
    | (e : Ast.iface_entry) :: rest ->
      Result.bind (resolve what e.iv_class) (fun c ->
          Result.map (fun tail -> (e.iv_name, c) :: tail) (resolve_entries what rest))
  in
  Result.bind
    (Result.map_error
       (fun _ -> "unresolvable class annotation in module declarations")
       (Binding.of_program lattice ?default (Ast.module_program m)))
    (fun bind ->
      Result.bind (resolve_entries "provides" m.iface.provides) (fun provides ->
          Result.bind (resolve_entries "requires" m.iface.requires) (fun requires ->
              let constraints = ref [] in
              (* self_check is pinned to false — the default reading, and
                 the one Link and the whole-program comparison use. *)
              let mod_, flow, locals_ok =
                Cfm.walk
                  (domain lattice bind (Sset.of_list (List.map fst requires)) constraints)
                  ~self_check:false m.m_body
              in
              let sends, recvs, waits, signals = obligations m.m_body in
              let to_s = lattice.Lattice.to_string in
              let exports =
                List.map (fun (x, _) -> (x, to_s (Binding.sbind bind x))) provides
              in
              let exports_ok =
                List.for_all
                  (fun (x, bound) -> lattice.Lattice.leq (Binding.sbind bind x) bound)
                  provides
              in
              Ok
                {
                  Linked.m_name = m.iface.m_name;
                  body_digest = Linked.module_digest m;
                  cert_digest = None;
                  provides =
                    List.map (fun (x, c) -> (x, to_s c)) provides;
                  requires =
                    List.map (fun (y, c) -> (y, to_s c)) requires;
                  exports;
                  smod = { Linked.floor = to_s mod_.floor; under = Sset.elements mod_.under };
                  sflow =
                    (match flow with
                    | Extended.Nil -> Linked.F_nil
                    | Extended.El { base; over } ->
                      Linked.F_sym { base = to_s base; over = Sset.elements over });
                  constraints = !constraints;
                  sends = Sset.elements sends;
                  recvs = Sset.elements recvs;
                  waits = Sset.elements waits;
                  signals = Sset.elements signals;
                  locals_ok;
                  exports_ok;
                })))

(* ------------------------------------------------------------------ *)
(* Store persistence *)

let key ~lattice ?default m =
  let default_s =
    lattice.Lattice.to_string (Option.value default ~default:lattice.Lattice.bottom)
  in
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          [
            "ifc-modsys 1";
            Linked.module_digest m;
            lattice.Lattice.name;
            String.concat ","
              (List.map lattice.Lattice.to_string lattice.Lattice.elements);
            default_s;
          ]))

let of_store store ~key =
  match Store.find_summary store ~digest:key with
  | None -> None
  | Some s -> (
    match Linked.summary_of_line s.Store.s_mod with
    | Ok summary when summary.Linked.locals_ok = s.Store.s_cert -> Some summary
    | Ok _ | Error _ -> None)

let to_store store ~key (s : Linked.summary) =
  Store.add_summary store ~digest:key
    { Store.s_mod = Linked.summary_to_line s; s_flow = None; s_cert = s.Linked.locals_ok }

(* ------------------------------------------------------------------ *)
(* Resolution under a concrete class assignment *)

let resolve_smod ~lattice ~cls (m : Linked.smod) =
  let parts =
    (match lattice.Lattice.of_string m.Linked.floor with
    | Ok v -> Some v
    | Error _ -> None)
    :: List.map
         (fun y ->
           Option.bind (cls y) (fun s ->
               match lattice.Lattice.of_string s with Ok v -> Some v | Error _ -> None))
         m.Linked.under
  in
  if List.exists Option.is_none parts then None
  else Some (Lattice.meets lattice (List.filter_map Fun.id parts))

let resolve_sflow ~lattice ~cls = function
  | Linked.F_nil -> Some Extended.Nil
  | Linked.F_sym { base; over } ->
    let parts =
      (match lattice.Lattice.of_string base with Ok v -> Some v | Error _ -> None)
      :: List.map
           (fun y ->
             Option.bind (cls y) (fun s ->
                 match lattice.Lattice.of_string s with
                 | Ok v -> Some v
                 | Error _ -> None))
           over
    in
    if List.exists Option.is_none parts then None
    else Some (Extended.El (Lattice.joins lattice (List.filter_map Fun.id parts)))

let eval_constr ~lattice ~cls constr =
  let resolve s =
    match lattice.Lattice.of_string s with Ok v -> Some v | Error _ -> None
  in
  let of_name y = Option.bind (cls y) resolve in
  match constr with
  | Linked.Upper (y, k) -> (
    match (of_name y, resolve k) with
    | Some cy, Some kv -> Some (lattice.Lattice.leq cy kv)
    | _ -> None)
  | Linked.Lower (k, y) -> (
    match (of_name y, resolve k) with
    | Some cy, Some kv -> Some (lattice.Lattice.leq kv cy)
    | _ -> None)
  | Linked.Rel (y, z) -> (
    match (of_name y, of_name z) with
    | Some cy, Some cz -> Some (lattice.Lattice.leq cy cz)
    | _ -> None)
