(* Dynamic information-state monitoring. *)

module Smap = Ifc_support.Smap
module Prng = Ifc_support.Prng
module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast
module Binding = Ifc_core.Binding

(* Monitored task trees: [Ctx (c, t)] runs [t] with the local context
   raised by [c] — the classes of the conditions guarding [t]. *)
type 'a ttask =
  | TNil
  | TLeaf of Ast.stmt
  | TSeq of 'a ttask * 'a ttask
  | TPar of 'a ttask list
  | TCtx of 'a * 'a ttask

let rec of_stmt (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Seq stmts -> List.fold_right (fun st acc -> TSeq (of_stmt st, acc)) stmts TNil
  | Ast.Cobegin branches -> TPar (List.map of_stmt branches)
  | Ast.Skip | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.If _ | Ast.While _
  | Ast.Wait _ | Ast.Signal _ | Ast.Send _ | Ast.Recv _ ->
    TLeaf s

let rec is_done = function
  | TNil -> true
  | TLeaf _ -> false
  | TSeq (a, b) -> is_done a && is_done b
  | TPar ts -> List.for_all is_done ts
  | TCtx (_, t) -> is_done t

let rec simplify = function
  | TNil -> TNil
  | TLeaf _ as t -> t
  | TSeq (a, b) -> ( match simplify a with TNil -> simplify b | a' -> TSeq (a', b))
  | TPar ts -> (
    match List.filter (fun t -> not (is_done t)) (List.map simplify ts) with
    | [] -> TNil
    | ts' -> TPar ts')
  | TCtx (c, t) -> ( match simplify t with TNil -> TNil | t' -> TCtx (c, t'))

type 'a state = {
  task : 'a ttask;
  store : Eval.store;
  arrays : int array Smap.t;
  sems : int Smap.t;
  chans : int list Smap.t;
  chan_caps : int Smap.t;
  classes : 'a Smap.t;
  global : 'a;
}

let env_of (st : 'a state) = { Eval.store = st.store; arrays = st.arrays }

type 'a report = {
  outcome : [ `Terminated | `Deadlock | `Fault of string | `Fuel_exhausted ];
  store : Eval.store;
  classes : 'a Smap.t;
  global : 'a;
  violations : (string * 'a) list;
}

(* The class of an expression under the *current* information state;
   arrays carry one class for all slots. *)
let rec expr_class (lat : 'a Lattice.t) classes = function
  | Ast.Int _ | Ast.Bool _ -> lat.Lattice.bottom
  | Ast.Var x -> Smap.find_or ~default:lat.Lattice.bottom x classes
  | Ast.Index (a, i) ->
    lat.Lattice.join
      (Smap.find_or ~default:lat.Lattice.bottom a classes)
      (expr_class lat classes i)
  | Ast.Unop (_, e) -> expr_class lat classes e
  | Ast.Binop (_, a, b) ->
    lat.Lattice.join (expr_class lat classes a) (expr_class lat classes b)

(* One step of a leaf under local context [pc]. *)
let step_leaf (lat : 'a Lattice.t) (st : 'a state) pc (s : Ast.stmt) =
  let cls name = Smap.find_or ~default:lat.Lattice.bottom name st.classes in
  match s.Ast.node with
  | Ast.Skip -> Some (TNil, st)
  | Ast.Assign (x, e) ->
    let v = Eval.expr (env_of st) e in
    let c = lat.Lattice.join (expr_class lat st.classes e) (lat.Lattice.join pc st.global) in
    Some
      (TNil, { st with store = Smap.add x v st.store; classes = Smap.add x c st.classes })
  | Ast.Declassify (x, e, cls) ->
    let v = Eval.expr (env_of st) e in
    let named = Lattice.of_string_or_top lat cls in
    let c = lat.Lattice.join named (lat.Lattice.join pc st.global) in
    Some
      (TNil, { st with store = Smap.add x v st.store; classes = Smap.add x c st.classes })
  | Ast.Store (a, i, e) ->
    let env = env_of st in
    let idx = Eval.expr env i in
    let v = Eval.expr env e in
    let env' = Eval.store_index env a idx v in
    (* Weak update on the class: slots not written keep their
       information. *)
    let stored =
      lat.Lattice.join
        (expr_class lat st.classes i)
        (lat.Lattice.join (expr_class lat st.classes e) (lat.Lattice.join pc st.global))
    in
    let c = lat.Lattice.join (cls a) stored in
    Some
      ( TNil,
        { st with arrays = env'.Eval.arrays; classes = Smap.add a c st.classes } )
  | Ast.If (cond, then_, else_) ->
    let taken = Eval.truthy (Eval.expr (env_of st) cond) in
    let c = expr_class lat st.classes cond in
    let branch = if taken then then_ else else_ in
    Some (TCtx (c, of_stmt branch), st)
  | Ast.While (cond, body) ->
    let c = expr_class lat st.classes cond in
    let st = { st with global = lat.Lattice.join st.global (lat.Lattice.join pc c) } in
    if Eval.truthy (Eval.expr (env_of st) cond) then
      Some (TCtx (c, TSeq (of_stmt body, TLeaf s)), st)
    else Some (TNil, st)
  | Ast.Wait sem ->
    let count = Smap.find_or ~default:0 sem st.sems in
    if count <= 0 then None
    else
      let g = lat.Lattice.join st.global (lat.Lattice.join pc (cls sem)) in
      let sem_c = lat.Lattice.join (cls sem) (lat.Lattice.join pc g) in
      Some
        ( TNil,
          {
            st with
            sems = Smap.add sem (count - 1) st.sems;
            classes = Smap.add sem sem_c st.classes;
            global = g;
          } )
  | Ast.Signal sem ->
    let count = Smap.find_or ~default:0 sem st.sems in
    let sem_c = lat.Lattice.join (cls sem) (lat.Lattice.join pc st.global) in
    Some
      ( TNil,
        {
          st with
          sems = Smap.add sem (count + 1) st.sems;
          classes = Smap.add sem sem_c st.classes;
        } )
  | Ast.Send (chan, e) ->
    let queue = Smap.find_or ~default:[] chan st.chans in
    let cap =
      Smap.find_or ~default:Ifc_lang.Wellformed.default_channel_capacity chan
        st.chan_caps
    in
    if List.length queue >= cap then None
    else
      let v = Eval.expr (env_of st) e in
      (* Mirror the flow-sensitive send rule: the channel absorbs the
         payload's current class and the sending context. *)
      let stored =
        lat.Lattice.join
          (expr_class lat st.classes e)
          (lat.Lattice.join pc st.global)
      in
      let chan_c = lat.Lattice.join (cls chan) stored in
      Some
        ( TNil,
          {
            st with
            chans = Smap.add chan (queue @ [ v ]) st.chans;
            classes = Smap.add chan chan_c st.classes;
          } )
  | Ast.Recv (chan, x) -> (
    match Smap.find_or ~default:[] chan st.chans with
    | [] -> None
    | v :: rest ->
      (* Wait-like conditional delay (global absorbs the channel's
         class), then the delivered message lands in [x]. *)
      let g = lat.Lattice.join st.global (lat.Lattice.join pc (cls chan)) in
      let delivered = lat.Lattice.join (cls chan) (lat.Lattice.join pc g) in
      Some
        ( TNil,
          {
            st with
            store = Smap.add x v st.store;
            chans = Smap.add chan rest st.chans;
            classes = Smap.add x delivered (Smap.add chan delivered st.classes);
            global = g;
          } ))
  | Ast.Seq _ | Ast.Cobegin _ -> assert false

(* Enumerate enabled choices as (successor-state) thunks. *)
let enabled (lat : 'a Lattice.t) st =
  let choices = ref [] in
  let counter = ref 0 in
  let rec walk task pc rebuild =
    match task with
    | TNil -> ()
    | TLeaf s ->
      let index = !counter in
      incr counter;
      (match step_leaf lat st pc s with
      | None -> ()
      | Some (succ, st') ->
        choices := (index, { st' with task = simplify (rebuild succ) }) :: !choices)
    | TSeq (a, b) -> walk a pc (fun a' -> rebuild (TSeq (a', b)))
    | TPar ts ->
      List.iteri
        (fun i t ->
          walk t pc (fun t' ->
              rebuild (TPar (List.mapi (fun j u -> if j = i then t' else u) ts))))
        ts
    | TCtx (c, t) -> walk t (lat.Lattice.join pc c) (fun t' -> rebuild (TCtx (c, t')))
  in
  match walk st.task lat.Lattice.bottom Fun.id with
  | () -> Ok (List.rev !choices)
  | exception Eval.Fault msg -> Error msg

let run ?(fuel = 100_000) ?(inputs = []) ~strategy binding (p : Ast.program) =
  let lat = Binding.lattice binding in
  let store, arrays, sems, chans, chan_caps =
    List.fold_left
      (fun (store, arrays, sems, chans, caps) decl ->
        match decl with
        | Ast.Var_decl { name; _ } -> (Smap.add name 0 store, arrays, sems, chans, caps)
        | Ast.Arr_decl { name; size; _ } ->
          (store, Smap.add name (Array.make size 0) arrays, sems, chans, caps)
        | Ast.Sem_decl { name; init; _ } ->
          (store, arrays, Smap.add name init sems, chans, caps)
        | Ast.Chan_decl { name; cap; _ } ->
          (store, arrays, sems, Smap.add name [] chans, Smap.add name cap caps))
      (Smap.empty, Smap.empty, Smap.empty, Smap.empty, Smap.empty)
      p.decls
  in
  let store =
    List.fold_left
      (fun store (x, v) -> if Smap.mem x store then Smap.add x v store else store)
      store inputs
  in
  (* Inputs arrive at their clearance: initial class = binding. *)
  let classes =
    List.fold_left
      (fun classes decl ->
        let name =
          match decl with
          | Ast.Var_decl { name; _ }
          | Ast.Arr_decl { name; _ }
          | Ast.Sem_decl { name; _ }
          | Ast.Chan_decl { name; _ } ->
            name
        in
        Smap.add name (Binding.sbind binding name) classes)
      Smap.empty p.decls
  in
  let init =
    {
      task = simplify (of_stmt p.body);
      store;
      arrays;
      sems;
      chans;
      chan_caps;
      classes;
      global = lat.Lattice.bottom;
    }
  in
  let rng = match strategy with `Random seed -> Some (Prng.create seed) | _ -> None in
  let cursor = ref 0 in
  let pick choices =
    match (strategy, choices) with
    | _, [] -> None
    | `Leftmost, c :: _ -> Some c
    | `Random _, cs ->
      let rng = Option.get rng in
      Some (List.nth cs (Prng.int rng (List.length cs)))
    | `Round_robin, cs ->
      let sorted = List.sort (fun (i, _) (j, _) -> compare i j) cs in
      let chosen =
        match List.find_opt (fun (i, _) -> i >= !cursor) sorted with
        | Some c -> c
        | None -> List.hd sorted
      in
      cursor := fst chosen + 1;
      Some chosen
  in
  let finish outcome (st : 'a state) =
    let violations =
      Smap.fold
        (fun v c acc ->
          if lat.Lattice.leq c (Binding.sbind binding v) then acc else (v, c) :: acc)
        st.classes []
    in
    { outcome; store = st.store; classes = st.classes; global = st.global; violations }
  in
  let rec loop st fuel =
    if is_done st.task then finish `Terminated st
    else if fuel <= 0 then finish `Fuel_exhausted st
    else
      match enabled lat st with
      | Error msg -> finish (`Fault msg) st
      | Ok [] -> finish `Deadlock st
      | Ok choices -> (
        match pick choices with
        | None -> finish `Deadlock st
        | Some (_, st') -> loop st' (fuel - 1))
  in
  loop init fuel

let pp_report (lat : 'a Lattice.t) ppf r =
  let pp_cls ppf c = Fmt.string ppf (lat.Lattice.to_string c) in
  Fmt.pf ppf
    "@[<v>outcome: %s@ store: %a@ information state: %a@ global: %a@ violations: %a@]"
    (match r.outcome with
    | `Terminated -> "terminated"
    | `Deadlock -> "deadlock"
    | `Fault m -> "fault: " ^ m
    | `Fuel_exhausted -> "fuel exhausted")
    Eval.pp_store r.store (Smap.pp pp_cls) r.classes pp_cls r.global
    (Fmt.list ~sep:(Fmt.any ",@ ") (fun ppf (v, c) -> Fmt.pf ppf "%s at %a" v pp_cls c))
    r.violations
