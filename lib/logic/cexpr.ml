(* Class expressions of the flow logic. *)

module Lattice = Ifc_lattice.Lattice
module Ast = Ifc_lang.Ast

type 'a t =
  | Const of 'a
  | Cls of string
  | Local
  | Global
  | Join of 'a t * 'a t

type sym = S_cls of string | S_local | S_global

let join a b = Join (a, b)

let joins (l : 'a Lattice.t) = function
  | [] -> Const l.Lattice.bottom
  | e :: rest -> List.fold_left join e rest

let rec of_expr (l : 'a Lattice.t) = function
  | Ast.Int _ | Ast.Bool _ -> Const l.Lattice.bottom
  | Ast.Var x -> Cls x
  | Ast.Index (a, i) -> Join (Cls a, of_expr l i)
  | Ast.Unop (_, e) -> of_expr l e
  | Ast.Binop (_, e1, e2) -> Join (of_expr l e1, of_expr l e2)

let rec subst f = function
  | Const _ as e -> e
  | Cls v as e -> ( match f (S_cls v) with Some r -> r | None -> e)
  | Local as e -> ( match f S_local with Some r -> r | None -> e)
  | Global as e -> ( match f S_global with Some r -> r | None -> e)
  | Join (a, b) -> Join (subst f a, subst f b)

let subst1 s r e = subst (fun s' -> if s' = s then Some r else None) e

let compare_sym a b =
  match (a, b) with
  | S_local, S_local | S_global, S_global -> 0
  | S_local, _ -> -1
  | _, S_local -> 1
  | S_global, _ -> -1
  | _, S_global -> 1
  | S_cls x, S_cls y -> String.compare x y

let syms e =
  let rec go acc = function
    | Const _ -> acc
    | Cls v -> if List.mem (S_cls v) acc then acc else S_cls v :: acc
    | Local -> if List.mem S_local acc then acc else S_local :: acc
    | Global -> if List.mem S_global acc then acc else S_global :: acc
    | Join (a, b) -> go (go acc a) b
  in
  List.rev (go [] e)

let rec eval (l : 'a Lattice.t) env = function
  | Const c -> c
  | Cls v -> env (S_cls v)
  | Local -> env S_local
  | Global -> env S_global
  | Join (a, b) -> l.Lattice.join (eval l env a) (eval l env b)

type 'a normal = { const : 'a; atoms : sym list }

let normalize (l : 'a Lattice.t) e =
  let rec go (const, atoms) = function
    | Const c -> (l.Lattice.join const c, atoms)
    | Cls v -> (const, S_cls v :: atoms)
    | Local -> (const, S_local :: atoms)
    | Global -> (const, S_global :: atoms)
    | Join (a, b) -> go (go (const, atoms) a) b
  in
  let const, atoms = go (l.Lattice.bottom, []) e in
  { const; atoms = List.sort_uniq compare_sym atoms }

let of_normal { const; atoms } =
  let atom_expr = function
    | S_cls v -> Cls v
    | S_local -> Local
    | S_global -> Global
  in
  List.fold_left (fun acc s -> Join (acc, atom_expr s)) (Const const) atoms

let equal (l : 'a Lattice.t) a b =
  let na = normalize l a and nb = normalize l b in
  l.Lattice.equal na.const nb.const
  && List.length na.atoms = List.length nb.atoms
  && List.for_all2 (fun x y -> compare_sym x y = 0) na.atoms nb.atoms

let rec same (l : 'a Lattice.t) a b =
  a == b
  ||
  match (a, b) with
  | Const x, Const y -> l.Lattice.equal x y
  | Cls x, Cls y -> String.equal x y
  | Local, Local | Global, Global -> true
  | Join (a1, a2), Join (b1, b2) -> same l a1 b1 && same l a2 b2
  | (Const _ | Cls _ | Local | Global | Join _), _ -> false

let pp_sym ppf = function
  | S_cls v -> Fmt.pf ppf "class(%s)" v
  | S_local -> Fmt.string ppf "local"
  | S_global -> Fmt.string ppf "global"

let pp (l : 'a Lattice.t) ppf e =
  let { const; atoms } = normalize l e in
  match (atoms, l.Lattice.equal const l.Lattice.bottom) with
  | [], _ -> Fmt.string ppf (l.Lattice.to_string const)
  | _, true -> Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " (+) ") pp_sym) atoms
  | _, false ->
    Fmt.pf ppf "%a (+) %s"
      (Fmt.list ~sep:(Fmt.any " (+) ") pp_sym)
      atoms (l.Lattice.to_string const)
