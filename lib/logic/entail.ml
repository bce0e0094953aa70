(* Entailment between flow assertions. *)

module Lattice = Ifc_lattice.Lattice

(* --------------------------------------------------------------- *)
(* Syntactic checker *)

(* A hypothesis set indexed for derivation: one entry per (symbol of a
   hypothesis's normalized left-hand side, that hypothesis's normalized
   right-hand side), sorted by symbol. Each hypothesis is normalized once,
   each lookup is a binary search, and a small set costs one small array
   rather than a hash table. Hypotheses with a constant left-hand side
   bound no symbol and are dropped. *)
type 'a index = (Cexpr.sym * 'a Cexpr.normal) array

let index (l : 'a Lattice.t) (hyps : 'a Assertion.t) : 'a index =
  let entries =
    List.concat_map
      (fun (h : 'a Assertion.atom) ->
        match (Cexpr.normalize l h.Assertion.lhs).Cexpr.atoms with
        | [] -> []
        | syms ->
          let rhs = Cexpr.normalize l h.Assertion.rhs in
          List.map (fun s -> (s, rhs)) syms)
      hyps
    |> Array.of_list
  in
  Array.stable_sort (fun (a, _) (b, _) -> Cexpr.compare_sym a b) entries;
  entries

(* The first position of [s] in [idx], or [Array.length idx]. *)
let lower_bound (idx : 'a index) s =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if Cexpr.compare_sym (fst idx.(mid)) s < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length idx)

(* Does some hypothesis bounding [s] have a right-hand side [p] holds of? *)
let exists_bound (idx : 'a index) s p =
  let rec from i =
    i < Array.length idx
    && Cexpr.compare_sym (fst idx.(i)) s = 0
    && (p (snd idx.(i)) || from (i + 1))
  in
  from (lower_bound idx s)

(* Derive [n <= goal] for a normalized [n] by deriving every join
   component: a constant is only provably below the goal's constant part
   (goal symbols are arbitrary in some valuation, and hypotheses bound
   symbols, not constants — sound, and complete for the assertions the
   proof rules produce); a symbol is below the goal when the goal names
   it, or when a hypothesis [lhs <= rhs] with the symbol among [lhs]'s
   atoms has a derivable [rhs]. Chaining is bounded by a visited set on
   symbols. *)
let rec derive_normal (l : 'a Lattice.t) idxs visited (n : 'a Cexpr.normal)
    (goal : 'a Cexpr.normal) =
  l.Lattice.leq n.Cexpr.const goal.Cexpr.const
  && List.for_all (fun s -> derive_sym l idxs visited s goal) n.Cexpr.atoms

and derive_sym l idxs visited s goal =
  List.exists (fun s' -> Cexpr.compare_sym s s' = 0) goal.Cexpr.atoms
  || (not (List.mem s visited))
     && List.exists
          (fun idx ->
            exists_bound idx s (fun rhs -> derive_normal l idxs (s :: visited) rhs goal))
          idxs

let check_indexed (l : 'a Lattice.t) idxs goals =
  List.for_all
    (fun (g : 'a Assertion.atom) ->
      derive_normal l idxs []
        (Cexpr.normalize l g.Assertion.lhs)
        (Cexpr.normalize l g.Assertion.rhs))
    goals

(* A goal that is itself a hypothesis needs no search: it is derivable
   exactly when [const(lhs) <= const(rhs)]. The constant part of the
   left-hand side must lie below the goal's constant whatever the
   hypotheses are, and each symbol of the left-hand side is discharged
   through the goal's own hypothesis, whose right-hand side is below the
   goal because [leq] is reflexive (Laws checks it) and every goal symbol
   is named by the goal. *)
let settled (l : 'a Lattice.t) (a : 'a Assertion.atom) =
  l.Lattice.leq (Cexpr.normalize l a.Assertion.lhs).Cexpr.const
    (Cexpr.normalize l a.Assertion.rhs).Cexpr.const

(* Side conditions mostly pair an assertion with a variant of itself, so
   goals are first matched against the hypothesis in the same position;
   the index is built only for the goals that need a derivation. *)
let check (l : 'a Lattice.t) hyps goals =
  let idx = lazy (index l hyps) in
  let rec go hyps goals =
    match (goals, hyps) with
    | [], _ -> true
    | g :: goals, h :: hyps when Assertion.same_atom l h g -> settled l g && go hyps goals
    | g :: goals, _ ->
      check_indexed l [ Lazy.force idx ] [ g ]
      && go (match hyps with [] -> [] | _ :: hyps -> hyps) goals
  in
  go hyps goals

(* --------------------------------------------------------------- *)
(* Complete decider by valuation enumeration *)

let decide ?(max_valuations = 200_000) (l : 'a Lattice.t) hyps goals =
  let syms =
    List.sort_uniq Cexpr.compare_sym (Assertion.syms hyps @ Assertion.syms goals)
  in
  let n_elems = List.length l.Lattice.elements in
  let n_syms = List.length syms in
  (* valuations = n_elems ^ n_syms; overflow-safe check. *)
  let rec count acc k =
    if k = 0 then Some acc
    else if acc > max_valuations then None
    else count (acc * n_elems) (k - 1)
  in
  match count 1 n_syms with
  | None ->
    Error
      (Printf.sprintf "entailment: %d^%d valuations exceed the limit %d" n_elems n_syms
         max_valuations)
  | Some _ ->
    let arr = Array.of_list l.Lattice.elements in
    let sym_arr = Array.of_list syms in
    let assignment = Array.make n_syms 0 in
    let env s =
      let rec find i =
        if i >= n_syms then l.Lattice.bottom
        else if Cexpr.compare_sym sym_arr.(i) s = 0 then arr.(assignment.(i))
        else find (i + 1)
      in
      find 0
    in
    let rec enumerate i =
      if i = n_syms then
        (not (Assertion.holds l env hyps)) || Assertion.holds l env goals
      else begin
        let rec loop v =
          if v >= Array.length arr then true
          else begin
            assignment.(i) <- v;
            enumerate (i + 1) && loop (v + 1)
          end
        in
        loop 0
      end
    in
    Ok (enumerate 0)

type entailer = [ `Syntactic | `Complete ]

let entails (entailer : entailer) (l : 'a Lattice.t) hyps goals =
  match entailer with
  | `Syntactic -> check l hyps goals
  | `Complete -> (
    match decide l hyps goals with
    | Ok b -> b
    | Error _ ->
      (* Too many valuations: fall back to the sound checker. *)
      check l hyps goals)
