(* Tests for the flow logic: class expressions, assertions, entailment,
   the Figure 1 proof checker, the Theorem 1 generator, and the Theorem
   1+2 equivalence with CFM. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Gen = Ifc_lang.Gen
module Prng = Ifc_support.Prng
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Cexpr = Ifc_logic.Cexpr
module Assertion = Ifc_logic.Assertion
module Entail = Ifc_logic.Entail
module Proof = Ifc_logic.Proof
module Check = Ifc_logic.Check
module Generate = Ifc_logic_gen.Generate
module Invariance = Ifc_logic_gen.Invariance
module Interference = Ifc_logic.Interference
module Cert = Ifc_cert.Cert
module Checker = Ifc_cert.Checker

let check = Alcotest.(check bool)

let two = Chain.two

let low = two.Lattice.bottom

let high = two.Lattice.top

let stmt src =
  match Parser.parse_stmt src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let binding pairs = Binding.make two pairs

(* ------------------------------------------------------------------ *)
(* Class expressions *)

let test_cexpr_normalize () =
  let e =
    Cexpr.Join
      ( Cexpr.Join (Cexpr.Cls "x", Cexpr.Const low),
        Cexpr.Join (Cexpr.Local, Cexpr.Join (Cexpr.Cls "x", Cexpr.Const high)) )
  in
  let n = Cexpr.normalize two e in
  Alcotest.(check int) "const folded" high n.Cexpr.const;
  Alcotest.(check int) "two atoms" 2 (List.length n.Cexpr.atoms);
  check "normal form roundtrip" true (Cexpr.equal two e (Cexpr.of_normal n))

let test_cexpr_equal_modulo_assoc () =
  let a = Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Cls "y", Cexpr.Local)) in
  let b = Cexpr.Join (Cexpr.Join (Cexpr.Local, Cexpr.Cls "y"), Cexpr.Cls "x") in
  check "assoc/comm equality" true (Cexpr.equal two a b);
  check "idempotence" true (Cexpr.equal two a (Cexpr.Join (a, a)));
  check "different" false (Cexpr.equal two a (Cexpr.Cls "x"))

let test_cexpr_subst_simultaneous () =
  (* [x <- y, y <- x] must swap, not chain. *)
  let e = Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y") in
  let sigma = function
    | Cexpr.S_cls "x" -> Some (Cexpr.Cls "y")
    | Cexpr.S_cls "y" -> Some (Cexpr.Cls "x")
    | _ -> None
  in
  check "swap" true (Cexpr.equal two (Cexpr.subst sigma e) e);
  let e2 = Cexpr.subst sigma (Cexpr.Cls "x") in
  check "x becomes y" true (Cexpr.equal two e2 (Cexpr.Cls "y"))

let test_cexpr_of_expr () =
  let e =
    match Parser.parse_expr "x + 3 * y" with Ok e -> e | Error _ -> Alcotest.fail "parse"
  in
  let c = Cexpr.of_expr two e in
  check "class of expr" true
    (Cexpr.equal two c (Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y")))

let test_cexpr_eval () =
  let env = function
    | Cexpr.S_cls "x" -> high
    | Cexpr.S_cls _ -> low
    | Cexpr.S_local -> low
    | Cexpr.S_global -> low
  in
  Alcotest.(check int) "eval join" high
    (Cexpr.eval two env (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)));
  Alcotest.(check int) "eval const" low (Cexpr.eval two env (Cexpr.Const low))

(* ------------------------------------------------------------------ *)
(* Assertions *)

let policy_xy = Assertion.policy (binding [ ("x", high); ("y", low) ]) [ "x"; "y" ]

let test_assertion_triple () =
  let a =
    Assertion.of_triple
      { Assertion.v = policy_xy; l = Cexpr.Const low; g = Cexpr.Const high }
  in
  match Assertion.triple_of two a with
  | None -> Alcotest.fail "triple_of failed"
  | Some t ->
    check "v recovered" true (Assertion.equal two t.Assertion.v policy_xy);
    check "l recovered" true (Cexpr.equal two t.Assertion.l (Cexpr.Const low));
    check "g recovered" true (Cexpr.equal two t.Assertion.g (Cexpr.Const high))

let test_assertion_triple_rejects_mixed () =
  (* local occurring in a V atom breaks the {V,L,G} form. *)
  let bad =
    [ Assertion.atom (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)) (Cexpr.Const high);
      Assertion.atom Cexpr.Local (Cexpr.Const low);
      Assertion.atom Cexpr.Global (Cexpr.Const low) ]
  in
  check "rejected" true (Assertion.triple_of two bad = None);
  (* missing global bound *)
  let missing = [ Assertion.atom Cexpr.Local (Cexpr.Const low) ] in
  check "missing bound rejected" true (Assertion.triple_of two missing = None)

let test_assertion_equal_unordered () =
  let a = policy_xy and b = List.rev policy_xy in
  check "order irrelevant" true (Assertion.equal two a b);
  check "duplicates irrelevant" true (Assertion.equal two a (a @ a))

let test_assertion_holds () =
  let env = function
    | Cexpr.S_cls "x" -> high
    | _ -> low
  in
  check "x<=high, y<=low holds" true (Assertion.holds two env policy_xy);
  let env_bad = fun _ -> high in
  check "y=high violates" false (Assertion.holds two env_bad policy_xy)

(* ------------------------------------------------------------------ *)
(* Entailment *)

let atom l r = Assertion.atom l r

let test_entail_basic () =
  let hyps =
    [ atom (Cexpr.Cls "x") (Cexpr.Const low); atom Cexpr.Local (Cexpr.Const low) ]
  in
  check "join of lows" true
    (Entail.check two hyps
       [ atom (Cexpr.Join (Cexpr.Cls "x", Cexpr.Local)) (Cexpr.Const low) ]);
  check "cannot raise" false
    (Entail.check two [ atom (Cexpr.Cls "x") (Cexpr.Const high) ]
       [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_entail_chaining () =
  (* x <= local, local <= low |- x <= low: via the hypothesis chain. *)
  let hyps =
    [ atom (Cexpr.Cls "x") Cexpr.Local; atom Cexpr.Local (Cexpr.Const low) ]
  in
  check "chain" true (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_entail_join_ub () =
  (* |- x <= x (+) y without hypotheses. *)
  check "join upper bound" true
    (Entail.check two []
       [ atom (Cexpr.Cls "x") (Cexpr.Join (Cexpr.Cls "x", Cexpr.Cls "y")) ])

let test_entail_cycle_safe () =
  (* x <= y, y <= x must terminate (and prove x <= y). *)
  let hyps = [ atom (Cexpr.Cls "x") (Cexpr.Cls "y"); atom (Cexpr.Cls "y") (Cexpr.Cls "x") ] in
  check "terminates, proves" true (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Cls "y") ]);
  check "terminates, rejects" false
    (Entail.check two hyps [ atom (Cexpr.Cls "x") (Cexpr.Const low) ])

let test_decide_complete () =
  (* decide is complete: x <= y, y <= z |- x <= z even written with joins
     the syntactic checker handles too. *)
  let hyps = [ atom (Cexpr.Cls "x") (Cexpr.Cls "y"); atom (Cexpr.Cls "y") (Cexpr.Cls "z") ] in
  (match Entail.decide two hyps [ atom (Cexpr.Cls "x") (Cexpr.Cls "z") ] with
  | Ok b -> check "transitive" true b
  | Error e -> Alcotest.fail e);
  match Entail.decide two [] [ atom (Cexpr.Cls "x") (Cexpr.Const low) ] with
  | Ok b -> check "unconstrained is not low" false b
  | Error e -> Alcotest.fail e

let test_decide_limit () =
  let many = List.init 40 (fun i -> atom (Cexpr.Cls (Printf.sprintf "v%d" i)) (Cexpr.Const low)) in
  check "limit reported" true (Result.is_error (Entail.decide ~max_valuations:100 two many many))

let gen_cexpr =
  QCheck.Gen.(
    sized_size (int_bound 4) (fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun b -> Cexpr.Const (if b then high else low)) bool;
              oneofl [ Cexpr.Cls "x"; Cexpr.Cls "y"; Cexpr.Local; Cexpr.Global ] ]
        else map2 (fun a b -> Cexpr.Join (a, b)) (self (n / 2)) (self (n / 2)))))

let gen_assertion =
  QCheck.Gen.(list_size (int_bound 4) (map2 atom gen_cexpr gen_cexpr))

(* qcheck: the syntactic checker is sound w.r.t. the complete decider. *)
let qcheck_entail_sound =
  let arb = QCheck.make QCheck.Gen.(pair gen_assertion gen_assertion) in
  QCheck.Test.make ~name:"syntactic entailment sound wrt complete" ~count:1000 arb
    (fun (hyps, goals) ->
      if Entail.check two hyps goals then
        match Entail.decide two hyps goals with
        | Ok b -> b
        | Error _ -> QCheck.assume_fail ()
      else true)
  |> QCheck_alcotest.to_alcotest

(* The derivation search as it was before hypotheses were indexed:
   every hypothesis re-normalized for every goal symbol. *)
let naive_entail (l : 'a Lattice.t) hyps goals =
  let rec derive_atom visited atom (goal : 'a Cexpr.normal) =
    match atom with
    | `Const c -> l.Lattice.leq c goal.Cexpr.const
    | `Sym s ->
      List.mem s goal.Cexpr.atoms
      || (not (List.mem s visited))
         && List.exists
              (fun (h : 'a Assertion.atom) ->
                List.mem s (Cexpr.normalize l h.Assertion.lhs).Cexpr.atoms
                && derive_expr (s :: visited) h.Assertion.rhs goal)
              hyps
  and derive_expr visited e goal =
    let n = Cexpr.normalize l e in
    derive_atom visited (`Const n.Cexpr.const) goal
    && List.for_all (fun s -> derive_atom visited (`Sym s) goal) n.Cexpr.atoms
  in
  List.for_all
    (fun (g : 'a Assertion.atom) ->
      derive_expr [] g.Assertion.lhs (Cexpr.normalize l g.Assertion.rhs))
    goals

(* Goals are also drawn as variants of the hypotheses (a prefix of them
   kept in place), which is the shape the position-by-position shortcut
   serves. *)
let qcheck_entail_indexed =
  QCheck.Test.make ~name:"indexed entailment agrees with the naive derivation"
    ~count:2000
    (QCheck.make QCheck.Gen.(triple gen_assertion gen_assertion small_nat))
    (fun (hyps, goals, k) ->
      let variant = List.filteri (fun i _ -> i < k mod 5) hyps @ goals in
      List.for_all
        (fun goals -> Entail.check two hyps goals = naive_entail two hyps goals)
        [ goals; hyps; variant ])
  |> QCheck_alcotest.to_alcotest

(* Assertion equality is equality of the sets of normalized atoms, also
   when one side is a reordering or a partial rewrite of the other. *)
let qcheck_assertion_equal =
  let key (a : int Assertion.atom) =
    let n e =
      let n = Cexpr.normalize two e in
      (n.Cexpr.const, n.Cexpr.atoms)
    in
    (n a.Assertion.lhs, n a.Assertion.rhs)
  in
  let keys p = List.sort_uniq compare (List.map key p) in
  QCheck.Test.make ~name:"assertion equality is equality of normalized atom sets"
    ~count:2000
    (QCheck.make QCheck.Gen.(triple gen_assertion gen_assertion small_nat))
    (fun (p, q, k) ->
      let variant = List.filteri (fun i _ -> i < k mod 5) p @ q in
      List.for_all
        (fun (p, q) -> Assertion.equal two p q = (keys p = keys q))
        [ (p, q); (p, List.rev p); (p, variant); (p, p @ p) ])
  |> QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Proof checker on hand-built proofs *)

let const c = Cexpr.Const c

let bounds_lg l g rest = rest @ [ atom Cexpr.Local (const l); atom Cexpr.Global (const g) ]

let test_check_52_manual_proof () =
  (* The §5.2 proof that begin x := 0; y := x end preserves the policy
     x<=high, y<=low — a proof CFM has no counterpart for. *)
  let s = stmt "begin x := 0; y := x end" in
  let s1, s2 =
    match s.Ast.node with Ast.Seq [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let p_pre =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const high); atom (Cexpr.Cls "y") (const low) ]
  in
  let mid =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const low) ]
  in
  (* x := 0 : axiom pre is mid[x <- low(+)local(+)global]. *)
  let sigma_x = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax1 =
    Proof.make ~pre:(Assertion.subst sigma_x mid) ~stmt:s1 ~post:mid Proof.Axiom_assign
  in
  let p1 = Proof.make ~pre:p_pre ~stmt:s1 ~post:mid (Proof.Consequence ax1) in
  let sigma_y = function
    | Cexpr.S_cls "y" ->
      Some (Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax2 =
    Proof.make ~pre:(Assertion.subst sigma_y mid) ~stmt:s2 ~post:mid Proof.Axiom_assign
  in
  let p2 = Proof.make ~pre:mid ~stmt:s2 ~post:mid (Proof.Consequence ax2) in
  let whole = Proof.make ~pre:p_pre ~stmt:s ~post:mid (Proof.Composition [ p1; p2 ]) in
  (match Check.check two whole with
  | Ok () -> ()
  | Error es -> Alcotest.failf "checker rejected: %a" (Fmt.list Check.pp_error) es);
  (* And CFM indeed cannot certify it (tested in Test_cfm too). *)
  check "CFM rejects" false
    (Cfm.certified (binding [ ("x", high); ("y", low) ]) s);
  (* The proof strengthens the policy mid-stream, so it is NOT completely
     invariant — exactly the paper's point. *)
  check "not completely invariant" false
    (Proof.completely_invariant two ~invariant:p_pre whole)

let test_check_rejects_bogus_axiom () =
  (* {y<=low} x := y {y<=low, x<=low} with x high into low and a pre that
     does not match the substitution: must be rejected. *)
  let s = stmt "x := y" in
  let post =
    bounds_lg low low
      [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const high) ]
  in
  let bogus = Proof.make ~pre:post ~stmt:s ~post Proof.Axiom_assign in
  check "rejected" false (Check.valid two bogus)

let test_check_rejects_wrong_shape () =
  let s = stmt "x := y" in
  let a = bounds_lg low low [] in
  let bogus = Proof.make ~pre:a ~stmt:s ~post:a Proof.Axiom_wait in
  check "wait rule on assign rejected" false (Check.valid two bogus)

let test_check_rejects_false_consequence () =
  let s = stmt "x := 1" in
  let weak = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let strong = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  (* x<=high |- x<=low is false; consequence must fail. *)
  let sigma = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax = Proof.make ~pre:(Assertion.subst sigma weak) ~stmt:s ~post:weak Proof.Axiom_assign in
  let bad = Proof.make ~pre:(Assertion.subst sigma weak) ~stmt:s ~post:strong (Proof.Consequence ax) in
  check "rejected" false (Check.valid two bad)

(* Structural-rule rejections: mutate a valid generated proof in each of
   the ways the rules forbid and confirm the checker objects. *)

let test_check_rejects_mutated_structures () =
  (* A valid generated fixture must check (guards the fixtures below)... *)
  let fixture = Generate.theorem1 (binding [ ("x", high) ]) (stmt "while x > 0 do x := x - 1") in
  (match Check.check two fixture with
  | Ok () -> ()
  | Error es -> Alcotest.failf "fixture proof invalid: %a" (Fmt.list Check.pp_error) es);
  (* ... while an iteration whose body is not an invariant is refused. *)
  let body = stmt "x := x - 1" in
  let whole = stmt "while x > 0 do x := x - 1" in
  let a_pre = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let a_post = bounds_lg low high [ atom (Cexpr.Cls "x") (const high) ] in
  let body_proof = Proof.make ~pre:a_pre ~stmt:body ~post:a_post Proof.Axiom_assign in
  let broken =
    Proof.make ~pre:a_pre ~stmt:whole ~post:a_post (Proof.Iteration body_proof)
  in
  check "non-invariant body rejected" false (Check.valid two broken)

let test_check_rejects_composition_gaps () =
  (* Adjacent post/pre mismatch inside a composition. *)
  let s = stmt "begin x := 1; x := 2 end" in
  let s1, s2 =
    match s.Ast.node with Ast.Seq [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let p_low = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  let p_high = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let sigma = function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None
  in
  let ax1 = Proof.make ~pre:(Assertion.subst sigma p_low) ~stmt:s1 ~post:p_low Proof.Axiom_assign in
  let ax2 = Proof.make ~pre:(Assertion.subst sigma p_high) ~stmt:s2 ~post:p_high Proof.Axiom_assign in
  (* ax1 ends at {x<=low,...}; ax2 begins at a *different* assertion. *)
  let broken =
    Proof.make ~pre:ax1.Proof.pre ~stmt:s ~post:p_high (Proof.Composition [ ax1; ax2 ])
  in
  check "post/pre gap rejected" false (Check.valid two broken);
  (* Arity mismatch. *)
  let broken2 =
    Proof.make ~pre:ax1.Proof.pre ~stmt:s ~post:p_low (Proof.Composition [ ax1 ])
  in
  check "arity mismatch rejected" false (Check.valid two broken2)

let test_check_rejects_alternation_violations () =
  (* Branch proofs that disagree on their postconditions. *)
  let s = stmt "if c = 0 then x := 1 else x := 2" in
  let s1, s2 =
    match s.Ast.node with Ast.If (_, a, b) -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let post1 = bounds_lg low low [ atom (Cexpr.Cls "x") (const low) ] in
  let post2 = bounds_lg low low [ atom (Cexpr.Cls "x") (const high) ] in
  let sigma post = Assertion.subst (function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (const low, Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) post
  in
  let p1 = Proof.make ~pre:(sigma post1) ~stmt:s1 ~post:post1 Proof.Axiom_assign in
  let p2 = Proof.make ~pre:(sigma post2) ~stmt:s2 ~post:post2 Proof.Axiom_assign in
  let broken =
    Proof.make ~pre:(sigma post1) ~stmt:s ~post:post1 (Proof.Alternation (p1, p2))
  in
  check "disagreeing branch posts rejected" false (Check.valid two broken)

(* Two processes sharing x: one asserts x <= low invariantly, the other
   assigns high data to x. [s] is [cobegin y := x || x := h coend]. *)
let interference_proof (lat : 'a Lattice.t) s =
  let low = lat.Lattice.bottom and high = lat.Lattice.top in
  let s1, s2 =
    match s.Ast.node with Ast.Cobegin [ a; b ] -> (a, b) | _ -> Alcotest.fail "shape"
  in
  let v1 = [ atom (Cexpr.Cls "x") (const low); atom (Cexpr.Cls "y") (const low) ] in
  let v2 = [ atom (Cexpr.Cls "h") (const high); atom (Cexpr.Cls "x") (const high) ] in
  let tri v = bounds_lg low low v in
  let sigma_y p = Assertion.subst (function
    | Cexpr.S_cls "y" ->
      Some (Cexpr.Join (Cexpr.Cls "x", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) p
  in
  let sigma_x p = Assertion.subst (function
    | Cexpr.S_cls "x" ->
      Some (Cexpr.Join (Cexpr.Cls "h", Cexpr.Join (Cexpr.Local, Cexpr.Global)))
    | _ -> None) p
  in
  let p1_post = tri v1 in
  let p1 = Proof.make ~pre:(sigma_y p1_post) ~stmt:s1 ~post:p1_post Proof.Axiom_assign in
  let p1 = Proof.make ~pre:(tri v1) ~stmt:s1 ~post:p1_post (Proof.Consequence p1) in
  let p2_post = tri v2 in
  let p2 = Proof.make ~pre:(sigma_x p2_post) ~stmt:s2 ~post:p2_post Proof.Axiom_assign in
  let p2 = Proof.make ~pre:(tri v2) ~stmt:s2 ~post:p2_post (Proof.Consequence p2) in
  Proof.make ~pre:(tri (v1 @ v2)) ~stmt:s ~post:(tri (v1 @ v2))
    (Proof.Concurrency [ p1; p2 ])

let test_check_rejects_interference () =
  (* The concurrency rule's interference check must refuse. *)
  let whole = interference_proof two (stmt "cobegin y := x || x := h coend") in
  (* The x <= low assertion in process 1 is NOT preserved by x := h. With
     the interference check on, the proof must fail; trusting it, the
     (unsound) proof would pass the remaining shape checks. *)
  check "interference detected" false
    (Result.is_ok (Check.check ~interference:`Check two whole));
  check "trust mode skips the check" true
    (Result.is_ok (Check.check ~interference:`Trust two whole))

(* The independent certificate checker refuses the same proof, under the
   concurrency rule, once it is serialized and parsed back. *)
let test_cert_checker_rejects_interference () =
  let lat = Lattice.stringify two in
  let program =
    match
      Parser.parse_program "var x, y, h : integer;\ncobegin y := x || x := h coend"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  in
  let whole = interference_proof lat program.Ast.body in
  let binding = Binding.make lat [ ("h", "high"); ("x", "low"); ("y", "low") ] in
  let cert = Cert.of_proof ~binding ~program whole in
  let concurrency fs =
    List.filter_map
      (fun (f : Checker.failure) ->
        if f.Checker.rule = "concurrency" then Some (f.Checker.path, f.Checker.reason)
        else None)
      fs
  in
  (match Cert.parse (Cert.to_string cert) with
  | Error e -> Alcotest.failf "certificate must parse: %a" Cert.pp_parse_error e
  | Ok parsed -> (
    match Checker.check parsed program with
    | Ok () -> Alcotest.fail "interfering certificate accepted"
    | Error fs -> (
      (* Every assertion of process 1 mentions x, and x := h breaks each. *)
      let found = concurrency fs in
      Alcotest.(check int) "one failure per assertion of process 1" 4 (List.length found);
      check "reported at the cobegin" true (List.for_all (fun (p, _) -> p = "0") found);
      match found with
      | (_, first) :: _ ->
        Alcotest.(check string)
          "message"
          "interference: class(x) <= low, class(y) <= low, global <= low, local <= low \
           not preserved by x := h under \nclass(h) <= high,\nglobal <= low,\n\
           local (+) global (+) class(h) <= high,\nlocal <= low"
          first
      | [] -> Alcotest.fail "no concurrency failure")));
  (* Without the text round trip the assertions keep their order, so the
     two checkers report the same interference, word for word. *)
  match (Check.check lat whole, Checker.check cert program) with
  | Error es, Error fs ->
    Alcotest.(check (list string))
      "same interference messages"
      (List.filter_map
         (fun (e : Check.error) ->
           if e.Check.rule = "concurrency" then Some e.Check.reason else None)
         es)
      (List.map snd (concurrency fs))
  | _ -> Alcotest.fail "both checkers must reject"

(* The interference obligation as the concurrency rule states it: the
   whole of [r] re-derived after the write, from [r] and the write's
   precondition. *)
let interference_reference (l : 'a Lattice.t) r (w : 'a Interference.write) =
  let bounds =
    match Assertion.triple_of l w.Interference.pre with
    | Some { Assertion.l = lb; g = gb; _ } -> Cexpr.Join (lb, gb)
    | None -> Cexpr.Join (Cexpr.Local, Cexpr.Global)
  in
  let sigma = function
    | Cexpr.S_cls v when v = w.Interference.var ->
      Some (Cexpr.Join (w.Interference.written, bounds))
    | _ -> None
  in
  Entail.check l (r @ w.Interference.pre) (Assertion.subst sigma r)

let qcheck_interference_kernel =
  let cert_free e =
    not (List.exists (fun s -> s = Cexpr.S_local || s = Cexpr.S_global) (Cexpr.syms e))
  in
  (* Half of the preconditions are in {V,L,G} form, so both ways of
     bounding the acting process's certification variables are hit. *)
  let gen_pre =
    QCheck.Gen.(
      oneof
        [ gen_assertion;
          map3
            (fun v lb gb ->
              bounds_lg lb gb
                (List.filter
                   (fun (a : int Assertion.atom) ->
                     cert_free a.Assertion.lhs && cert_free a.Assertion.rhs)
                   v)
              |> List.map (fun (a : int Assertion.atom) -> a))
            gen_assertion (oneofl [ low; high ]) (oneofl [ low; high ]) ])
  in
  let gen_write =
    QCheck.Gen.map3
      (fun pre var written ->
        { Interference.stmt = stmt "skip"; pre; var; written })
      gen_pre (QCheck.Gen.oneofl [ "x"; "y"; "z" ]) gen_cexpr
  in
  QCheck.Test.make ~name:"interference kernel agrees with the full obligation"
    ~count:2000
    (QCheck.make QCheck.Gen.(pair gen_assertion gen_write))
    (fun (r, w) -> Interference.preserved two r w = interference_reference two r w)
  |> QCheck_alcotest.to_alcotest

(* Both checkers run the one kernel, and the rest of their rules agree
   too: on the Theorem-1 derivation of a random cobegin under a random
   binding (so many are rejected), the proof checker and the
   certificate checker report the same failures. The certificate
   checker visits a process's writes and assertions in a different
   order, so the lists are compared as multisets. *)
let qcheck_checkers_agree_on_cobegin =
  let lat = Lattice.stringify two in
  let gen =
    QCheck.Gen.(
      map2
        (fun seed salt ->
          let rng = Prng.create seed in
          let branches =
            List.init (2 + Prng.int rng 3) (fun _ ->
                Gen.stmt rng Gen.default ~size:(1 + Prng.int rng 6))
          in
          let body = Ast.cobegin branches in
          let binding =
            Binding.make lat
              (List.map
                 (fun v ->
                   (v, if Hashtbl.hash (salt, v) mod 3 = 0 then "high" else "low"))
                 (Ifc_support.Sset.elements (Ifc_lang.Vars.all_vars body)))
          in
          ({ Ast.decls = []; body }, binding))
        (int_bound 1_000_000) (int_bound 1_000_000))
  in
  let print (p, b) =
    Fmt.str "%s@.binding: %a" (Ifc_lang.Pretty.program_to_string p) Binding.pp b
  in
  QCheck.Test.make ~name:"proof and certificate checkers agree on cobegin" ~count:200
    (QCheck.make ~print gen)
    (fun ((program : Ast.program), binding) ->
      let proof = Generate.theorem1 binding program.Ast.body in
      let of_check =
        match Check.check lat proof with
        | Ok () -> []
        | Error es ->
          List.map (fun (e : Check.error) -> (e.Check.rule, e.Check.reason)) es
      in
      let of_checker =
        match Checker.check (Cert.of_proof ~binding ~program proof) program with
        | Ok () -> []
        | Error fs ->
          List.map (fun (f : Checker.failure) -> (f.Checker.rule, f.Checker.reason)) fs
      in
      List.sort compare of_check = List.sort compare of_checker)
  |> QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Theorem 1 generator *)

let all_two_bindings vars =
  let rec go = function
    | [] -> [ [] ]
    | v :: rest ->
      let tails = go rest in
      List.concat_map (fun t -> [ (v, low) :: t; (v, high) :: t ]) tails
  in
  go vars

let test_generate_simple_certified () =
  let s = stmt "begin x := 1; y := x end" in
  let b = binding [ ("x", low); ("y", high) ] in
  match Invariance.witness b s with
  | Error es -> Alcotest.failf "rejected: %a" (Fmt.list Check.pp_error) es
  | Ok proof ->
    check "completely invariant" true
      (Proof.completely_invariant two ~invariant:(Generate.invariant_of b s) proof)

let test_generate_uncertified_fails_check () =
  let s = stmt "y := x" in
  let b = binding [ ("x", high); ("y", low) ] in
  check "CFM rejects" false (Cfm.certified b s);
  check "generated proof fails the checker" false (Invariance.decide b s)

let test_generate_fig3 () =
  let s = Ifc_core.Paper.fig3.Ast.body in
  let vars = Ifc_core.Paper.fig3_vars in
  (* All-high binding certifies; its Theorem-1 proof must check, cobegin
     interference freedom included. *)
  let b_ok = binding (List.map (fun v -> (v, high)) vars) in
  (match Invariance.witness b_ok s with
  | Ok proof ->
    check "invariant" true
      (Proof.completely_invariant two ~invariant:(Generate.invariant_of b_ok s) proof)
  | Error es -> Alcotest.failf "fig3 all-high rejected: %a" (Fmt.list Check.pp_error) es);
  (* x high, rest low: uncertified, so the proof must fail. *)
  let b_leak = binding (("x", high) :: List.map (fun v -> (v, low)) (List.tl vars)) in
  check "leaky binding fails" false (Invariance.decide b_leak s)

let test_theorem1_all_l_g () =
  (* For a certified S, the proof exists for every l, g with
     l (+) g <= mod(S). For l (+) g not below mod(S) nothing is claimed,
     but our construction may still fail — only check the promised side. *)
  let s = stmt "begin wait(sem); y := 1 end" in
  let b = binding [ ("sem", high); ("y", high) ] in
  let mod_s = Cfm.mod_of b s in
  List.iter
    (fun l ->
      List.iter
        (fun g ->
          if two.Lattice.leq (two.Lattice.join l g) mod_s then
            check
              (Printf.sprintf "l=%s g=%s" (two.Lattice.to_string l) (two.Lattice.to_string g))
              true
              (Invariance.decide_at ~l ~g b s))
        two.Lattice.elements)
    two.Lattice.elements

(* ------------------------------------------------------------------ *)
(* The headline property: Theorems 1 + 2 — generated-proof-checks iff
   CFM-certified, over random programs and bindings. *)

let random_binding rng lattice s =
  let arr = Array.of_list lattice.Lattice.elements in
  let vars = Ifc_lang.Vars.all_vars s in
  Binding.make lattice
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Ifc_support.Sset.elements vars))

let theorem_equivalence_case lattice seed count name =
  Alcotest.test_case name `Quick (fun () ->
      let rng = Prng.create seed in
      let certified = ref 0 in
      for i = 1 to count do
        let p = Gen.program rng Gen.default ~size:(1 + (i mod 25)) in
        let b = random_binding rng lattice p.Ast.body in
        let cert = Cfm.certified b p.Ast.body in
        if cert then incr certified;
        let proof_ok = Invariance.decide b p.Ast.body in
        if cert <> proof_ok then
          Alcotest.failf "divergence (cert=%b proof=%b) on:@.%s@.binding: %a" cert
            proof_ok
            (Ifc_lang.Pretty.program_to_string p)
            Binding.pp b
      done;
      (* Guard against a vacuous test run. *)
      check "some programs certified" true (!certified > 0))

let equivalence_cases =
  [
    theorem_equivalence_case two 101 250 "thm1+2 equivalence (two-point)";
    theorem_equivalence_case Chain.four 202 150 "thm1+2 equivalence (four-chain)";
    theorem_equivalence_case
      (Ifc_lattice.Product.make Chain.two (Ifc_lattice.Powerset.make [ "a"; "b" ]))
      303 150 "thm1+2 equivalence (two x powerset)";
  ]

let test_generated_proofs_completely_invariant () =
  let rng = Prng.create 404 in
  for i = 1 to 100 do
    let p = Gen.program rng Gen.default ~size:(1 + (i mod 20)) in
    let b = random_binding rng two p.Ast.body in
    if Cfm.certified b p.Ast.body then
      match Invariance.witness b p.Ast.body with
      | Error es -> Alcotest.failf "rejected: %a" (Fmt.list Check.pp_error) es
      | Ok proof ->
        check "completely invariant" true
          (Proof.completely_invariant two
             ~invariant:(Generate.invariant_of b p.Ast.body)
             proof)
  done

let test_checker_complete_entailer_agrees () =
  (* On small certified programs the complete entailer must agree with the
     syntactic one. *)
  let rng = Prng.create 505 in
  for i = 1 to 60 do
    let p = Gen.program rng { Gen.default with vars = [ "x"; "y" ]; sems = [ "s" ] }
        ~size:(1 + (i mod 8))
    in
    let b = random_binding rng two p.Ast.body in
    let proof = Generate.theorem1 b p.Ast.body in
    let syntactic = Check.valid ~entailer:`Syntactic two proof in
    let complete = Check.valid ~entailer:`Complete two proof in
    if syntactic <> complete then
      Alcotest.failf "entailer divergence on:@.%s" (Ifc_lang.Pretty.program_to_string p)
  done

let test_proof_size_linear () =
  (* The derivation has O(|S|) rule applications — the efficiency claim
     carries over to proof generation. *)
  let rng = Prng.create 606 in
  List.iter
    (fun size ->
      let p = Gen.program rng Gen.default ~size in
      let b = random_binding rng two p.Ast.body in
      let proof = Generate.theorem1 b p.Ast.body in
      let stmts = (Ifc_lang.Metrics.of_program p).Ifc_lang.Metrics.statements in
      check
        (Printf.sprintf "size %d: %d nodes for %d stmts" size (Proof.size proof) stmts)
        true
        (Proof.size proof <= (3 * stmts) + 3))
    [ 10; 50; 200 ]

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp_smoke () =
  let s = stmt "begin wait(s); y := 1 end" in
  let b = binding [ ("s", low); ("y", low) ] in
  let proof = Generate.theorem1 b s in
  let rendered = Fmt.str "%a" (Proof.pp two) proof in
  check "renders something" true (String.length rendered > 50);
  check "mentions composition" true (contains rendered "composition")

let suite =
  ( "logic",
    [
      Alcotest.test_case "cexpr normalize" `Quick test_cexpr_normalize;
      Alcotest.test_case "cexpr equality" `Quick test_cexpr_equal_modulo_assoc;
      Alcotest.test_case "cexpr simultaneous subst" `Quick test_cexpr_subst_simultaneous;
      Alcotest.test_case "cexpr of_expr" `Quick test_cexpr_of_expr;
      Alcotest.test_case "cexpr eval" `Quick test_cexpr_eval;
      Alcotest.test_case "assertion triple" `Quick test_assertion_triple;
      Alcotest.test_case "assertion triple rejects mixed" `Quick
        test_assertion_triple_rejects_mixed;
      Alcotest.test_case "assertion equal unordered" `Quick test_assertion_equal_unordered;
      Alcotest.test_case "assertion holds" `Quick test_assertion_holds;
      Alcotest.test_case "entail basic" `Quick test_entail_basic;
      Alcotest.test_case "entail chaining" `Quick test_entail_chaining;
      Alcotest.test_case "entail join ub" `Quick test_entail_join_ub;
      Alcotest.test_case "entail cycle safe" `Quick test_entail_cycle_safe;
      Alcotest.test_case "decide complete" `Quick test_decide_complete;
      Alcotest.test_case "decide limit" `Quick test_decide_limit;
      qcheck_entail_sound;
      qcheck_entail_indexed;
      qcheck_assertion_equal;
      Alcotest.test_case "5.2 manual proof checks" `Quick test_check_52_manual_proof;
      Alcotest.test_case "checker rejects bogus axiom" `Quick
        test_check_rejects_bogus_axiom;
      Alcotest.test_case "checker rejects wrong shape" `Quick test_check_rejects_wrong_shape;
      Alcotest.test_case "checker rejects false consequence" `Quick
        test_check_rejects_false_consequence;
      Alcotest.test_case "checker rejects broken iteration" `Quick
        test_check_rejects_mutated_structures;
      Alcotest.test_case "checker rejects composition gaps" `Quick
        test_check_rejects_composition_gaps;
      Alcotest.test_case "checker rejects alternation violations" `Quick
        test_check_rejects_alternation_violations;
      Alcotest.test_case "checker detects interference" `Quick
        test_check_rejects_interference;
      Alcotest.test_case "certificate checker detects interference" `Quick
        test_cert_checker_rejects_interference;
      qcheck_interference_kernel;
      qcheck_checkers_agree_on_cobegin;
      Alcotest.test_case "generate simple certified" `Quick test_generate_simple_certified;
      Alcotest.test_case "generate uncertified fails" `Quick
        test_generate_uncertified_fails_check;
      Alcotest.test_case "generate fig3" `Quick test_generate_fig3;
      Alcotest.test_case "theorem1 all l,g" `Quick test_theorem1_all_l_g;
      Alcotest.test_case "generated proofs completely invariant" `Quick
        test_generated_proofs_completely_invariant;
      Alcotest.test_case "entailers agree on generated proofs" `Quick
        test_checker_complete_entailer_agrees;
      Alcotest.test_case "proof size linear" `Quick test_proof_size_linear;
      Alcotest.test_case "proof pp smoke" `Quick test_pp_smoke;
    ]
    @ equivalence_cases )
