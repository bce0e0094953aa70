(* Tests for the classification-scheme substrate (Definitions 1 and 4). *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Powerset = Ifc_lattice.Powerset
module Product = Ifc_lattice.Product
module Mls = Ifc_lattice.Mls
module Extended = Ifc_lattice.Extended
module Laws = Ifc_lattice.Laws
module Spec = Ifc_lattice.Spec

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Chains *)

let test_two_point () =
  let l = Chain.two in
  check "low <= high" true (l.leq l.bottom l.top);
  check "high <= low fails" false (l.leq l.top l.bottom);
  check_int "join low high" l.top (l.join l.bottom l.top);
  check_int "meet low high" l.bottom (l.meet l.bottom l.top);
  check_string "print low" "low" (l.to_string l.bottom);
  check_string "print high" "high" (l.to_string l.top)

let test_chain_parse () =
  let l = Chain.four in
  (match l.of_string "secret" with
  | Ok c -> check_string "roundtrip" "secret" (l.to_string c)
  | Error e -> Alcotest.fail e);
  check "unknown class rejected" true (Result.is_error (l.of_string "zebra"));
  check_string "known class resolves" "confidential"
    (l.to_string (Lattice.of_string_or_top l "confidential"));
  check "unknown class counts as top" true
    (l.equal l.top (Lattice.of_string_or_top l "zebra"))

let test_chain_order () =
  let l = Chain.four in
  let classes = l.elements in
  check_int "four levels" 4 (List.length classes);
  List.iteri
    (fun i x -> List.iteri (fun j y -> check "total order" (i <= j) (l.leq x y)) classes)
    classes

let test_chain_of_size () =
  let l = Chain.of_size 7 in
  check_int "seven elements" 7 (List.length l.elements);
  check_int "height" 6 (Lattice.height l)

let test_chain_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Chain.make: empty level list") (fun () ->
      ignore (Chain.make []));
  Alcotest.check_raises "duplicates" (Invalid_argument "Chain.make: duplicate level names")
    (fun () -> ignore (Chain.make [ "a"; "a" ]))

(* ------------------------------------------------------------------ *)
(* Powersets *)

let cats = Powerset.make [ "NUC"; "EUR"; "ASI" ]

let test_powerset_basics () =
  let nuc = Powerset.of_categories cats [ "NUC" ] in
  let eur = Powerset.of_categories cats [ "EUR" ] in
  let both = Powerset.of_categories cats [ "NUC"; "EUR" ] in
  check "nuc <= nuc+eur" true (cats.leq nuc both);
  check "nuc <= eur fails" false (cats.leq nuc eur);
  check "incomparable" false (Lattice.comparable cats nuc eur);
  check_int "join" both (cats.join nuc eur);
  check_int "meet" cats.bottom (cats.meet nuc eur);
  check_int "eight elements" 8 (List.length cats.elements)

let test_powerset_strings () =
  let both = Powerset.of_categories cats [ "NUC"; "EUR" ] in
  check_string "print" "{NUC,EUR}" (cats.to_string both);
  (match cats.of_string "{EUR , NUC}" with
  | Ok x -> check_int "parse unordered" both x
  | Error e -> Alcotest.fail e);
  (match cats.of_string "{}" with
  | Ok x -> check_int "parse empty" cats.bottom x
  | Error e -> Alcotest.fail e);
  check "garbage rejected" true (Result.is_error (cats.of_string "NUC"));
  check "unknown category" true (Result.is_error (cats.of_string "{SPACE}"))

let test_powerset_categories_roundtrip () =
  List.iter
    (fun x ->
      let names = Powerset.categories cats x in
      check_int "roundtrip" x (Powerset.of_categories cats names))
    cats.elements

(* ------------------------------------------------------------------ *)
(* Products and MLS *)

let test_product_order () =
  let p = Product.make Chain.two Chain.two in
  let mid1 = (0, 1) and mid2 = (1, 0) in
  check "componentwise" true (p.leq p.bottom mid1);
  check "incomparable mids" false (Lattice.comparable p mid1 mid2);
  check "join of mids is top" true (p.equal (p.join mid1 mid2) p.top);
  check "meet of mids is bottom" true (p.equal (p.meet mid1 mid2) p.bottom);
  check_int "size" 4 (List.length p.elements)

let test_mls_labels () =
  let l = Mls.standard in
  let s_nuc = Mls.label l "secret:{NUC}" in
  let ts_nuc = Mls.label l "topsecret:{NUC}" in
  let s_nuc_eur = Mls.label l "secret:{NUC,EUR}" in
  let c_eur = Mls.label l "confidential:{EUR}" in
  check "level raise" true (l.leq s_nuc ts_nuc);
  check "category widen" true (l.leq s_nuc s_nuc_eur);
  check "cross is incomparable" false (Lattice.comparable l s_nuc c_eur);
  check_string "print" "secret:{NUC}" (l.to_string s_nuc);
  check_int "32 elements" 32 (List.length l.elements)

(* ------------------------------------------------------------------ *)
(* Extended scheme (Definition 4) *)

let test_extended_nil () =
  let e = Extended.make Chain.two in
  check "nil below everything" true (List.for_all (e.leq e.bottom) e.elements);
  check "nothing below nil" true
    (List.for_all
       (fun x -> Extended.is_nil x || not (e.leq x Extended.Nil))
       e.elements);
  check "nil is join identity" true
    (List.for_all (fun x -> e.equal (e.join Extended.Nil x) x) e.elements);
  check "nil absorbs meet" true
    (List.for_all (fun x -> e.equal (e.meet Extended.Nil x) Extended.Nil) e.elements);
  check_int "one extra element" 3 (List.length e.elements);
  check_string "prints nil" "nil" (e.to_string e.bottom);
  (match e.of_string "nil" with
  | Ok x -> check "parses nil" true (Extended.is_nil x)
  | Error err -> Alcotest.fail err);
  match e.of_string "high" with
  | Ok (Extended.El _) -> ()
  | Ok Extended.Nil -> Alcotest.fail "high parsed as nil"
  | Error err -> Alcotest.fail err

let test_extended_preserves_base () =
  let base = Chain.four in
  let e = Extended.make base in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check "order agrees with base" (base.leq x y)
            (e.leq (Extended.lift x) (Extended.lift y)))
        base.elements)
    base.elements

(* ------------------------------------------------------------------ *)
(* Laws *)

let law_cases =
  let checkable name lattice_check =
    Alcotest.test_case ("laws: " ^ name) `Quick (fun () ->
        match lattice_check with
        | Ok () -> ()
        | Error { Laws.law; witness } -> Alcotest.fail (law ^ " violated by " ^ witness))
  in
  [
    checkable "two-point" (Laws.check Chain.two);
    checkable "four-chain" (Laws.check Chain.four);
    checkable "powerset-3" (Laws.check cats);
    checkable "product" (Laws.check (Product.make Chain.two cats));
    checkable "mls-standard" (Laws.check Mls.standard);
    checkable "extended-two" (Laws.check (Extended.make Chain.two));
    checkable "extended-mls" (Laws.check (Extended.make Mls.standard));
    checkable "big-powerset-sampled" (Laws.check ~sample:24 (Powerset.make
      [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "i"; "j"; "k"; "l" ]));
  ]

let test_laws_catch_broken_lattice () =
  (* Sabotage the join of an otherwise fine lattice; the checker must
     report a violation. *)
  let broken = { Chain.two with Lattice.join = (fun _ _ -> 0) } in
  match Laws.check broken with
  | Ok () -> Alcotest.fail "broken lattice passed the law check"
  | Error { Laws.law; _ } ->
    check "a join law fails" true
      (List.mem law [ "join-upper-bound"; "join-least"; "leq-join-consistent" ])

(* ------------------------------------------------------------------ *)
(* Spec parser *)

let diamond_spec =
  {|
# A diamond: bottom < left,right < top
lattice diamond
elements: bottom left right top
order: bottom < left < top
order: bottom < right < top
|}

let test_spec_diamond () =
  match Spec.parse diamond_spec with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check_string "name" "diamond" l.name;
    check_string "bottom elem" "bottom" (l.to_string l.bottom);
    check_string "top elem" "top" (l.to_string l.top);
    check "left/right incomparable" false (Lattice.comparable l "left" "right");
    check_string "join" "top" (l.to_string (l.join "left" "right"));
    check_string "meet" "bottom" (l.to_string (l.meet "left" "right"));
    (match Laws.check l with
    | Ok () -> ()
    | Error { Laws.law; witness } -> Alcotest.fail (law ^ ": " ^ witness))

let test_spec_roundtrip () =
  match Spec.parse diamond_spec with
  | Error e -> Alcotest.fail e
  | Ok l -> (
    match Spec.parse (Spec.to_text l) with
    | Error e -> Alcotest.fail ("reparse failed: " ^ e)
    | Ok l2 ->
      List.iter
        (fun x ->
          List.iter
            (fun y -> check "same order" (l.leq x y) (l2.leq x y))
            l.elements)
        l.elements)

(* MLS element names carry commas ([topsecret:{NUC,ASI}]), which the
   spec's comma-separated lists must not split: the emitted text parses
   back to the same scheme, and re-emits byte for byte. *)
let test_spec_roundtrip_mls () =
  let l = Lattice.stringify Mls.standard in
  let text = Spec.to_text l in
  match Spec.parse text with
  | Error e -> Alcotest.fail ("reparse failed: " ^ e)
  | Ok l2 ->
    Alcotest.(check (list string)) "same elements" l.elements l2.elements;
    List.iter
      (fun x ->
        List.iter
          (fun y ->
            check "same order" (l.leq x y) (l2.leq x y);
            Alcotest.(check string) "same join" (l.join x y) (l2.join x y))
          l.elements)
      l.elements;
    Alcotest.(check string) "re-emitted byte for byte" text (Spec.to_text l2)

let test_spec_errors () =
  let cases =
    [
      ("not a lattice", "lattice l\nelements: a b c\norder: a < b, a < c");
      (* b and c have no upper bound *)
      ("cycle", "lattice l\nelements: a b\norder: a < b, b < a");
      ("undeclared", "lattice l\nelements: a b\norder: a < z");
      ("no elements", "lattice l\norder: a < b");
      ("bad directive", "lattice l\nelements: a\nfoo: bar");
    ]
  in
  List.iter
    (fun (name, text) -> check name true (Result.is_error (Spec.parse text)))
    cases;
  (* A stray '}' leaves the commas after it splitting the clause. *)
  Alcotest.(check (result pass string))
    "stray brace" (Error "l: order mentions undeclared element in a} < b")
    (Spec.parse "lattice l\nelements: a b c d\norder: a} < b, c < d");
  match Spec.parse "lattice l\nelements: a} b c\norder: a} < b, b < c" with
  | Error e -> Alcotest.fail e
  | Ok l -> check_int "stray brace chain height" 2 (Lattice.height l)

let test_spec_single_element () =
  match Spec.parse "lattice one\nelements: only" with
  | Error e -> Alcotest.fail e
  | Ok l ->
    check "bottom = top" true (l.equal l.bottom l.top);
    check_int "height 0" 0 (Lattice.height l)

(* ------------------------------------------------------------------ *)
(* Generic structure helpers *)

let test_covers_and_height () =
  let l = Chain.four in
  check_int "chain covers" 3 (List.length (Lattice.covers l));
  check_int "chain height" 3 (Lattice.height l);
  check_int "powerset height" 3 (Lattice.height cats);
  check_int "powerset covers" 12 (List.length (Lattice.covers cats))

(* The stringified scheme, which looks names up instead of parsing
   them, is the same scheme: same order, joins, meets and covers. *)
let test_stringify_agrees () =
  let l = Mls.standard in
  let s = Lattice.stringify l and name = l.to_string in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          check "leq" (l.leq x y) (s.leq (name x) (name y));
          check_string "join" (name (l.join x y)) (s.join (name x) (name y));
          check_string "meet" (name (l.meet x y)) (s.meet (name x) (name y)))
        l.elements)
    l.elements;
  Alcotest.(check (list (pair string string)))
    "covers, in order"
    (List.map (fun (x, y) -> (name x, name y)) (Lattice.covers l))
    (Lattice.covers s)

let test_dual () =
  let l = Chain.four in
  let d = Lattice.dual l in
  check "leq flipped" true (d.leq l.top l.bottom);
  check "dual bottom is top" true (d.equal d.bottom l.top);
  check "join is meet" true (d.equal (d.join 1 2) (l.meet 1 2));
  (match Laws.check d with
  | Ok () -> ()
  | Error { Laws.law; witness } -> Alcotest.fail (law ^ ": " ^ witness));
  (* Involution: the dual of the dual restores the original order. *)
  let dd = Lattice.dual d in
  List.iter
    (fun x -> List.iter (fun y -> check "involution" (l.leq x y) (dd.leq x y)) l.elements)
    l.elements;
  (* Integrity certification: trusted -> untrusted flows are the ones
     allowed. With confidentiality low=untrusted this flips. *)
  let b =
    Ifc_core.Binding.make d [ ("trusted", l.top); ("untrusted", l.bottom) ]
  in
  let stmt src =
    match Ifc_lang.Parser.parse_stmt src with
    | Ok s -> s
    | Error _ -> Alcotest.fail "parse"
  in
  check "trusted into untrusted ok" true
    (Ifc_core.Cfm.certified b (stmt "untrusted := trusted"));
  check "untrusted into trusted rejected" false
    (Ifc_core.Cfm.certified b (stmt "trusted := untrusted"))

let test_joins_meets_empty () =
  let l = Chain.four in
  check_int "empty join is bottom" l.bottom (Lattice.joins l []);
  check_int "empty meet is top" l.top (Lattice.meets l [])

let test_make_from_order_rejects_nonlattice () =
  let elements = [ "a"; "b"; "c"; "d" ] in
  (* a < c, a < d, b < c, b < d: no lub for a,b; no glb for c,d. *)
  let leq x y =
    String.equal x y
    || match (x, y) with "a", ("c" | "d") | "b", ("c" | "d") -> true | _ -> false
  in
  check "rejected" true
    (Result.is_error
       (Lattice.make_from_order ~name:"m2" ~elements ~leq ~to_string:Fun.id))

(* ------------------------------------------------------------------ *)
(* Property-based: random elements obey the algebra on larger schemes. *)

let qcheck_lattice_props =
  let l = Product.make Chain.four (Powerset.make [ "a"; "b"; "c"; "d" ]) in
  let arr = Array.of_list l.elements in
  let gen_elt = QCheck.map (fun i -> arr.(i mod Array.length arr)) QCheck.small_nat in
  let triple = QCheck.triple gen_elt gen_elt gen_elt in
  [
    QCheck.Test.make ~name:"distributivity (chain x powerset)" ~count:500 triple
      (fun (x, y, z) ->
        l.equal (l.meet x (l.join y z)) (l.join (l.meet x y) (l.meet x z)));
    QCheck.Test.make ~name:"join monotone" ~count:500 triple (fun (x, y, z) ->
        QCheck.assume (l.leq x y);
        l.leq (l.join x z) (l.join y z));
    QCheck.Test.make ~name:"meet monotone" ~count:500 triple (fun (x, y, z) ->
        QCheck.assume (l.leq x y);
        l.leq (l.meet x z) (l.meet y z));
  ]
  |> List.map (QCheck_alcotest.to_alcotest ~long:false)

let suite =
  ( "lattice",
    [
      Alcotest.test_case "two-point basics" `Quick test_two_point;
      Alcotest.test_case "chain parse" `Quick test_chain_parse;
      Alcotest.test_case "chain order" `Quick test_chain_order;
      Alcotest.test_case "chain of_size" `Quick test_chain_of_size;
      Alcotest.test_case "chain invalid" `Quick test_chain_invalid;
      Alcotest.test_case "powerset basics" `Quick test_powerset_basics;
      Alcotest.test_case "powerset strings" `Quick test_powerset_strings;
      Alcotest.test_case "powerset categories roundtrip" `Quick
        test_powerset_categories_roundtrip;
      Alcotest.test_case "product order" `Quick test_product_order;
      Alcotest.test_case "mls labels" `Quick test_mls_labels;
      Alcotest.test_case "extended nil" `Quick test_extended_nil;
      Alcotest.test_case "extended preserves base" `Quick test_extended_preserves_base;
      Alcotest.test_case "laws catch broken lattice" `Quick
        test_laws_catch_broken_lattice;
      Alcotest.test_case "spec diamond" `Quick test_spec_diamond;
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "spec roundtrip mls" `Quick test_spec_roundtrip_mls;
      Alcotest.test_case "spec errors" `Quick test_spec_errors;
      Alcotest.test_case "spec single element" `Quick test_spec_single_element;
      Alcotest.test_case "covers and height" `Quick test_covers_and_height;
      Alcotest.test_case "stringify agrees" `Quick test_stringify_agrees;
      Alcotest.test_case "dual (integrity)" `Quick test_dual;
      Alcotest.test_case "joins/meets of empty" `Quick test_joins_meets_empty;
      Alcotest.test_case "make_from_order rejects non-lattice" `Quick
        test_make_from_order_rejects_nonlattice;
    ]
    @ law_cases @ qcheck_lattice_props )
