(* Tests for the Concurrent Flow Mechanism (Figure 2) and the Denning
   baseline, including every worked example in the paper. *)

module Lattice = Ifc_lattice.Lattice
module Chain = Ifc_lattice.Chain
module Extended = Ifc_lattice.Extended
module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Binding = Ifc_core.Binding
module Cfm = Ifc_core.Cfm
module Denning = Ifc_core.Denning
module Infer = Ifc_core.Infer
module Gen = Ifc_lang.Gen
module Prng = Ifc_support.Prng

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let two = Chain.two

let low = two.Lattice.bottom

let high = two.Lattice.top

let stmt src =
  match Parser.parse_stmt src with
  | Ok s -> s
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let binding pairs = Binding.make two pairs

(* Convenience: extended-flow equality on the two-point lattice. *)
let flow_eq name expected actual =
  let ext = Extended.make two in
  if not (ext.Lattice.equal expected actual) then
    Alcotest.failf "%s: expected flow %s, got %s" name (ext.Lattice.to_string expected)
      (ext.Lattice.to_string actual)

(* ------------------------------------------------------------------ *)
(* Figure 2, construct by construct *)

let test_assign () =
  let b = binding [ ("x", high); ("y", low) ] in
  let s = stmt "x := y" in
  let r = Cfm.analyze b s in
  check "low into high certified" true r.certified;
  check_int "mod = sbind(x)" high r.mod_;
  flow_eq "assign flow" Extended.Nil r.flow;
  let r' = Cfm.analyze b (stmt "y := x") in
  check "high into low rejected" false r'.certified

let test_assign_expr_class () =
  let b = binding [ ("x", high); ("y", low); ("z", low) ] in
  check "join of operands" false (Cfm.certified b (stmt "z := y + x"));
  check "constants are low" true (Cfm.certified b (stmt "z := 1 + 2 * 3"));
  check "high target accepts join" true (Cfm.certified b (stmt "x := y + x"))

let test_skip () =
  let b = binding [] in
  let r = Cfm.analyze b Ast.skip in
  check "skip certified" true r.certified;
  check_int "mod(skip) = top" two.Lattice.top r.mod_;
  flow_eq "flow(skip)" Extended.Nil r.flow

let test_if_local_flow () =
  let b = binding [ ("x", high); ("y", low) ] in
  (* The §2.2 example: if x = 0 then y := 1 transmits x to y. *)
  check "implicit flow rejected" false (Cfm.certified b (stmt "if x = 0 then y := 1"));
  check "high target fine" true
    (Cfm.certified (binding [ ("x", high); ("y", high) ]) (stmt "if x = 0 then y := 1"))

let test_if_mod_is_meet () =
  let b = binding [ ("c", low); ("x", high); ("y", low) ] in
  let r = Cfm.analyze b (stmt "if c = 0 then x := 1 else y := 2") in
  check_int "mod = high meet low" low r.mod_;
  check "certified (c low)" true r.certified;
  let b' = binding [ ("c", high); ("x", high); ("y", low) ] in
  check "rejected via low branch" false
    (Cfm.certified b' (stmt "if c = 0 then x := 1 else y := 2"))

let test_if_flow_propagation () =
  let b = binding [ ("c", high); ("s", high) ] in
  (* A wait inside a branch exports a global flow tainted by the
     condition. *)
  let r = Cfm.analyze b (stmt "if c = 0 then wait(s) else skip") in
  flow_eq "flow = sbind(s)+sbind(c)" (Extended.El high) r.flow;
  let b2 = binding [ ("c", low); ("s", low) ] in
  let r2 = Cfm.analyze b2 (stmt "if c = 0 then wait(s) else skip") in
  flow_eq "flow low" (Extended.El low) r2.flow;
  let r3 = Cfm.analyze b2 (stmt "if c = 0 then x := 1 else skip") in
  flow_eq "no body flow -> nil (condition ignored)" Extended.Nil r3.flow

let test_while_flow () =
  let b = binding [ ("x", high); ("y", low) ] in
  let r = Cfm.analyze b (stmt "while x > 0 do x := x - 1") in
  (* flow = sbind(e) even when the body is flow-free. *)
  flow_eq "loop always flows" (Extended.El high) r.flow;
  check "self-contained high loop certified" true r.certified;
  (* §2.2's loop channel: while x # 0 do skip-ish body modifying y later is
     handled at composition; here the in-loop variant. *)
  check "low var modified under high loop rejected" false
    (Cfm.certified b (stmt "while x > 0 do y := 1"))

let test_while_global_check_catches_sem () =
  (* The paper's §4.2 example: while true do begin y := y + 1; wait(sem)
     end requires sbind(sem) <= sbind(y). *)
  let prog = stmt "while true do begin y := y + 1; wait(sem) end" in
  check "sem high, y low rejected" false
    (Cfm.certified (binding [ ("y", low); ("sem", high) ]) prog);
  check "sem low, y low certified" true
    (Cfm.certified (binding [ ("y", low); ("sem", low) ]) prog);
  check "sem high, y high certified" true
    (Cfm.certified (binding [ ("y", high); ("sem", high) ]) prog)

let test_seq_global_check () =
  (* §4.2: begin wait(sem); y := 1 end certified only if
     sbind(sem) <= sbind(y). *)
  let prog = stmt "begin wait(sem); y := 1 end" in
  check "rejected" false (Cfm.certified (binding [ ("sem", high); ("y", low) ]) prog);
  check "accepted" true (Cfm.certified (binding [ ("sem", high); ("y", high) ]) prog);
  (* Global flows do NOT act backwards: modification before the wait is
     fine. *)
  let before = stmt "begin y := 1; wait(sem) end" in
  check "backwards ok" true (Cfm.certified (binding [ ("sem", high); ("y", low) ]) before)

let test_seq_flow_accumulates () =
  let b = binding [ ("s", low); ("t", high) ] in
  let r = Cfm.analyze b (stmt "begin wait(s); wait(t) end") in
  flow_eq "flow join" (Extended.El high) r.flow;
  (* but s-then-t ordering requires sbind(s) <= sbind(t): ok here. *)
  check "certified" true r.certified;
  let r' = Cfm.analyze b (stmt "begin wait(t); wait(s) end") in
  check "t-then-s rejected (high flow into low sem)" false r'.certified

let test_wait_signal () =
  let b = binding [ ("s", high) ] in
  let rw = Cfm.analyze b (stmt "wait(s)") in
  check "wait certified alone" true rw.certified;
  check_int "mod(wait) = sbind(s)" high rw.mod_;
  flow_eq "flow(wait) = sbind(s)" (Extended.El high) rw.flow;
  let rs = Cfm.analyze b (stmt "signal(s)") in
  check "signal certified" true rs.certified;
  check_int "mod(signal)" high rs.mod_;
  flow_eq "flow(signal) = nil" Extended.Nil rs.flow

let test_cobegin_no_cross_check () =
  (* Parallel composition, unlike sequential, adds no checks: a high wait
     in one branch does not constrain a low assignment in a sibling. *)
  let b = binding [ ("s", high); ("y", low) ] in
  check "parallel certified" true (Cfm.certified b (stmt "cobegin wait(s) || y := 1 coend"));
  check "sequential rejected" false (Cfm.certified b (stmt "begin wait(s); y := 1 end"))

let test_cobegin_flow_and_mod () =
  let b = binding [ ("s", high); ("t", low); ("x", low) ] in
  let r = Cfm.analyze b (stmt "cobegin wait(s) || wait(t) || x := 1 coend") in
  flow_eq "flow joins branches" (Extended.El high) r.flow;
  check_int "mod is meet" low r.mod_

let test_cobegin_inside_seq_exports_flow () =
  (* The cobegin's flow participates in an enclosing composition. *)
  let b = binding [ ("s", high); ("y", low) ] in
  check "flow escapes cobegin" false
    (Cfm.certified b (stmt "begin cobegin wait(s) || skip coend; y := 1 end"))

(* ------------------------------------------------------------------ *)
(* §2.2 global-flow examples *)

let test_loop_termination_channel () =
  (* while x # 0 do x := x - 1;  z := 1  — z reveals termination, i.e. x. *)
  let prog = stmt "begin while x # 0 do x := x - 1; z := 1 end" in
  let b = binding [ ("x", high); ("z", low) ] in
  check "CFM catches termination channel" false (Cfm.certified b prog);
  check "Denning misses it" true (Denning.certified ~on_concurrency:`Ignore b prog);
  check "CFM accepts when z is high" true
    (Cfm.certified (binding [ ("x", high); ("z", high) ]) prog)

let test_loop_channel_inner_y () =
  (* The full §2.2 fragment also assigns y inside the loop: y := y + 1 is
     modified under the high condition, caught by the while check. *)
  let prog = stmt "begin while x # 0 do begin y := y + 1; x := x - 1 end; z := 1 end" in
  let b = binding [ ("x", high); ("y", low); ("z", low) ] in
  let r = Cfm.analyze b prog in
  check "rejected" false r.certified;
  check "several failures" true (List.length (Cfm.failed_checks r) >= 2)

let test_semaphore_channel () =
  (* cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end
     coend transmits x to y (§2.2). *)
  let prog =
    stmt "cobegin if x = 0 then signal(sem) || begin wait(sem); y := 0 end coend"
  in
  let b = binding [ ("x", high); ("sem", high); ("y", low) ] in
  check "CFM rejects" false (Cfm.certified b prog);
  check "Denning(ignore) misses" true (Denning.certified ~on_concurrency:`Ignore b prog);
  (* With sem low the leak is pushed to the if-check instead. *)
  let b2 = binding [ ("x", high); ("sem", low); ("y", low) ] in
  check "still rejected via if-check" false (Cfm.certified b2 prog);
  (* All-high is fine. *)
  let b3 = binding [ ("x", high); ("sem", high); ("y", high) ] in
  check "all-high certified" true (Cfm.certified b3 prog)

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

let fig3 () = Ifc_core.Paper.fig3

let fig3_binding pairs = Binding.make two pairs

let fig3_all names cls = List.map (fun n -> (n, cls)) names

let fig3_vars = [ "x"; "y"; "m"; "modify"; "modified"; "read"; "done" ]

let test_fig3_rejects_high_to_low () =
  (* sbind(x) = high, everything else low: the synchronization leak from x
     to y must be caught. *)
  let b = fig3_binding (("x", high) :: fig3_all [ "y"; "m"; "modify"; "modified"; "read"; "done" ] low) in
  check "rejected" false (Cfm.certified b (fig3 ()).body)

let test_fig3_certifies_all_high () =
  let b = fig3_binding (fig3_all fig3_vars high) in
  check "all high certified" true (Cfm.certified b (fig3 ()).body)

let test_fig3_certifies_all_low () =
  let b = fig3_binding (fig3_all fig3_vars low) in
  check "all low certified" true (Cfm.certified b (fig3 ()).body)

let test_fig3_denning_misses_leak () =
  let b = fig3_binding (("x", high) :: fig3_all [ "y"; "m"; "modify"; "modified"; "read"; "done" ] low) in
  (* Denning's checks see only the two ifs, whose bodies modify only
     high-bindable semaphores... with all sems low the if-check fails; so
     give Denning the configuration where its checks all pass: sems high
     enough for the if but no global tracking. *)
  let b2 =
    fig3_binding
      (("x", high) :: ("modify", high) :: ("modified", high)
      :: fig3_all [ "y"; "m"; "read"; "done" ] low)
  in
  ignore b;
  check "Denning certifies the leaky binding" true
    (Denning.certified ~on_concurrency:`Ignore b2 (fig3 ()).body);
  check "CFM rejects the same binding" false (Cfm.certified b2 (fig3 ()).body)

let test_fig3_necessary_conditions () =
  (* §4.3: certification requires sbind(x) <= sbind(modify),
     sbind(modify) <= sbind(m), sbind(m) <= sbind(y); hence any certified
     binding has sbind(x) <= sbind(y). Enumerate all 2^7 two-point
     bindings and check the implication. *)
  let p = fig3 () in
  let rec all_bindings = function
    | [] -> [ [] ]
    | v :: rest ->
      let tails = all_bindings rest in
      List.concat_map (fun t -> [ (v, low) :: t; (v, high) :: t ]) tails
  in
  let sbind pairs v = List.assoc v pairs in
  let count = ref 0 in
  List.iter
    (fun pairs ->
      let b = fig3_binding pairs in
      if Cfm.certified b p.body then begin
        incr count;
        check "x <= modify" true (two.Lattice.leq (sbind pairs "x") (sbind pairs "modify"));
        check "modify <= m" true (two.Lattice.leq (sbind pairs "modify") (sbind pairs "m"));
        check "m <= y" true (two.Lattice.leq (sbind pairs "m") (sbind pairs "y"));
        check "x <= y (the leak)" true (two.Lattice.leq (sbind pairs "x") (sbind pairs "y"))
      end)
    (all_bindings fig3_vars);
  check "some bindings certify" true (!count > 0)

let test_fig3_inference_matches_paper () =
  (* Fix sbind(x) = high; the least certifying binding must raise modify,
     m and y to high — exactly the §4.3 chain. *)
  let p = fig3 () in
  match Infer.infer two ~fixed:[ ("x", high) ] p with
  | Error _ -> Alcotest.fail "inference failed"
  | Ok b ->
    check_int "modify raised" high (Binding.sbind b "modify");
    check_int "m raised" high (Binding.sbind b "m");
    check_int "y raised" high (Binding.sbind b "y");
    check "result certifies" true (Cfm.certified b p.body)

(* ------------------------------------------------------------------ *)
(* §5.2 relative strength *)

let test_52_example_rejected () =
  (* begin x := 0; y := x end with x high, y low: semantically secure but
     CFM-rejected (the logic can prove it; see Test_logic). *)
  let b = binding [ ("x", high); ("y", low) ] in
  check "CFM rejects" false (Cfm.certified b (stmt "begin x := 0; y := x end"))

(* ------------------------------------------------------------------ *)
(* self_check option (j <= i reading) *)

let test_self_check_stricter () =
  (* A statement whose own flow exceeds its own mod: certifiable under
     j < i, rejected under j <= i once placed in a composition. *)
  (* if c then wait(s) else x := 1 with c,x low and s high: every Figure 2
     check passes (mod = low >= sbind(c)), yet flow(S) = high > mod(S) —
     the readings differ exactly here. *)
  let b = binding [ ("c", low); ("x", low); ("s", high) ] in
  let s = stmt "begin if c = 0 then wait(s) else x := 1 end" in
  check "default reading accepts" true (Cfm.certified b s);
  check "strict reading rejects" false (Cfm.certified ~self_check:true b s)

let test_self_check_subset_property =
  let count = 300 in
  fun () ->
    let rng = Prng.create 77 in
    let classes = [| low; high |] in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 30)) in
      let vars = Ifc_lang.Vars.all_vars p.body in
      let pairs =
        List.map (fun v -> (v, classes.(Prng.int rng 2))) (Ifc_support.Sset.elements vars)
      in
      let b = binding pairs in
      if Cfm.certified ~self_check:true b p.body then
        check "strict implies default" true (Cfm.certified b p.body)
    done

(* ------------------------------------------------------------------ *)
(* CFM vs Denning: containment, and agreement on the sequential loop-free
   fragment. *)

let random_binding rng lattice p =
  let arr = Array.of_list lattice.Lattice.elements in
  let vars = Ifc_lang.Vars.all_vars p.Ast.body in
  Binding.make lattice
    (List.map
       (fun v -> (v, arr.(Prng.int rng (Array.length arr))))
       (Ifc_support.Sset.elements vars))

let test_cfm_subset_of_denning =
  let count = 300 in
  fun () ->
    let rng = Prng.create 123 in
    let four = Chain.four in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 40)) in
      let b = random_binding rng four p in
      if Cfm.certified b p.body then
        check "CFM certified implies Denning(ignore) certified" true
          (Denning.certified ~on_concurrency:`Ignore b p.body)
    done

let test_agree_on_loopfree_sequential =
  let count = 300 in
  fun () ->
    let rng = Prng.create 321 in
    let cfg = { Gen.sequential with allow_loops = false } in
    for i = 1 to count do
      let p = Gen.program rng cfg ~size:(1 + (i mod 40)) in
      let b = random_binding rng two p in
      check "identical verdicts" (Denning.certified ~on_concurrency:`Ignore b p.body)
        (Cfm.certified b p.body)
    done

let test_denning_reject_mode () =
  let b = binding [ ("s", low) ] in
  let r = Denning.analyze ~on_concurrency:`Reject b (stmt "cobegin wait(s) || skip coend") in
  check "rejected" false r.certified;
  check_int "two offending constructs" 2 (List.length r.rejected_constructs);
  let r' = Denning.analyze ~on_concurrency:`Reject b (stmt "x := 1") in
  check "sequential fine" true r'.certified

(* ------------------------------------------------------------------ *)
(* analyze/certified agreement; analyze_program; failed_checks *)

let test_analyze_agrees_with_certified =
  let count = 500 in
  fun () ->
    let rng = Prng.create 999 in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 50)) in
      let b = random_binding rng Chain.four p in
      let r = Cfm.analyze b p.body in
      check "same verdict" (Cfm.certified b p.body) r.certified;
      check "verdict = no failed checks" (Cfm.failed_checks r = []) r.certified
    done

let test_mod_flow_match_analysis =
  let count = 200 in
  fun () ->
    let rng = Prng.create 555 in
    let ext = Extended.make Chain.four in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 30)) in
      let b = random_binding rng Chain.four p in
      let r = Cfm.analyze b p.body in
      check_int "mod agrees" (Cfm.mod_of b p.body) r.mod_;
      check "flow agrees" true (ext.Lattice.equal (Cfm.flow_of b p.body) r.flow)
    done

(* ------------------------------------------------------------------ *)
(* Inference *)

let test_infer_least_and_certifying =
  let count = 200 in
  fun () ->
    let rng = Prng.create 2024 in
    let four = Chain.four in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 25)) in
      match Infer.infer four ~fixed:[] p with
      | Error _ -> Alcotest.fail "unconstrained inference cannot fail"
      | Ok b -> check "inferred binding certifies" true (Cfm.certified b p.body)
    done

let test_infer_conflict () =
  let p =
    Ifc_lang.Wellformed.infer_decls
      (Ast.program (stmt "y := x"))
  in
  match Infer.infer two ~fixed:[ ("x", high); ("y", low) ] p with
  | Ok _ -> Alcotest.fail "expected a conflict"
  | Error c ->
    check_int "violating class" high c.actual;
    check_int "allowed" low c.allowed

let test_constraints_equiv_cert =
  (* The symbolic constraints are exactly CFM: for random programs and
     random bindings, all-constraints-satisfied iff certified. *)
  let count = 400 in
  fun () ->
    let rng = Prng.create 31337 in
    let four = Chain.four in
    for i = 1 to count do
      let p = Gen.program rng Gen.default ~size:(1 + (i mod 30)) in
      let b = random_binding rng four p in
      let cs = Infer.constraints p.body in
      let atom_value = function
        | Infer.Const_low -> four.Lattice.bottom
        | Infer.Const_named c -> Result.value ~default:four.Lattice.top (four.Lattice.of_string c)
        | Infer.Class v -> Binding.sbind b v
      in
      let satisfied =
        List.for_all
          (fun (c : Infer.constr) ->
            four.Lattice.leq
              (Lattice.joins four (List.map atom_value c.lhs))
              (Binding.sbind b c.rhs))
          cs
      in
      check "constraints iff certified" (Cfm.certified b p.body) satisfied
    done

let test_fig3_symbolic_requirements () =
  let p = fig3 () in
  let cs = Infer.constraints p.body in
  let rendered = List.map (Fmt.str "%a" Infer.pp_constr) cs in
  let mem needle = List.exists (fun s -> String.equal s needle) rendered in
  check "x <= modify present" true (mem "sbind(x) <= sbind(modify)");
  check "modify <= m present" true (mem "sbind(modify) <= sbind(m)");
  check "m <= y present" true (mem "sbind(read) <= sbind(y)" || mem "sbind(m) <= sbind(y)")

(* ------------------------------------------------------------------ *)
(* Golden check list: every Figure 2 rule in one program, pinned in the
   order Cfm.analyze records the checks (a node's own checks after its
   children's; a block's Seq_global checks after all its components)
   under both readings of the composition rule. *)

let golden_src =
  {|var l, d : integer class low;
    h : integer class high;
    a : array(4) class high;
    s : semaphore initially(0) class low;
    t : semaphore initially(0) class high;
    c : channel(1) class low;
begin
  l := l + 1;
  d := declassify h to low;
  a[l] := h;
  if l > 0 then send(c, l) else recv(c, h);
  while l < 3 do l := l + 1;
  cobegin wait(s) || signal(s) || wait(t) coend;
  h := l;
  while h > 0 do l := 1
end|}

let golden_checks ~self_check =
  let p =
    match Parser.parse_program golden_src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e
  in
  let b =
    match Binding.of_program two p with
    | Ok b -> b
    | Error e -> Alcotest.failf "binding: %s" e
  in
  let ext = Extended.make two in
  List.map
    (fun (c : int Cfm.check) ->
      Fmt.str "%s | %a | %s <= %s | %b" (Cfm.rule_name c.rule) Ifc_lang.Loc.pp c.span
        (ext.Lattice.to_string c.lhs) (two.Lattice.to_string c.rhs) c.ok)
    (Cfm.analyze_program ~self_check b p).checks

let golden_default =
  [
    "assign: sbind(e) <= sbind(x) | line 8, cols 3-13 | low <= low | true";
    "declassify: C <= sbind(x) | line 9, cols 3-27 | low <= low | true";
    "store: sbind(i) (+) sbind(e) <= sbind(a) | line 10, cols 3-12 | high <= high | true";
    "send: sbind(e) <= sbind(c) | line 11, cols 17-27 | low <= low | true";
    "recv: sbind(c) <= sbind(x) | line 11, cols 33-43 | low <= high | true";
    "if: sbind(e) <= mod(S) | line 11, cols 3-43 | low <= low | true";
    "assign: sbind(e) <= sbind(x) | line 12, cols 18-28 | low <= low | true";
    "while: flow(S) <= mod(S1) | line 12, cols 3-28 | low <= low | true";
    "assign: sbind(e) <= sbind(x) | line 14, cols 3-9 | low <= high | true";
    "assign: sbind(e) <= sbind(x) | line 15, cols 18-24 | low <= low | true";
    "while: flow(S) <= mod(S1) | line 15, cols 3-24 | high <= low | false";
    "begin: flow(S1..S1) <= mod(S2) | line 9, cols 3-27 | nil <= low | true";
    "begin: flow(S1..S2) <= mod(S3) | line 10, cols 3-12 | nil <= high | true";
    "begin: flow(S1..S3) <= mod(S4) | line 11, cols 3-43 | nil <= low | true";
    "begin: flow(S1..S4) <= mod(S5) | line 12, cols 3-28 | low <= low | true";
    "begin: flow(S1..S5) <= mod(S6) | line 13, cols 3-48 | low <= low | true";
    "begin: flow(S1..S6) <= mod(S7) | line 14, cols 3-9 | high <= high | true";
    "begin: flow(S1..S7) <= mod(S8) | line 15, cols 3-24 | high <= low | false";
  ]

(* Under the literal reading each component's own flow joins the prefix
   before its check: S1 is checked too, and the cobegin's high wait
   fails against its own low mod. *)
let golden_self_check =
  [
    "assign: sbind(e) <= sbind(x) | line 8, cols 3-13 | low <= low | true";
    "declassify: C <= sbind(x) | line 9, cols 3-27 | low <= low | true";
    "store: sbind(i) (+) sbind(e) <= sbind(a) | line 10, cols 3-12 | high <= high | true";
    "send: sbind(e) <= sbind(c) | line 11, cols 17-27 | low <= low | true";
    "recv: sbind(c) <= sbind(x) | line 11, cols 33-43 | low <= high | true";
    "if: sbind(e) <= mod(S) | line 11, cols 3-43 | low <= low | true";
    "assign: sbind(e) <= sbind(x) | line 12, cols 18-28 | low <= low | true";
    "while: flow(S) <= mod(S1) | line 12, cols 3-28 | low <= low | true";
    "assign: sbind(e) <= sbind(x) | line 14, cols 3-9 | low <= high | true";
    "assign: sbind(e) <= sbind(x) | line 15, cols 18-24 | low <= low | true";
    "while: flow(S) <= mod(S1) | line 15, cols 3-24 | high <= low | false";
    "begin: flow(S1..S0) <= mod(S1) | line 8, cols 3-13 | nil <= low | true";
    "begin: flow(S1..S1) <= mod(S2) | line 9, cols 3-27 | nil <= low | true";
    "begin: flow(S1..S2) <= mod(S3) | line 10, cols 3-12 | nil <= high | true";
    "begin: flow(S1..S3) <= mod(S4) | line 11, cols 3-43 | low <= low | true";
    "begin: flow(S1..S4) <= mod(S5) | line 12, cols 3-28 | low <= low | true";
    "begin: flow(S1..S5) <= mod(S6) | line 13, cols 3-48 | high <= low | false";
    "begin: flow(S1..S6) <= mod(S7) | line 14, cols 3-9 | high <= high | true";
    "begin: flow(S1..S7) <= mod(S8) | line 15, cols 3-24 | high <= low | false";
  ]

let test_golden_check_order () =
  Alcotest.(check (list string))
    "j < i reading" golden_default (golden_checks ~self_check:false);
  Alcotest.(check (list string))
    "j <= i reading" golden_self_check (golden_checks ~self_check:true)

let suite =
  ( "cfm",
    [
      Alcotest.test_case "assign" `Quick test_assign;
      Alcotest.test_case "assign expression class" `Quick test_assign_expr_class;
      Alcotest.test_case "skip" `Quick test_skip;
      Alcotest.test_case "if local flow" `Quick test_if_local_flow;
      Alcotest.test_case "if mod is meet" `Quick test_if_mod_is_meet;
      Alcotest.test_case "if flow propagation" `Quick test_if_flow_propagation;
      Alcotest.test_case "while flow" `Quick test_while_flow;
      Alcotest.test_case "while global check (paper 4.2)" `Quick
        test_while_global_check_catches_sem;
      Alcotest.test_case "seq global check (paper 4.2)" `Quick test_seq_global_check;
      Alcotest.test_case "seq flow accumulates" `Quick test_seq_flow_accumulates;
      Alcotest.test_case "wait/signal" `Quick test_wait_signal;
      Alcotest.test_case "cobegin no cross-check" `Quick test_cobegin_no_cross_check;
      Alcotest.test_case "cobegin flow and mod" `Quick test_cobegin_flow_and_mod;
      Alcotest.test_case "cobegin flow escapes to seq" `Quick
        test_cobegin_inside_seq_exports_flow;
      Alcotest.test_case "2.2 loop termination channel" `Quick test_loop_termination_channel;
      Alcotest.test_case "2.2 loop channel inner" `Quick test_loop_channel_inner_y;
      Alcotest.test_case "2.2 semaphore channel" `Quick test_semaphore_channel;
      Alcotest.test_case "fig3 rejects high-to-low" `Quick test_fig3_rejects_high_to_low;
      Alcotest.test_case "fig3 all high certified" `Quick test_fig3_certifies_all_high;
      Alcotest.test_case "fig3 all low certified" `Quick test_fig3_certifies_all_low;
      Alcotest.test_case "fig3 Denning misses leak" `Quick test_fig3_denning_misses_leak;
      Alcotest.test_case "fig3 necessary conditions (4.3)" `Quick
        test_fig3_necessary_conditions;
      Alcotest.test_case "fig3 inference matches paper" `Quick
        test_fig3_inference_matches_paper;
      Alcotest.test_case "5.2 example rejected by CFM" `Quick test_52_example_rejected;
      Alcotest.test_case "self_check stricter" `Quick test_self_check_stricter;
      Alcotest.test_case "self_check subset (qcheck-style)" `Quick
        test_self_check_subset_property;
      Alcotest.test_case "CFM subset of Denning" `Quick test_cfm_subset_of_denning;
      Alcotest.test_case "agree on loop-free sequential" `Quick
        test_agree_on_loopfree_sequential;
      Alcotest.test_case "Denning reject mode" `Quick test_denning_reject_mode;
      Alcotest.test_case "analyze agrees with certified" `Quick
        test_analyze_agrees_with_certified;
      Alcotest.test_case "mod/flow match analysis" `Quick test_mod_flow_match_analysis;
      Alcotest.test_case "infer certifies" `Quick test_infer_least_and_certifying;
      Alcotest.test_case "infer conflict" `Quick test_infer_conflict;
      Alcotest.test_case "constraints iff certified" `Quick test_constraints_equiv_cert;
      Alcotest.test_case "fig3 symbolic requirements" `Quick
        test_fig3_symbolic_requirements;
      Alcotest.test_case "golden check order" `Quick test_golden_check_order;
    ] )
