(* Tests for the static concurrency analyzer: MHP structure and
   handshake refinement, race detection, semaphore liveness, guard
   lints, the dynamic race witness they are cross-checked against, and
   the soundness property tying static claims to complete exploration. *)

module Ast = Ifc_lang.Ast
module Parser = Ifc_lang.Parser
module Gen = Ifc_lang.Gen
module Paper = Ifc_core.Paper
module Mhp = Ifc_analysis.Mhp
module Semlive = Ifc_analysis.Semlive
module Guards = Ifc_analysis.Guards
module Finding = Ifc_analysis.Finding
module Analyze = Ifc_analysis.Analyze
module Explore = Ifc_exec.Explore
module Wellformed = Ifc_lang.Wellformed
module Pretty = Ifc_lang.Pretty
module Prune = Ifc_dataflow.Prune
module Prng = Ifc_support.Prng
module Smap = Ifc_support.Smap
module Sset = Ifc_support.Sset
module Arb = Qcheck_arbitrary

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let program src =
  match Parser.parse_program src with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %a" Parser.pp_error e

let kinds report =
  List.map (fun (f : Finding.t) -> Finding.kind_name f.Finding.kind)
    report.Analyze.findings

let relation =
  Alcotest.testable
    (fun ppf r ->
      Fmt.string ppf
        (match r with
        | Mhp.Equal -> "equal"
        | Mhp.Before -> "before"
        | Mhp.After -> "after"
        | Mhp.Parallel -> "parallel"
        | Mhp.Exclusive -> "exclusive"))
    ( = )

(* ------------------------------------------------------------------ *)
(* MHP structure *)

let test_mhp_relations () =
  let t =
    Mhp.create
      (program
         {|var x, y, z : integer;
           begin
             x := 1;
             cobegin y := 1 || z := 1 coend;
             if x = 0 then y := 2 else z := 2 fi
           end|})
  in
  let relate p q = Mhp.relate t (Mhp.node t p) (Mhp.node t q) in
  Alcotest.check relation "seq orders" Mhp.Before (relate [ 0 ] [ 1 ]);
  Alcotest.check relation "seq orders (flip)" Mhp.After (relate [ 1 ] [ 0 ]);
  Alcotest.check relation "cobegin branches are parallel" Mhp.Parallel
    (relate [ 1; 0 ] [ 1; 1 ]);
  Alcotest.check relation "if arms are exclusive" Mhp.Exclusive
    (relate [ 2; 0 ] [ 2; 1 ]);
  Alcotest.check relation "guard read precedes its arm" Mhp.Before
    (relate [ 2 ] [ 2; 0 ]);
  Alcotest.check relation "equal" Mhp.Equal (relate [ 1; 0 ] [ 1; 0 ]);
  Alcotest.check relation "across constructs via seq" Mhp.Before
    (relate [ 1; 0 ] [ 2; 1 ])

let test_mhp_accesses () =
  let t =
    Mhp.create
      (program
         "var x, y : integer; a : array(4);\n\
          begin x := y + 1; a[x] := 2; while y < 3 do y := y + 1 end")
  in
  (* x:=y+1 -> write x, read y; a(x):=2 -> write a, read x;
     while guard -> read y; body -> write y, read y. *)
  check_int "access count" 7 (List.length (Mhp.accesses t));
  let writes =
    List.filter (fun (a : Mhp.access) -> a.Mhp.write) (Mhp.accesses t)
  in
  Alcotest.(check (list string))
    "write targets" [ "x"; "a"; "y" ]
    (List.map (fun (a : Mhp.access) -> a.Mhp.var) writes)

(* ------------------------------------------------------------------ *)
(* Handshake refinement *)

let handshake_src =
  {|var x, y : integer; s : semaphore initially(0);
    cobegin
      begin x := 1; signal(s) end
      || begin wait(s); y := x end
    coend|}

let test_handshake_orders () =
  let t = Mhp.create (program handshake_src) in
  (* x := 1 at [0;0], signal at [0;1], wait at [1;0], y := x at [1;1]. *)
  let x1 = Mhp.node t [ 0; 0 ] and yx = Mhp.node t [ 1; 1 ] in
  check "x:=1 precedes y:=x through the handshake" true
    (Mhp.handshake_ordered t x1 yx);
  check "so the pair is not MHP" false (Mhp.may_happen_in_parallel t x1 yx);
  check "no reverse edge" false (Mhp.handshake_ordered t yx x1);
  (* The wait itself is not ordered after the signal's predecessor by
     anything but the handshake; unrelated parallel points stay MHP. *)
  check "signal and wait sites are not data accesses" true
    (List.for_all
       (fun (a : Mhp.access) -> a.Mhp.var <> "s")
       (Mhp.accesses t))

let test_handshake_suppresses_race () =
  let r = Analyze.run (program handshake_src) in
  Alcotest.(check (list string)) "no findings" [] (kinds r);
  check "race_free" true r.Analyze.claims.Analyze.race_free;
  (* The wait is not covered by the initial count, so the analyzer will
     not claim the program free of transient blocking. *)
  check "not claimed deadlock_free" false
    r.Analyze.claims.Analyze.deadlock_free;
  check "not must_block" false r.Analyze.claims.Analyze.must_block

let test_nonzero_init_breaks_eligibility () =
  (* With initially(1) the wait can be satisfied by the initial unit, so
     the handshake proves nothing and the race must be reported. *)
  let src =
    {|var x, y : integer; s : semaphore initially(1);
      cobegin
        begin x := 1; signal(s) end
        || begin wait(s); y := x end
      coend|}
  in
  let r = Analyze.run (program src) in
  check "race reported" true (List.mem "race" (kinds r));
  check "not race_free" false r.Analyze.claims.Analyze.race_free

let test_looping_site_breaks_eligibility () =
  (* A signal site under a while makes the semaphore ineligible: a unit
     from an earlier iteration could satisfy the wait. *)
  let src =
    {|var x, y, i : integer; s : semaphore initially(0);
      cobegin
        while i < 2 do begin x := 1; signal(s); i := i + 1 end
        || begin wait(s); y := x end
      coend|}
  in
  let r = Analyze.run (program src) in
  check "race reported" true (List.mem "race" (kinds r))

let test_plain_race_detected () =
  let r =
    Analyze.run
      (program "var x : integer; cobegin x := 1 || x := 2 coend")
  in
  check "write/write race" true (List.mem "race" (kinds r));
  check "not race_free" false r.Analyze.claims.Analyze.race_free;
  let f =
    List.find
      (fun (f : Finding.t) -> f.Finding.kind = Finding.Race)
      r.Analyze.findings
  in
  check "race carries the second endpoint" true (f.Finding.related <> None)

let test_exclusive_arms_do_not_race () =
  let r =
    Analyze.run
      (program
         "var x, e : integer; if e = 0 then x := 1 else x := 2 fi")
  in
  check "no race between if arms" false (List.mem "race" (kinds r))

(* ------------------------------------------------------------------ *)
(* Semaphore liveness *)

let test_guaranteed_deadlock () =
  let r =
    Analyze.run
      (program
         {|var x : integer; s : semaphore initially(0);
           begin wait(s); x := 1 end|})
  in
  check "deadlock reported" true (List.mem "deadlock" (kinds r));
  check "must_block" true r.Analyze.claims.Analyze.must_block;
  check "not deadlock_free" false r.Analyze.claims.Analyze.deadlock_free;
  let f =
    List.find
      (fun (f : Finding.t) -> f.Finding.kind = Finding.Deadlock)
      r.Analyze.findings
  in
  check "deadlock is an error" true (f.Finding.severity = Finding.Error)

let test_initial_count_covers_wait () =
  let r =
    Analyze.run
      (program
         {|var x : integer; s : semaphore initially(2);
           begin wait(s); x := 1 end|})
  in
  check "no deadlock finding" false (List.mem "deadlock" (kinds r));
  check "deadlock_free" true r.Analyze.claims.Analyze.deadlock_free

let test_lost_signal () =
  let r =
    Analyze.run
      (program
         "var x : integer; s : semaphore initially(0);\n\
          begin x := 1; signal(s) end")
  in
  check "lost signal reported" true (List.mem "lost-signal" (kinds r))

let test_if_imbalance () =
  let r =
    Analyze.run
      (program
         {|var e : integer; s : semaphore initially(1);
           cobegin
             begin if e = 0 then signal(s) else skip fi end
             || wait(s)
           coend|})
  in
  check "imbalance reported" true (List.mem "imbalance" (kinds r))

let test_loop_synchronization_imbalance () =
  let r =
    Analyze.run
      (program
         {|var i : integer; s : semaphore initially(0);
           while i < 3 do begin signal(s); i := i + 1 end|})
  in
  check "loop synchronization reported" true (List.mem "imbalance" (kinds r))

let test_usages_interval () =
  let p =
    program
      {|var i, e : integer; s : semaphore initially(0);
        begin
          while i < 2 do wait(s);
          if e = 0 then signal(s) else skip fi
        end|}
  in
  let u = Smap.find "s" (Semlive.usages p.Ast.body) in
  check_int "loop wait_min is 0" 0 u.Semlive.wait_min;
  check "loop wait_max is unbounded" true (u.Semlive.wait_max = Semlive.Inf);
  check_int "branch signal_min is 0" 0 u.Semlive.signal_min;
  check "branch signal_max is 1" true (u.Semlive.signal_max = Semlive.Fin 1)

(* ------------------------------------------------------------------ *)
(* Channel lint *)

let test_chan_starved_recv () =
  let r =
    Analyze.run
      (program "var x : integer; c : channel(1); begin recv(c, x) end")
  in
  check "chan-deadlock reported" true (List.mem "chan-deadlock" (kinds r));
  check "must_block" true r.Analyze.claims.Analyze.must_block;
  check "not chan_deadlock_free" false
    r.Analyze.claims.Analyze.chan_deadlock_free;
  check "not deadlock_free" false r.Analyze.claims.Analyze.deadlock_free;
  let f =
    List.find
      (fun (f : Finding.t) -> f.Finding.kind = Finding.Chan_deadlock)
      r.Analyze.findings
  in
  check "starved recv is an error" true (f.Finding.severity = Finding.Error)

let test_chan_orphan_send () =
  let r =
    Analyze.run
      (program "var x : integer; c : channel(1); begin send(c, x) end")
  in
  check "orphan-message reported" true (List.mem "orphan-message" (kinds r));
  (* One send into capacity 1 never blocks and nobody receives: this is
     the only shape whose conservative channel-deadlock-freedom claim
     survives. *)
  check "chan_deadlock_free" true r.Analyze.claims.Analyze.chan_deadlock_free;
  check "not must_block" false r.Analyze.claims.Analyze.must_block

let test_chan_prodcons_clean () =
  let r =
    Analyze.run
      (program
         {|var x, y : integer; c : channel(1);
           cobegin send(c, x) || recv(c, y) coend|})
  in
  Alcotest.(check (list string)) "no findings" [] (kinds r);
  check "chan_race_free" true r.Analyze.claims.Analyze.chan_race_free;
  (* The recv may transiently block waiting for the send, so the
     conservative deadlock-freedom claim is withheld without a finding. *)
  check "deadlock-freedom withheld" false
    r.Analyze.claims.Analyze.chan_deadlock_free

let test_chan_contention () =
  let r =
    Analyze.run
      (program
         {|var x, y, z : integer; c : channel(2);
           cobegin send(c, x) || send(c, y) || begin recv(c, z); recv(c, z) end coend|})
  in
  check "chan-race reported" true (List.mem "chan-race" (kinds r));
  check "not chan_race_free" false r.Analyze.claims.Analyze.chan_race_free

let test_chan_overflow () =
  let r =
    Analyze.run
      (program
         {|var x : integer; c : channel(1);
           begin send(c, x); send(c, x) end|})
  in
  check "chan-deadlock reported" true (List.mem "chan-deadlock" (kinds r));
  check "must_block" true r.Analyze.claims.Analyze.must_block

let test_chan_summaries () =
  let r =
    Analyze.run
      (program
         {|var x, y : integer; c : channel(3) class low;
           cobegin send(c, x) || recv(c, y) coend|})
  in
  match r.Analyze.channels with
  | [ s ] ->
    Alcotest.(check string) "name" "c" s.Ifc_chan.Lint.s_chan;
    check_int "cap" 3 s.Ifc_chan.Lint.s_cap;
    check "class" true (s.Ifc_chan.Lint.s_cls = Some "low");
    check_int "send_min" 1 s.Ifc_chan.Lint.s_send_min;
    check "send_max" true (s.Ifc_chan.Lint.s_send_max = Ifc_chan.Lint.Fin 1);
    check_int "recv_min" 1 s.Ifc_chan.Lint.s_recv_min;
    check "recv_max" true (s.Ifc_chan.Lint.s_recv_max = Ifc_chan.Lint.Fin 1);
    check_int "one may-communicate edge" 1 s.Ifc_chan.Lint.s_degree
  | ss -> Alcotest.failf "expected one channel summary, got %d" (List.length ss)

(* ------------------------------------------------------------------ *)
(* Guard lints *)

let test_constant_guards () =
  let r =
    Analyze.run
      (program
         {|var x : integer;
           begin
             if 1 = 1 then x := 1 else x := 2 fi;
             while 2 < 1 do x := 3
           end|})
  in
  check_int "two guard lints" 2
    (List.length
       (List.filter (fun k -> k = "guard") (kinds r)));
  check "guards do not affect claims" true r.Analyze.claims.Analyze.race_free

let test_variable_guard_not_linted () =
  let r =
    Analyze.run (program "var x : integer; while x < 3 do x := x + 1")
  in
  Alcotest.(check (list string)) "clean" [] (kinds r)

(* ------------------------------------------------------------------ *)
(* The dynamic race witness the fuzzer cross-checks against *)

let test_dynamic_race_witness () =
  let s =
    Explore.explore_program
      (program "var x : integer; cobegin x := 1 || x := 2 coend")
  in
  Alcotest.(check (list string)) "x witnessed" [ "x" ] s.Explore.races

let test_dynamic_no_race_through_handshake () =
  let s = Explore.explore_program (program handshake_src) in
  Alcotest.(check (list string)) "no witness" [] s.Explore.races;
  check "exploration complete" true s.Explore.complete

let test_sem_ops_never_witness () =
  let s =
    Explore.explore_program
      (program
         "var x : integer; s : semaphore initially(0);\n\
          cobegin signal(s) || wait(s) coend")
  in
  Alcotest.(check (list string)) "sem ops are not data" [] s.Explore.races

(* ------------------------------------------------------------------ *)
(* Whole-program fixtures *)

let test_quickstart_clean () =
  let src =
    {|var secret, public : integer;
      ready : semaphore initially(0);
      cobegin
        begin public := 2 * public + 1; signal(ready) end
        || begin wait(ready); secret := secret + public end
      coend|}
  in
  let r = Analyze.run (program src) in
  Alcotest.(check (list string)) "no findings" [] (kinds r);
  check "race_free" true r.Analyze.claims.Analyze.race_free

let test_fig3_report () =
  let r = Analyze.run Paper.fig3 in
  check "fig3 has the m race" true (List.mem "race" (kinds r));
  check_int "fig3 has two conditional-delay imbalances" 2
    (List.length (List.filter (fun k -> k = "imbalance") (kinds r)));
  check "not race_free" false r.Analyze.claims.Analyze.race_free

let test_report_sorted_and_counted () =
  let r = Analyze.run Paper.fig3 in
  let rec sorted = function
    | a :: (b :: _ as rest) -> Finding.compare a b <= 0 && sorted rest
    | _ -> true
  in
  check "findings sorted" true (sorted r.Analyze.findings);
  check "statements counted" true (r.Analyze.stats.Analyze.statements > 0);
  check "accesses counted" true (r.Analyze.stats.Analyze.accesses > 0)

(* ------------------------------------------------------------------ *)
(* Soundness: complete dynamic exploration never refutes static claims *)

let qtest ?(count = 150) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)

let claims_sound =
  qtest "complete exploration never refutes static claims"
    (Arb.program ~max_size:10 ())
    (fun p ->
      let r = Analyze.run p in
      let s = Explore.explore_program ~max_states:30_000 p in
      (* Bounded or faulting explorations prove nothing; skip them. *)
      if (not s.Explore.complete) || s.Explore.faults <> [] then true
      else
        ((not r.Analyze.claims.Analyze.race_free) || s.Explore.races = [])
        && ((not r.Analyze.claims.Analyze.deadlock_free)
           || s.Explore.deadlocks = [])
        && ((not r.Analyze.claims.Analyze.must_block)
           || s.Explore.terminals = []))

let deadlock_free_implies_no_deadlock =
  qtest "deadlock_free => can_deadlock is false"
    (Arb.program ~max_size:10 ())
    (fun p ->
      let r = Analyze.run p in
      if not r.Analyze.claims.Analyze.deadlock_free then true
      else
        let s = Explore.explore_program ~max_states:30_000 p in
        (not s.Explore.complete) || not (Explore.can_deadlock s))

(* ------------------------------------------------------------------ *)
(* The id-based analyzer against the tree-path formulation it replaced,
   kept naive on purpose: paths from the body, root walks with
   [List.nth], every endpoint pair scanned. *)

module Reference = struct
  let children (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.If (_, a, b) -> [ a; b ]
    | Ast.While (_, b) -> [ b ]
    | Ast.Seq ss | Ast.Cobegin ss -> ss
    | _ -> []

  (* Every statement's path, in preorder. *)
  let paths body =
    let rec go path s acc =
      snd
        (List.fold_left
           (fun (i, acc) c -> (i + 1, go (path @ [ i ]) c acc))
           (0, path :: acc) (children s))
    in
    List.rev (go [] body [])

  let relate body p q =
    let rec go s p q =
      match (p, q) with
      | [], [] -> Mhp.Equal
      | [], _ -> Mhp.Before
      | _, [] -> Mhp.After
      | i :: p', j :: q' -> (
        if i = j then go (List.nth (children s) i) p' q'
        else
          match s.Ast.node with
          | Ast.Seq _ -> if i < j then Mhp.Before else Mhp.After
          | Ast.Cobegin _ -> Mhp.Parallel
          | Ast.If _ -> Mhp.Exclusive
          | _ -> assert false)
    in
    go body p q

  let rec must_wait (s : Ast.stmt) =
    match s.Ast.node with
    | Ast.Wait sem -> Sset.singleton sem
    | Ast.Seq ss | Ast.Cobegin ss ->
      List.fold_left (fun acc c -> Sset.union acc (must_wait c)) Sset.empty ss
    | Ast.If (_, a, b) -> Sset.inter (must_wait a) (must_wait b)
    | _ -> Sset.empty

  let must_wait_before body path =
    let rec go s path acc =
      match path with
      | [] -> acc
      | i :: rest ->
        let acc =
          match s.Ast.node with
          | Ast.Seq ss ->
            List.filteri (fun j _ -> j < i) ss
            |> List.fold_left (fun acc c -> Sset.union acc (must_wait c)) acc
          | _ -> acc
        in
        go (List.nth (children s) i) rest acc
    in
    go body path Sset.empty

  (* Data accesses [(path, span, var, write)] in source order, and
     semaphore sites [(sem, path, is_signal, under_loop)]. *)
  let collect body =
    let accs = ref [] and sites = ref [] in
    let add path (s : Ast.stmt) var write =
      accs := (path, s.Ast.span, var, write) :: !accs
    in
    let reads path s e =
      Sset.iter (fun v -> add path s v false) (Ifc_lang.Vars.expr_vars e)
    in
    let rec walk path loop (s : Ast.stmt) =
      (match s.Ast.node with
      | Ast.Skip -> ()
      | Ast.Wait sem -> sites := (sem, path, false, loop) :: !sites
      | Ast.Signal sem -> sites := (sem, path, true, loop) :: !sites
      | Ast.Assign (x, e) | Ast.Declassify (x, e, _) ->
        add path s x true;
        reads path s e
      | Ast.Send (_, e) -> reads path s e
      | Ast.Recv (_, x) -> add path s x true
      | Ast.Store (a, i, e) ->
        add path s a true;
        reads path s i;
        reads path s e
      | Ast.If (e, _, _) | Ast.While (e, _) -> reads path s e
      | Ast.Seq _ | Ast.Cobegin _ -> ());
      let loop = loop || match s.Ast.node with Ast.While _ -> true | _ -> false in
      List.iteri (fun i c -> walk (path @ [ i ]) loop c) (children s)
    in
    walk [] false body;
    (List.rev !accs, List.rev !sites)

  let handshake_ordered (p : Ast.program) sites p_path q_path =
    let init sem =
      List.fold_left
        (fun acc -> function
          | Ast.Sem_decl { name; init; _ } when name = sem -> init
          | _ -> acc)
        0 p.Ast.decls
    in
    let eligible sem =
      init sem = 0
      && not (List.exists (fun (s, _, _, loop) -> s = sem && loop) sites)
    in
    Sset.exists
      (fun sem ->
        eligible sem
        && List.for_all
             (fun (s, path, signal, _) ->
               s <> sem || (not signal) || relate p.Ast.body p_path path = Mhp.Before)
             sites)
      (must_wait_before p.Ast.body q_path)

  let may_parallel p sites a b =
    relate p.Ast.body a b = Mhp.Parallel
    && (not (handshake_ordered p sites a b))
    && not (handshake_ordered p sites b a)

  (* Race findings in emission order, same-variable pairs with a write,
     and the access count. *)
  let races (p : Ast.program) =
    let accs, sites = collect p.Ast.body in
    let endpoints =
      List.fold_left
        (fun eps (path, span, var, write) ->
          if List.exists (fun (p', _, v', _) -> p' = path && v' = var) eps then
            List.map
              (fun ((p', s', v', w') as e) ->
                if p' = path && v' = var then (p', s', v', w' || write) else e)
              eps
          else eps @ [ (path, span, var, write) ])
        [] accs
    in
    let atomic =
      List.map
        (fun (i : Wellformed.issue) -> i.Wellformed.span)
        (Wellformed.atomicity_issues p.Ast.body)
    in
    let pairs = ref 0 and out = ref [] in
    let rec scan = function
      | [] -> ()
      | (pe, se, ve, we) :: rest ->
        List.iter
          (fun (pf, sf, vf, wf) ->
            if ve = vf && (we || wf) then begin
              incr pairs;
              if may_parallel p sites pe pf then
                out :=
                  Finding.make ~related:sf Finding.Race Finding.Warning se
                    (Printf.sprintf "possible %s race on %s with a parallel process%s"
                       (if we && wf then "write/write" else "read/write")
                       ve
                       (if List.mem se atomic || List.mem sf atomic then
                          "; a concurrent interleaving mid-expression makes the \
                           atomicity warning here exploitable"
                        else ""))
                  :: !out
            end)
          rest;
        scan rest
    in
    scan endpoints;
    (List.rev !out, !pairs, List.length accs)
end

(* Random programs for the differentials: semaphores, channels, or a
   cobegin whose first two branches hand off through a fresh semaphore
   [h] (initially 0) around random statements — the shape the handshake
   refinement orders. *)
let handshake_program rng ~size =
  let piece () = Gen.stmt rng Gen.default ~size:(1 + Prng.int rng (1 + (size / 4))) in
  Wellformed.infer_decls
    (Ast.program
       (Ast.seq
          [
            piece ();
            Ast.cobegin
              [
                Ast.seq [ piece (); Ast.signal "h"; piece () ];
                Ast.seq [ piece (); Ast.wait "h"; piece () ];
                piece ();
              ];
            piece ();
          ]))

let race_program =
  QCheck.make ~print:Pretty.program_to_string ~shrink:Arb.shrink_iter
    (fun st ->
      let rng = Prng.create (QCheck.Gen.int_bound max_int st) in
      let size = 1 + Prng.int rng 30 in
      match Prng.int rng 3 with
      | 0 -> Gen.program rng Gen.default ~size
      | 1 -> Gen.program rng Gen.with_channels ~size
      | _ -> handshake_program rng ~size)

(* Generated programs carry dummy spans, so every finding ties on its
   span and the emission order decides the report; re-parsing gives
   them real spans. *)
let with_reparsed p = [ p; program (Pretty.program_to_string p) ]

let races_match_reference =
  qtest ~count:300 "race detection matches the all-pairs reference" race_program
    (fun p ->
      List.for_all
        (fun p ->
          List.for_all
            (fun (report, analyzed) ->
              let races, pairs, accesses = Reference.races analyzed in
              List.filter
                (fun (f : Finding.t) -> f.Finding.kind = Finding.Race)
                report.Analyze.findings
              = List.stable_sort Finding.compare races
              && report.Analyze.claims.Analyze.race_free = (races = [])
              && report.Analyze.stats.Analyze.pairs = pairs
              && report.Analyze.stats.Analyze.accesses = accesses)
            [
              (Analyze.run ~dataflow:false p, p);
              (Analyze.run p, (Prune.analyze p).Prune.program);
            ])
        (with_reparsed p))

let relate_matches_reference =
  qtest ~count:300 "id-based relate matches the root-walking reference"
    race_program (fun p ->
      let t = Mhp.create p and body = p.Ast.body in
      let _, sites = Reference.collect body in
      let paths = Reference.paths body in
      (* Paths resolve to their preorder position. *)
      List.mapi (fun i path -> Mhp.node t path = i) paths |> List.for_all Fun.id
      (* The ranges after each point hold exactly its later parallel
         points. *)
      && List.for_all
           (fun a ->
             let u = Mhp.node t a in
             List.concat_map
               (fun (lo, hi) -> List.init (hi - lo + 1) (( + ) lo))
               (Mhp.parallel_after t u ~until:(List.length paths - 1))
             = List.filter
                 (fun v -> v > u && Reference.relate body a (List.nth paths v) = Mhp.Parallel)
                 (List.init (List.length paths) Fun.id))
           paths
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 let u = Mhp.node t a and v = Mhp.node t b in
                 Mhp.relate t u v = Reference.relate body a b
                 && Mhp.may_happen_in_parallel t u v
                    = Reference.may_parallel p sites a b)
               paths)
           paths)

(* Depth and length that were superlinear before statements carried
   preorder ids (depth 2000 took 21 s): a regression shows as a stalled
   suite. Pair counts are C(m,2) - C(r,2) per variable, m its endpoints
   and r the read-only ones. *)
let test_lint_scale () =
  let lint name src ~statements ~accesses ~pairs =
    let r = Analyze.run (program src) in
    let stats = r.Analyze.stats in
    check_int (name ^ " statements") statements stats.Analyze.statements;
    check_int (name ^ " accesses") accesses stats.Analyze.accesses;
    check_int (name ^ " pairs") pairs stats.Analyze.pairs;
    check_int (name ^ " races") 0
      (List.length (List.filter (( = ) "race") (kinds r)))
  in
  let d = 2000 and n = 20_000 in
  let repeat k f = String.concat "" (List.init k f) in
  (* Per level: an if (reads u), its begin, a := a + 1 and the else arm
     b := a + 1; the leaf b := b + u. [a]: d writes, d reads; [b]: d + 1
     writes. *)
  lint "deep if"
    ("var u, a, b : integer;\n"
    ^ repeat d (Printf.sprintf "if u > %d then begin a := a + 1; ")
    ^ "b := b + u"
    ^ repeat d (fun _ -> " end else b := a + 1"))
    ~statements:((4 * d) + 1) ~accesses:((5 * d) + 3)
    ~pairs:((d * ((2 * d) - 1)) - (d * (d - 1) / 2) + ((d + 1) * d / 2));
  (* Per level: a while (reads u), its begin and a := b + 1; the leaf
     b := a + u. [a]: d writes, one read; [b]: d reads, one write. *)
  lint "deep while"
    ("var u, a, b : integer;\n"
    ^ repeat d (fun _ -> "while u > 0 do begin a := b + 1; ")
    ^ "b := a + u"
    ^ repeat d (fun _ -> " end"))
    ~statements:((3 * d) + 1) ~accesses:((3 * d) + 3)
    ~pairs:(((d + 1) * d / 2) + d);
  lint "long seq"
    ("var a : integer;\nbegin "
    ^ String.concat "; " (List.init n (Printf.sprintf "a := a + %d"))
    ^ " end")
    ~statements:(n + 1) ~accesses:(2 * n) ~pairs:(n * (n - 1) / 2)

(* ------------------------------------------------------------------ *)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "mhp relations" `Quick test_mhp_relations;
      Alcotest.test_case "mhp accesses" `Quick test_mhp_accesses;
      Alcotest.test_case "handshake orders" `Quick test_handshake_orders;
      Alcotest.test_case "handshake suppresses race" `Quick
        test_handshake_suppresses_race;
      Alcotest.test_case "nonzero init breaks eligibility" `Quick
        test_nonzero_init_breaks_eligibility;
      Alcotest.test_case "looping site breaks eligibility" `Quick
        test_looping_site_breaks_eligibility;
      Alcotest.test_case "plain race detected" `Quick test_plain_race_detected;
      Alcotest.test_case "exclusive arms do not race" `Quick
        test_exclusive_arms_do_not_race;
      Alcotest.test_case "guaranteed deadlock" `Quick test_guaranteed_deadlock;
      Alcotest.test_case "initial count covers wait" `Quick
        test_initial_count_covers_wait;
      Alcotest.test_case "lost signal" `Quick test_lost_signal;
      Alcotest.test_case "if imbalance" `Quick test_if_imbalance;
      Alcotest.test_case "loop synchronization imbalance" `Quick
        test_loop_synchronization_imbalance;
      Alcotest.test_case "usage intervals" `Quick test_usages_interval;
      Alcotest.test_case "chan starved recv" `Quick test_chan_starved_recv;
      Alcotest.test_case "chan orphan send" `Quick test_chan_orphan_send;
      Alcotest.test_case "chan producer/consumer clean" `Quick
        test_chan_prodcons_clean;
      Alcotest.test_case "chan contention" `Quick test_chan_contention;
      Alcotest.test_case "chan overflow" `Quick test_chan_overflow;
      Alcotest.test_case "chan summaries" `Quick test_chan_summaries;
      Alcotest.test_case "constant guards" `Quick test_constant_guards;
      Alcotest.test_case "variable guard not linted" `Quick
        test_variable_guard_not_linted;
      Alcotest.test_case "dynamic race witness" `Quick test_dynamic_race_witness;
      Alcotest.test_case "no dynamic race through handshake" `Quick
        test_dynamic_no_race_through_handshake;
      Alcotest.test_case "sem ops never witness" `Quick
        test_sem_ops_never_witness;
      Alcotest.test_case "quickstart program is clean" `Quick
        test_quickstart_clean;
      Alcotest.test_case "fig3 report" `Quick test_fig3_report;
      Alcotest.test_case "report sorted and counted" `Quick
        test_report_sorted_and_counted;
      claims_sound;
      deadlock_free_implies_no_deadlock;
      races_match_reference;
      relate_matches_reference;
      Alcotest.test_case "lint scales to depth 2000 and 20k statements" `Quick
        test_lint_scale;
    ] )
