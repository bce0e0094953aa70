(* The analyzer entry point: races via MHP, liveness, guard lints —
   after infeasible-path pruning by the interval dataflow engine. *)

module Ast = Ifc_lang.Ast
module Prune = Ifc_dataflow.Prune
module Loc = Ifc_lang.Loc
module Metrics = Ifc_lang.Metrics
module Wellformed = Ifc_lang.Wellformed
module Sset = Ifc_support.Sset
module Smap = Ifc_support.Smap

type claims = {
  race_free : bool;
  deadlock_free : bool;
  must_block : bool;
  chan_race_free : bool;
  chan_deadlock_free : bool;
}

type stats = { statements : int; accesses : int; pairs : int }

type report = {
  findings : Finding.t list;
  claims : claims;
  stats : stats;
  channels : Ifc_chan.Lint.summary list;
  pruned : Prune.pruned list;
}

(* ------------------------------------------------------------------ *)
(* Race detection.

   Accesses are grouped into endpoints — one per (statement, variable)
   with a write flag — then every endpoint pair on the same variable
   with at least one write and no ordering (structural or handshake) is
   a finding. Arrays are whole-object: two stores to a[0] and a[1]
   conflict, matching the certifiers' weak treatment of arrays.

   Only structurally parallel pairs are visited. Per variable, the
   endpoints sit in arrays ascending by node id (all of them, and the
   writers alone); the later points parallel to an endpoint are the id
   ranges of [Mhp.parallel_after], found by binary search. A read-only
   endpoint is paired with writers only. Findings come out ordered by
   first endpoint, then second, as a scan over all pairs would emit
   them; [Finding.compare] keeps that order on ties. *)

type endpoint = { e_node : int; e_span : Loc.span; e_var : string; e_write : bool }

(* One statement's accesses are contiguous in [Mhp.accesses]: merge each
   run by variable, in order of first appearance. *)
let endpoints (accs : Mhp.access list) =
  let out = ref [] in
  let rec run (a : Mhp.access) order seen writes = function
    | (b : Mhp.access) :: rest when b.Mhp.node = a.Mhp.node ->
      let var = b.Mhp.var in
      run a
        (if Sset.mem var seen then order else var :: order)
        (Sset.add var seen)
        (if b.Mhp.write then Sset.add var writes else writes)
        rest
    | rest -> (
      List.iter
        (fun var ->
          out :=
            { e_node = a.Mhp.node; e_span = a.Mhp.span; e_var = var;
              e_write = Sset.mem var writes }
            :: !out)
        (List.rev order);
      match rest with
      | [] -> ()
      | b :: _ -> run b [] Sset.empty Sset.empty rest)
  in
  (match accs with [] -> () | a :: _ -> run a [] Sset.empty Sset.empty accs);
  List.rev !out

(* The first position in [a] (ascending by node) at or after node [lo]. *)
let lower_bound (a : endpoint array) lo =
  let rec go i j =
    if i >= j then i
    else
      let m = (i + j) / 2 in
      if a.(m).e_node < lo then go (m + 1) j else go i m
  in
  go 0 (Array.length a)

let race_findings mhp ~atomic_spans =
  let eps = endpoints (Mhp.accesses mhp) in
  (* Per variable: its endpoints and its writers, ascending by node. *)
  let by_var =
    List.fold_left
      (fun m e ->
        let all, writers = Smap.find_or ~default:([], []) e.e_var m in
        Smap.add e.e_var (e :: all, if e.e_write then e :: writers else writers) m)
      Smap.empty (List.rev eps)
    |> Smap.map (fun (all, writers) -> (Array.of_list all, Array.of_list writers))
  in
  (* Same-variable endpoint pairs with a write, whatever their relation. *)
  let choose2 k = k * (k - 1) / 2 in
  let pairs =
    Smap.fold
      (fun _ (all, writers) acc ->
        let m = Array.length all in
        acc + choose2 m - choose2 (m - Array.length writers))
      by_var 0
  in
  let atomic = Hashtbl.create 16 in
  List.iter (fun span -> Hashtbl.replace atomic span ()) atomic_spans;
  let findings = ref [] in
  let report e f =
    let kind = if e.e_write && f.e_write then "write/write" else "read/write" in
    let note =
      if Hashtbl.mem atomic e.e_span || Hashtbl.mem atomic f.e_span then
        "; a concurrent interleaving mid-expression makes the atomicity \
         warning here exploitable"
      else ""
    in
    findings :=
      Finding.make ~related:f.e_span Finding.Race Finding.Warning e.e_span
        (Printf.sprintf "possible %s race on %s with a parallel process%s" kind
           e.e_var note)
      :: !findings
  in
  List.iter
    (fun e ->
      let all, writers = Smap.find e.e_var by_var in
      let later = if e.e_write then all else writers in
      let n = Array.length later in
      let until = if n = 0 then -1 else later.(n - 1).e_node in
      List.iter
        (fun (lo, hi) ->
          let j = ref (lower_bound later lo) in
          while !j < n && later.(!j).e_node <= hi do
            let f = later.(!j) in
            if
              not
                (Mhp.handshake_ordered mhp e.e_node f.e_node
                || Mhp.handshake_ordered mhp f.e_node e.e_node)
            then report e f;
            incr j
          done)
        (Mhp.parallel_after mhp e.e_node ~until))
    eps;
  (List.rev !findings, pairs)

(* ------------------------------------------------------------------ *)
(* The channel lint, adapted: the graph gets the structural relation and
   the may-parallel predicate from this analyzer's MHP pass, and its
   findings are folded into the shared diagnostic type. *)

let chan_relation = function
  | Mhp.Equal -> Ifc_chan.Graph.Equal
  | Mhp.Before -> Ifc_chan.Graph.Before
  | Mhp.After -> Ifc_chan.Graph.After
  | Mhp.Parallel -> Ifc_chan.Graph.Parallel
  | Mhp.Exclusive -> Ifc_chan.Graph.Exclusive

let chan_site (s : Mhp.sem_site) =
  {
    Ifc_chan.Graph.node = s.Mhp.site_node;
    span = s.Mhp.site_span;
    under_loop = s.Mhp.under_loop;
  }

let chan_finding (f : Ifc_chan.Lint.finding) =
  let kind =
    match f.Ifc_chan.Lint.kind with
    | Ifc_chan.Lint.Comm_deadlock -> Finding.Chan_deadlock
    | Ifc_chan.Lint.Orphan_message -> Finding.Orphan_message
    | Ifc_chan.Lint.Chan_race -> Finding.Chan_race
  in
  let severity =
    match f.Ifc_chan.Lint.severity with
    | Ifc_chan.Lint.Error -> Finding.Error
    | Ifc_chan.Lint.Warning -> Finding.Warning
  in
  Finding.make
    ?related:f.Ifc_chan.Lint.related kind severity f.Ifc_chan.Lint.span
    f.Ifc_chan.Lint.message

let chan_lint mhp (p : Ast.program) =
  let site_map m = Ifc_support.Smap.map (List.map chan_site) m in
  let graph =
    Ifc_chan.Graph.build
      ~relate:(fun a b -> chan_relation (Mhp.relate mhp a b))
      ~sends:(site_map (Mhp.send_sites mhp))
      ~recvs:(site_map (Mhp.recv_sites mhp))
      p
  in
  Ifc_chan.Lint.analyze
    ~may_parallel:(Mhp.may_happen_in_parallel mhp)
    ~graph p

(* ------------------------------------------------------------------ *)

let no_prune p =
  { Prune.program = p; pruned = []; dead_stores = []; iterations = 0; visits = 0 }

let run ?(dataflow = true) ?prune (p : Ast.program) =
  (* Prune statically infeasible arms first: the structural analyses
     below then never walk code no execution reaches, so races,
     deadlocks and channel findings inside dead arms disappear. Guard
     lints still see the original program — a constant guard is a
     finding about the source as written. [?prune] supplies
     pre-computed facts (per-module summaries at link time). *)
  let presult =
    match prune with
    | Some r -> r
    | None -> if dataflow then Prune.analyze p else no_prune p
  in
  let analyzed = presult.Prune.program in
  let mhp = Mhp.create analyzed in
  let atomic_spans =
    List.map
      (fun (i : Wellformed.issue) -> i.Wellformed.span)
      (Wellformed.atomicity_issues analyzed.Ast.body)
  in
  let races, pairs = race_findings mhp ~atomic_spans in
  let live = Semlive.analyze analyzed in
  let chan = chan_lint mhp analyzed in
  let guards = Guards.findings p in
  let unreachable =
    List.filter_map
      (fun (pr : Prune.pruned) ->
        if pr.Prune.p_const_guard then None
        else
          let what =
            match pr.Prune.p_arm with
            | Ifc_dataflow.Cfg.Then -> "then branch"
            | Ifc_dataflow.Cfg.Else -> "else branch"
            | Ifc_dataflow.Cfg.Loop_body -> "loop body"
          in
          Some
            (Finding.make ~related:pr.Prune.p_stmt_span Finding.Unreachable
               Finding.Warning pr.Prune.p_span
               (Printf.sprintf "%s is unreachable on every input" what)))
      presult.Prune.pruned
  in
  let dead_stores =
    List.map
      (fun (x, span) ->
        Finding.make Finding.Dead_store Finding.Warning span
          (Printf.sprintf "value assigned to %s is overwritten before any read"
             x))
      presult.Prune.dead_stores
  in
  let findings =
    List.sort Finding.compare
      (races
      @ live.Semlive.findings
      @ List.map chan_finding chan.Ifc_chan.Lint.findings
      @ guards @ unreachable @ dead_stores)
  in
  (* The blocking claims combine both synchronization disciplines:
     deadlock-freedom needs every semaphore {e and} every channel unable
     to block, while a guaranteed block through either one suffices for
     [must_block]. *)
  let chan_claims = chan.Ifc_chan.Lint.claims in
  let claims =
    {
      race_free = races = [];
      deadlock_free =
        live.Semlive.deadlock_free
        && chan_claims.Ifc_chan.Lint.comm_deadlock_free;
      must_block =
        live.Semlive.must_block || chan_claims.Ifc_chan.Lint.comm_must_block;
      chan_race_free = chan_claims.Ifc_chan.Lint.chan_race_free;
      chan_deadlock_free = chan_claims.Ifc_chan.Lint.comm_deadlock_free;
    }
  in
  let stats =
    {
      statements = (Metrics.of_program p).Metrics.statements;
      accesses = List.length (Mhp.accesses mhp);
      pairs;
    }
  in
  {
    findings;
    claims;
    stats;
    channels = chan.Ifc_chan.Lint.summaries;
    pruned = presult.Prune.pruned;
  }

let pp_report ppf r =
  List.iter (fun f -> Fmt.pf ppf "%a@." Finding.pp f) r.findings
