(* May-happen-in-parallel over preorder node ids, with handshake
   refinement. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Vars = Ifc_lang.Vars
module Sset = Ifc_support.Sset
module Smap = Ifc_support.Smap

type relation = Equal | Before | After | Parallel | Exclusive

type access = { node : int; span : Loc.span; var : string; write : bool }

type sem_site = { site_node : int; site_span : Loc.span; under_loop : bool }

type kind = Leaf | Seq | Cobegin | If | While

(* Per-node arrays, indexed by preorder id. The subtree of [v] is the
   id range [v, last.(v)]. *)
type t = {
  kind : kind array;
  parent : int array;  (* -1 at the body *)
  depth : int array;
  last : int array;
  cob : int array;  (* Nearest strict Cobegin ancestor, or -1. *)
  branch : int array;  (* The child of [cob.(v)] whose subtree holds [v]. *)
  wait_before : Sset.t array;
      (* Semaphores some wait of which must have completed before the
         node starts: over every Seq ancestor, the must-waits of the
         siblings it has already passed. *)
  accs : access list;
  signals : sem_site list Smap.t;
  sends : sem_site list Smap.t;
  recvs : sem_site list Smap.t;
  eligible : Sset.t;
      (* Semaphores usable for must-precede edges: initial count 0 and
         no wait/signal site under a while. *)
}

let create (p : Ast.program) =
  let n = (Ifc_lang.Metrics.of_stmt p.Ast.body).Ifc_lang.Metrics.statements in
  let kind = Array.make n Leaf
  and parent = Array.make n (-1)
  and depth = Array.make n 0
  and last = Array.make n 0
  and cob = Array.make n (-1)
  and branch = Array.make n (-1)
  and wait_before = Array.make n Sset.empty in
  let next = ref 0 and accs = ref [] in
  let waits = ref Smap.empty
  and signals = ref Smap.empty
  and sends = ref Smap.empty
  and recvs = ref Smap.empty in
  (* Numbers [s] and its subtree; returns the must-wait set of [s]: the
     semaphores some wait of which must have completed whenever [s]
     completes. Loops promise nothing (zero iterations); alternation
     promises only what both arms promise. *)
  let rec walk ~par ~under_loop ~wb (s : Ast.stmt) =
    let id = !next in
    incr next;
    parent.(id) <- par;
    wait_before.(id) <- wb;
    if par >= 0 then begin
      depth.(id) <- depth.(par) + 1;
      if kind.(par) = Cobegin then begin
        cob.(id) <- par;
        branch.(id) <- id
      end
      else begin
        cob.(id) <- cob.(par);
        branch.(id) <- branch.(par)
      end
    end;
    let span = s.Ast.span in
    let add var write = accs := { node = id; span; var; write } :: !accs in
    let add_reads e = Sset.iter (fun v -> add v false) (Vars.expr_vars e) in
    let site store name =
      let site = { site_node = id; site_span = span; under_loop } in
      store := Smap.add name (site :: Smap.find_or ~default:[] name !store) !store
    in
    let must_wait =
      match s.Ast.node with
      | Ast.Skip -> Sset.empty
      | Ast.Wait sem ->
        site waits sem;
        Sset.singleton sem
      | Ast.Signal sem ->
        site signals sem;
        Sset.empty
      | Ast.Assign (x, e) | Ast.Declassify (x, e, _) ->
        add x true;
        add_reads e;
        Sset.empty
      | Ast.Send (chan, e) ->
        (* The channel itself is a synchronization object, not a data
           access (its sites live in [sends]/[recvs]); the payload read
           is data. Channel ops promise no semaphore handshakes. *)
        site sends chan;
        add_reads e;
        Sset.empty
      | Ast.Recv (chan, x) ->
        site recvs chan;
        add x true;
        Sset.empty
      | Ast.Store (a, i, e) ->
        add a true;
        add_reads i;
        add_reads e;
        Sset.empty
      | Ast.If (cond, a, b) ->
        kind.(id) <- If;
        add_reads cond;
        let wa = walk ~par:id ~under_loop ~wb a in
        Sset.inter wa (walk ~par:id ~under_loop ~wb b)
      | Ast.While (cond, b) ->
        kind.(id) <- While;
        add_reads cond;
        ignore (walk ~par:id ~under_loop:true ~wb b);
        Sset.empty
      | Ast.Seq ss ->
        kind.(id) <- Seq;
        List.fold_left
          (fun passed c ->
            Sset.union passed (walk ~par:id ~under_loop ~wb:(Sset.union wb passed) c))
          Sset.empty ss
      | Ast.Cobegin ss ->
        kind.(id) <- Cobegin;
        List.fold_left
          (fun acc c -> Sset.union acc (walk ~par:id ~under_loop ~wb c))
          Sset.empty ss
    in
    last.(id) <- !next - 1;
    must_wait
  in
  ignore (walk ~par:(-1) ~under_loop:false ~wb:Sset.empty p.Ast.body);
  let waits = !waits and signals = Smap.map List.rev !signals in
  let inits =
    List.fold_left
      (fun acc -> function
        | Ast.Sem_decl { name; init; _ } -> Smap.add name init acc
        | Ast.Var_decl _ | Ast.Arr_decl _ | Ast.Chan_decl _ -> acc)
      Smap.empty p.Ast.decls
  in
  let looping sem m =
    List.exists (fun s -> s.under_loop) (Smap.find_or ~default:[] sem m)
  in
  let eligible =
    Sset.filter
      (fun s ->
        Smap.find_or ~default:0 s inits = 0
        && (not (looping s waits))
        && not (looping s signals))
      (Sset.union (Sset.of_list (Smap.keys waits)) (Sset.of_list (Smap.keys signals)))
  in
  {
    kind;
    parent;
    depth;
    last;
    cob;
    branch;
    wait_before;
    accs = List.rev !accs;
    signals;
    sends = Smap.map List.rev !sends;
    recvs = Smap.map List.rev !recvs;
    eligible;
  }

let node t path =
  (* Child [i] of [v] starts right after the subtree of child [i - 1]. *)
  let rec nth v c i =
    if c > t.last.(v) then invalid_arg "Mhp.node: path leaves the tree"
    else if i = 0 then c
    else nth v (t.last.(c) + 1) (i - 1)
  in
  List.fold_left (fun v i -> nth v (v + 1) i) 0 path

let accesses t = t.accs
let send_sites t = t.sends
let recv_sites t = t.recvs

(* ------------------------------------------------------------------ *)
(* Structural relation *)

let ancestor t a v = a <= v && v <= t.last.(a)

let relate t p q =
  if p = q then Equal
  else if ancestor t p q then Before (* guard read of an enclosing if/while *)
  else if ancestor t q p then After
  else
    let shallow, deep = if t.depth.(p) <= t.depth.(q) then (p, q) else (q, p) in
    let rec lca v = if ancestor t v deep then v else lca t.parent.(v) in
    match t.kind.(lca shallow) with
    | Seq -> if p < q then Before else After
    | Cobegin -> Parallel
    | If -> Exclusive
    | While | Leaf -> assert false (* a while has one child; leaves none *)

let parallel_after t p ~until =
  let rec go v =
    let c = t.cob.(v) in
    if c < 0 then []
    else
      let lo = t.last.(t.branch.(v)) + 1 in
      if lo > until then []
      else if lo > t.last.(c) then go c
      else (lo, t.last.(c)) :: go c
  in
  go p

(* ------------------------------------------------------------------ *)
(* Handshake refinement *)

let handshake_ordered t p q =
  Sset.exists
    (fun sem ->
      Sset.mem sem t.eligible
      && List.for_all
           (fun site -> relate t p site.site_node = Before)
           (Smap.find_or ~default:[] sem t.signals))
    t.wait_before.(q)

let may_happen_in_parallel t p q =
  relate t p q = Parallel
  && (not (handshake_ordered t p q))
  && not (handshake_ordered t q p)
