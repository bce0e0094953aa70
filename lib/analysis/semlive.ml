(* Interval counting of semaphore operations: deadlock, lost signals,
   and wait/signal imbalance between control-flow arms. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Smap = Ifc_support.Smap

type count = Fin of int | Inf

let add_count a b =
  match (a, b) with Fin x, Fin y -> Fin (x + y) | _ -> Inf

let max_count a b =
  match (a, b) with Fin x, Fin y -> Fin (max x y) | _ -> Inf

let le_count a b =
  match (a, b) with
  | Fin x, Fin y -> x <= y
  | _, Inf -> true
  | Inf, Fin _ -> false

let pp_count ppf = function
  | Fin n -> Fmt.int ppf n
  | Inf -> Fmt.string ppf "unboundedly many"

type usage = {
  wait_min : int;
  wait_max : count;
  signal_min : int;
  signal_max : count;
  first_wait : Loc.span option;
  first_signal : Loc.span option;
}

let zero =
  {
    wait_min = 0;
    wait_max = Fin 0;
    signal_min = 0;
    signal_max = Fin 0;
    first_wait = None;
    first_signal = None;
  }

let first a b = match a with Some _ -> a | None -> b

(* Sequencing (and cobegin: every branch runs to completion) adds. *)
let seq_usage a b =
  {
    wait_min = a.wait_min + b.wait_min;
    wait_max = add_count a.wait_max b.wait_max;
    signal_min = a.signal_min + b.signal_min;
    signal_max = add_count a.signal_max b.signal_max;
    first_wait = first a.first_wait b.first_wait;
    first_signal = first a.first_signal b.first_signal;
  }

(* Alternation: exactly one arm runs, so take the envelope. *)
let alt_usage a b =
  {
    wait_min = min a.wait_min b.wait_min;
    wait_max = max_count a.wait_max b.wait_max;
    signal_min = min a.signal_min b.signal_min;
    signal_max = max_count a.signal_max b.signal_max;
    first_wait = first a.first_wait b.first_wait;
    first_signal = first a.first_signal b.first_signal;
  }

(* Iteration: possibly zero times, possibly unboundedly many. *)
let loop_usage a =
  {
    wait_min = 0;
    wait_max = (if a.wait_max = Fin 0 then Fin 0 else Inf);
    signal_min = 0;
    signal_max = (if a.signal_max = Fin 0 then Fin 0 else Inf);
    first_wait = a.first_wait;
    first_signal = a.first_signal;
  }

let merge_with f a b =
  Smap.merge
    (fun _ l r ->
      match (l, r) with
      | Some u, Some v -> Some (f u v)
      | Some u, None -> Some (f u zero)
      | None, Some v -> Some (f zero v)
      | None, None -> None)
    a b

type result = {
  findings : Finding.t list;
  deadlock_free : bool;
  must_block : bool;
}

(* ------------------------------------------------------------------ *)
(* Usage, bottom-up, with the imbalance lint on the way: an if whose arms
   use a semaphore differently, or a while whose body synchronizes at
   all. The synchronization behaviour then depends on the guard — the
   paper's conditional-delay channel. Each arm's and body's usage is
   computed once and serves both its parent's usage and the lint. *)

let balance u = (u.wait_min, u.wait_max, u.signal_min, u.signal_max)

let imbalanced_sems ua ub =
  Smap.merge
    (fun _ l r ->
      let l = Option.value ~default:zero l
      and r = Option.value ~default:zero r in
      if balance l = balance r then None else Some ())
    ua ub
  |> Smap.keys

let syncing_sems u =
  Smap.filter (fun _ u -> u.wait_max <> Fin 0 || u.signal_max <> Fin 0) u
  |> Smap.keys

(* The usage of [body], and its imbalance findings in preorder: an if or
   while takes its finding's slot before its children take theirs, and
   fills it once both arms' (or the body's) usage is known. *)
let usages_and_imbalance body =
  let slots = ref [] in
  let take_slot () =
    let slot = ref None in
    slots := slot :: !slots;
    slot
  in
  let fill slot (s : Ast.stmt) = function
    | [] -> ()
    | sems ->
      slot :=
        Some
          (Finding.make Finding.Imbalance Finding.Warning s.Ast.span
             (Format.asprintf
                (match s.Ast.node with
                | Ast.If _ ->
                  "branches differ in wait/signal balance on %s; the branch \
                   taken is observable through the conditional delay of the \
                   waiting process"
                | _ ->
                  "loop body synchronizes on %s; the iteration count is \
                   observable through the conditional delay of the waiting \
                   process")
                (String.concat ", " sems)))
  in
  let rec go (s : Ast.stmt) =
    match s.Ast.node with
    (* Channel ops are no semaphore usage: their blocking discipline is
       the channel lint's subject ({!Ifc_chan}). *)
    | Ast.Skip | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.Send _
    | Ast.Recv _ ->
      Smap.empty
    | Ast.Wait sem ->
      Smap.singleton sem
        { zero with wait_min = 1; wait_max = Fin 1; first_wait = Some s.Ast.span }
    | Ast.Signal sem ->
      Smap.singleton sem
        {
          zero with
          signal_min = 1;
          signal_max = Fin 1;
          first_signal = Some s.Ast.span;
        }
    | Ast.Seq ss | Ast.Cobegin ss ->
      List.fold_left (fun acc c -> merge_with seq_usage acc (go c)) Smap.empty ss
    | Ast.If (_, a, b) ->
      let slot = take_slot () in
      let ua = go a in
      let ub = go b in
      fill slot s (imbalanced_sems ua ub);
      merge_with alt_usage ua ub
    | Ast.While (_, b) ->
      let slot = take_slot () in
      let ub = go b in
      fill slot s (syncing_sems ub);
      Smap.map loop_usage ub
  in
  let u = go body in
  (u, List.rev (List.filter_map ( ! ) !slots))

let usages s = fst (usages_and_imbalance s)

(* ------------------------------------------------------------------ *)

let analyze (p : Ast.program) =
  let inits =
    List.fold_left
      (fun acc -> function
        | Ast.Sem_decl { name; init; _ } -> Smap.add name init acc
        | Ast.Var_decl _ | Ast.Arr_decl _ | Ast.Chan_decl _ -> acc)
      Smap.empty p.Ast.decls
  in
  let u, imbalance = usages_and_imbalance p.Ast.body in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let deadlock_free = ref true and must_block = ref false in
  Smap.iter
    (fun sem usage ->
      let init = Smap.find_or ~default:0 sem inits in
      let supply_max = add_count (Fin init) usage.signal_max in
      let supply_min = init + usage.signal_min in
      (* deadlock_free: no interleaving can block, even transiently —
         the initial count alone covers the most waits any execution
         performs. *)
      if not (le_count usage.wait_max (Fin init)) then deadlock_free := false;
      (* Guaranteed deadlock: the fewest waits any execution performs
         already exceed the most units it could ever be supplied. *)
      if not (le_count (Fin usage.wait_min) supply_max) then begin
        must_block := true;
        let span =
          Option.value ~default:Loc.dummy usage.first_wait
        in
        emit
          (Finding.make ?related:usage.first_signal Finding.Deadlock
             Finding.Error span
             (Format.asprintf
                "every execution performs at least %d wait(%s) but at most \
                 %a unit%s can ever be supplied (initially %d); some wait \
                 blocks forever"
                usage.wait_min sem pp_count supply_max
                (match supply_max with Fin 1 -> "" | _ -> "s")
                init))
      end
      (* Lost signals: units that no execution can ever consume. *)
      else if not (le_count (Fin supply_min) usage.wait_max) then begin
        let span =
          Option.value
            ~default:(Option.value ~default:Loc.dummy usage.first_wait)
            usage.first_signal
        in
        emit
          (Finding.make ?related:usage.first_wait Finding.Lost_signal
             Finding.Warning span
             (Format.asprintf
                "every execution supplies at least %d unit%s of %s \
                 (initially %d) but performs at most %a wait%s; leftover \
                 units are never consumed"
                supply_min
                (if supply_min = 1 then "" else "s")
                sem init pp_count usage.wait_max
                (match usage.wait_max with Fin 1 -> "" | _ -> "s")))
      end)
    u;
  let findings = List.rev !findings @ imbalance in
  { findings; deadlock_free = !deadlock_free; must_block = !must_block }
