(* Channel lint: interval counting of send/recv operations per channel
   (communication deadlock, orphan messages), graph-based never-fed /
   never-consumed endpoint checks, and same-endpoint contention. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Smap = Ifc_support.Smap

(* The same interval algebra the semaphore liveness analysis uses,
   redeclared locally: [Ifc_analysis] depends on this library, not the
   other way around. *)
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
  send_min : int;
  send_max : count;
  recv_min : int;
  recv_max : count;
  first_send : Loc.span option;
  first_recv : Loc.span option;
}

let zero =
  {
    send_min = 0;
    send_max = Fin 0;
    recv_min = 0;
    recv_max = Fin 0;
    first_send = None;
    first_recv = None;
  }

let first a b = match a with Some _ -> a | None -> b

(* Sequencing (and cobegin: every branch runs to completion) adds. *)
let seq_usage a b =
  {
    send_min = a.send_min + b.send_min;
    send_max = add_count a.send_max b.send_max;
    recv_min = a.recv_min + b.recv_min;
    recv_max = add_count a.recv_max b.recv_max;
    first_send = first a.first_send b.first_send;
    first_recv = first a.first_recv b.first_recv;
  }

(* Alternation: exactly one arm runs, so take the envelope. *)
let alt_usage a b =
  {
    send_min = min a.send_min b.send_min;
    send_max = max_count a.send_max b.send_max;
    recv_min = min a.recv_min b.recv_min;
    recv_max = max_count a.recv_max b.recv_max;
    first_send = first a.first_send b.first_send;
    first_recv = first a.first_recv b.first_recv;
  }

(* Iteration: possibly zero times, possibly unboundedly many. *)
let loop_usage a =
  {
    send_min = 0;
    send_max = (if a.send_max = Fin 0 then Fin 0 else Inf);
    recv_min = 0;
    recv_max = (if a.recv_max = Fin 0 then Fin 0 else Inf);
    first_send = a.first_send;
    first_recv = a.first_recv;
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

let rec usages (s : Ast.stmt) =
  match s.Ast.node with
  | Ast.Skip | Ast.Assign _ | Ast.Declassify _ | Ast.Store _ | Ast.Wait _
  | Ast.Signal _ ->
    Smap.empty
  | Ast.Send (chan, _) ->
    Smap.singleton chan
      { zero with send_min = 1; send_max = Fin 1; first_send = Some s.Ast.span }
  | Ast.Recv (chan, _) ->
    Smap.singleton chan
      { zero with recv_min = 1; recv_max = Fin 1; first_recv = Some s.Ast.span }
  | Ast.Seq ss | Ast.Cobegin ss ->
    List.fold_left
      (fun acc c -> merge_with seq_usage acc (usages c))
      Smap.empty ss
  | Ast.If (_, a, b) -> merge_with alt_usage (usages a) (usages b)
  | Ast.While (_, b) -> Smap.map loop_usage (usages b)

(* ------------------------------------------------------------------ *)

type kind = Comm_deadlock | Orphan_message | Chan_race

type severity = Error | Warning

type finding = {
  kind : kind;
  severity : severity;
  span : Loc.span;
  related : Loc.span option;
  message : string;
}

type summary = {
  s_chan : string;
  s_cap : int;
  s_cls : string option;
  s_send_min : int;
  s_send_max : count;
  s_recv_min : int;
  s_recv_max : count;
  s_degree : int;  (* May-communicate edges. *)
}

type claims = {
  comm_deadlock_free : bool;
  comm_must_block : bool;
  chan_race_free : bool;
}

type result = { findings : finding list; claims : claims; summaries : summary list }

let kind_name = function
  | Comm_deadlock -> "chan-deadlock"
  | Orphan_message -> "orphan-message"
  | Chan_race -> "chan-race"

let analyze ~may_parallel ~(graph : Graph.t) (p : Ast.program) =
  let u = usages p.Ast.body in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let deadlock_free = ref true and must_block = ref false in
  let race_free = ref true in
  List.iter
    (fun (n : Graph.node) ->
      let usage = Smap.find_or ~default:zero n.Graph.chan u in
      let chan = n.Graph.chan and cap = n.Graph.cap in
      (* Never-fed recv: no send may complete before it or alongside it,
         so whenever the statement runs the queue is empty, forever. *)
      let starved =
        List.filter (fun r -> not (Graph.fed graph r)) n.Graph.recvs
      in
      List.iter
        (fun (r : Graph.site) ->
          emit
            {
              kind = Comm_deadlock;
              severity = Error;
              span = r.Graph.span;
              related = usage.first_send;
              message =
                Printf.sprintf
                  "no send on %s can precede or run alongside this recv; it \
                   blocks forever whenever reached"
                  chan;
            })
        starved;
      if starved <> [] && n.Graph.recvs <> [] && List.length starved = List.length n.Graph.recvs
         && usage.recv_min >= 1
      then must_block := true;
      (* Guaranteed starvation by counting: the fewest recvs any
         execution performs already exceed the most messages it could
         ever be sent. The finding is skipped when a never-fed recv
         already explains it; the claim is not. *)
      let counting_starved =
        not (le_count (Fin usage.recv_min) usage.send_max)
      in
      if counting_starved then must_block := true;
      if starved = [] && counting_starved then
        emit
          {
            kind = Comm_deadlock;
            severity = Error;
            span = Option.value ~default:Loc.dummy usage.first_recv;
            related = usage.first_send;
            message =
              Format.asprintf
                "every execution performs at least %d recv(%s) but at most %a \
                 message%s can ever be sent; some recv blocks forever"
                usage.recv_min chan pp_count usage.send_max
                (match usage.send_max with Fin 1 -> "" | _ -> "s");
          };
      (* Guaranteed overflow: even if every possible recv happens, the
         sends any execution must perform exceed capacity plus drains. *)
      if not (le_count (Fin usage.send_min) (add_count (Fin cap) usage.recv_max))
      then begin
        must_block := true;
        emit
          {
            kind = Comm_deadlock;
            severity = Error;
            span = Option.value ~default:Loc.dummy usage.first_send;
            related = usage.first_recv;
            message =
              Format.asprintf
                "every execution sends at least %d message%s on %s but its \
                 capacity is %d and at most %a can ever be received; some \
                 send blocks forever on a full queue"
                usage.send_min
                (if usage.send_min = 1 then "" else "s")
                chan cap pp_count usage.recv_max;
          }
      end;
      (* Never-consumed send: its message has no recv it may reach. *)
      let orphan_sites =
        List.filter (fun s -> not (Graph.consumed graph s)) n.Graph.sends
      in
      List.iter
        (fun (s : Graph.site) ->
          emit
            {
              kind = Orphan_message;
              severity = Warning;
              span = s.Graph.span;
              related = usage.first_recv;
              message =
                Printf.sprintf
                  "no recv on %s can follow or run alongside this send; the \
                   message is never received"
                  chan;
            })
        orphan_sites;
      (* Orphans by counting: messages every execution sends beyond the
         most it could ever receive (and which fit in capacity, else the
         overflow error above fires instead). *)
      if orphan_sites = []
         && le_count (Fin usage.send_min) (add_count (Fin cap) usage.recv_max)
         && not (le_count (Fin usage.send_min) usage.recv_max)
      then
        emit
          {
            kind = Orphan_message;
            severity = Warning;
            span = Option.value ~default:Loc.dummy usage.first_send;
            related = usage.first_recv;
            message =
              Format.asprintf
                "every execution sends at least %d message%s on %s but \
                 performs at most %a recv%s; leftover messages are never \
                 received"
                usage.send_min
                (if usage.send_min = 1 then "" else "s")
                chan pp_count usage.recv_max
                (match usage.recv_max with Fin 1 -> "" | _ -> "s");
          };
      (* Same-endpoint contention: two sends (or two recvs) on the
         channel that may run in parallel — which message lands where
         depends on the schedule. A send alongside a recv is the intended
         rendezvous, not contention. *)
      let contention what (sites : Graph.site list) =
        let rec scan = function
          | [] -> ()
          | (s : Graph.site) :: rest ->
            List.iter
              (fun (t : Graph.site) ->
                if may_parallel s.Graph.node t.Graph.node then begin
                  race_free := false;
                  emit
                    {
                      kind = Chan_race;
                      severity = Warning;
                      span = s.Graph.span;
                      related = Some t.Graph.span;
                      message =
                        Printf.sprintf
                          "two parallel %ss on %s; message order depends on \
                           the schedule"
                          what chan;
                    }
                end)
              rest;
            scan rest
        in
        scan sites
      in
      contention "send" n.Graph.sends;
      contention "recv" n.Graph.recvs;
      (* The no-transient-block claim. The queue starts empty, so the
         only channels that can never block anyone are those whose sends
         fit the capacity outright and which nobody ever receives from —
         deliberately conservative, like the semaphore claim, so a
         dynamic block witness refutes it definitively. *)
      if not (le_count usage.send_max (Fin cap) && usage.recv_max = Fin 0) then
        deadlock_free := false)
    (Graph.nodes graph);
  let summaries =
    List.map
      (fun (n : Graph.node) ->
        let usage = Smap.find_or ~default:zero n.Graph.chan u in
        {
          s_chan = n.Graph.chan;
          s_cap = n.Graph.cap;
          s_cls = n.Graph.cls;
          s_send_min = usage.send_min;
          s_send_max = usage.send_max;
          s_recv_min = usage.recv_min;
          s_recv_max = usage.recv_max;
          s_degree = Graph.degree graph n.Graph.chan;
        })
      (Graph.nodes graph)
  in
  {
    findings = List.rev !findings;
    claims =
      {
        comm_deadlock_free = !deadlock_free;
        comm_must_block = !must_block;
        chan_race_free = !race_free;
      };
    summaries;
  }

let pp_summary ppf s =
  Fmt.pf ppf
    "channel %s: cap %d%a, sends [%d, %a], recvs [%d, %a], %d may-communicate \
     edge%s"
    s.s_chan s.s_cap
    (fun ppf -> function
      | Some c -> Fmt.pf ppf " class %s" c
      | None -> ())
    s.s_cls s.s_send_min pp_count s.s_send_max s.s_recv_min pp_count s.s_recv_max
    s.s_degree
    (if s.s_degree = 1 then "" else "s")
