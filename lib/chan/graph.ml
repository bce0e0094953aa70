(* The channel graph: endpoints and may-communicate edges. *)

module Ast = Ifc_lang.Ast
module Loc = Ifc_lang.Loc
module Smap = Ifc_support.Smap

type site = { node : int; span : Loc.span; under_loop : bool }

type relation = Equal | Before | After | Parallel | Exclusive

type node = {
  chan : string;
  cap : int;
  cls : string option;
  sends : site list;
  recvs : site list;
}

type edge = { e_chan : string; e_send : site; e_recv : site }

module Iset = Set.Make (Int)

type t = {
  nodes : node list;
  edges : edge list;
  fed : Iset.t;  (* Recv sites some edge ends at. *)
  consumed : Iset.t;  (* Send sites some edge starts at. *)
  degrees : int Smap.t;  (* Edges per channel. *)
}

(* A message enqueued at [s] may be the one dequeued at [r] when [s] can
   complete no later than [r] runs: [s] strictly before [r], the two in
   parallel branches, or — when both sit under a loop — [s] "after" [r]
   within one iteration but feeding a later one. Exclusive sites (arms of
   one [if]) never exchange a message. *)
let may_communicate ~(send : site) ~(recv : site) relation =
  match relation with
  | Before | Parallel -> true
  | After -> send.under_loop && recv.under_loop
  | Equal | Exclusive -> false

let build ~relate ~sends ~recvs (p : Ast.program) =
  let sites m chan = Smap.find_or ~default:[] chan m in
  let node chan cap cls =
    { chan; cap; cls; sends = sites sends chan; recvs = sites recvs chan }
  in
  let nodes =
    List.filter_map
      (function
        | Ast.Chan_decl { name; cap; cls } -> Some (node name cap cls)
        | Ast.Var_decl _ | Ast.Arr_decl _ | Ast.Sem_decl _ -> None)
      p.Ast.decls
  in
  (* Channels used without a declaration (callers normally run
     [Wellformed.infer_decls] first, but the graph must not silently drop
     endpoints if they did not): default capacity, no annotation. *)
  let declared = List.map (fun n -> n.chan) nodes in
  let undeclared =
    List.sort_uniq String.compare (Smap.keys sends @ Smap.keys recvs)
    |> List.filter (fun c -> not (List.mem c declared))
  in
  let nodes =
    nodes
    @ List.map
        (fun c -> node c Ifc_lang.Wellformed.default_channel_capacity None)
        undeclared
  in
  let edges =
    List.concat_map
      (fun n ->
        List.concat_map
          (fun s ->
            List.filter_map
              (fun r ->
                if may_communicate ~send:s ~recv:r (relate s.node r.node) then
                  Some { e_chan = n.chan; e_send = s; e_recv = r }
                else None)
              n.recvs)
          n.sends)
      nodes
  in
  let fed, consumed, degrees =
    List.fold_left
      (fun (fed, consumed, degrees) e ->
        ( Iset.add e.e_recv.node fed,
          Iset.add e.e_send.node consumed,
          Smap.add e.e_chan (Smap.find_or ~default:0 e.e_chan degrees + 1) degrees ))
      (Iset.empty, Iset.empty, Smap.empty)
      edges
  in
  { nodes; edges; fed; consumed; degrees }

let nodes t = t.nodes
let edges t = t.edges
let fed t (r : site) = Iset.mem r.node t.fed
let consumed t (s : site) = Iset.mem s.node t.consumed
let degree t chan = Smap.find_or ~default:0 chan t.degrees

let pp ppf t =
  let pp_site ppf (s : site) = Loc.pp ppf s.span in
  List.iter
    (fun n ->
      Fmt.pf ppf "channel %s(cap %d): %d send site%s, %d recv site%s, %d edge%s@."
        n.chan n.cap (List.length n.sends)
        (if List.length n.sends = 1 then "" else "s")
        (List.length n.recvs)
        (if List.length n.recvs = 1 then "" else "s")
        (degree t n.chan)
        (if degree t n.chan = 1 then "" else "s"))
    t.nodes;
  List.iter
    (fun e ->
      Fmt.pf ppf "  %s: %a -> %a@." e.e_chan pp_site e.e_send pp_site e.e_recv)
    t.edges
