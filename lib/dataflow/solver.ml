(* The monotone-framework worklist solver. *)

module type DOMAIN = sig
  type t

  val bottom : t

  val join : t -> t -> t

  val widen : t -> t -> t

  val equal : t -> t -> bool
end

type direction = Forward | Backward

module Make (D : DOMAIN) = struct
  type edge = { src : int; dst : int; transfer : D.t -> D.t }

  type graph = {
    node_count : int;
    edges : edge list;
    entry : int list;
    widen_points : int list;
  }

  type stats = { iterations : int; visits : int }

  (* A binary heap keyed by [order] would be overkill: the graphs this
     engine sees are per-program CFGs (thousands of nodes at the most),
     so the ready set is a sorted association left to stdlib Set. *)
  module Iset = Set.Make (struct
    type t = int * int (* (priority, node) *)

    let compare = compare
  end)

  (* The position of every node reachable from [entry] in a weak
     topological ordering (Bourdoncle, "Efficient chaotic iteration
     strategies with widenings", 1993): outside a cycle every node comes
     after its predecessors, and every loop is contiguous, headed by its
     entry. Draining the worklist by position therefore never widens at a
     loop head before all of its forward predecessors have arrived, and
     stabilises each loop before anything downstream sees it; two such
     orderings differ only in how they interleave parts of the graph that
     do not reach each other, which the result cannot observe.

     Bourdoncle's construction revisits a loop once per enclosing loop;
     for the reducible graphs of structured programs a reverse postorder
     does the same in linear time, provided every loop head explores its
     exits before its body. A first search finds the back edges [u -> h]
     ([h] an ancestor of [u]) and so the body entries: the successors of
     [h] that are ancestors of [u]. The second search lays nodes out in
     reverse postorder, body entries explored last. [order] breaks the
     remaining ties: smaller priorities come first. *)
  let positions ~order (succs : edge list array) entry node_count =
    let pre = Array.make node_count (-1) and post = Array.make node_count (-1) in
    let clock = ref 0 in
    let rec number v =
      pre.(v) <- !clock;
      incr clock;
      number_all succs.(v);
      post.(v) <- !clock;
      incr clock
    and number_all = function
      | [] -> ()
      | e :: es ->
        if pre.(e.dst) < 0 then number e.dst;
        number_all es
    in
    List.iter (fun n -> if pre.(n) < 0 then number n) entry;
    let ancestor a v = pre.(a) <= pre.(v) && post.(v) <= post.(a) in
    let body_entry = Array.make node_count false in
    let rec mark_body h u = function
      | [] -> ()
      | e :: es ->
        if pre.(e.dst) > pre.(h) && ancestor e.dst u then body_entry.(e.dst) <- true;
        mark_body h u es
    in
    let rec back_edges u = function
      | [] -> ()
      | e :: es ->
        if ancestor e.dst u then mark_body e.dst u succs.(e.dst);
        back_edges u es
    in
    Array.iteri (fun u es -> if pre.(u) >= 0 then back_edges u es) succs;
    (* Nodes are placed back to front, so the search explores first what
       is laid out last. *)
    let explore_first a b =
      match Bool.compare body_entry.(a) body_entry.(b) with
      | 0 -> ( match Int.compare (order b) (order a) with 0 -> Int.compare b a | c -> c)
      | c -> c
    in
    let pos = Array.make node_count max_int in
    let next = ref node_count in
    let rec place v =
      pos.(v) <- -1;
      (match succs.(v) with
      | [] -> ()
      | [ e ] -> visit e.dst
      | es -> List.iter visit (List.sort explore_first (List.map (fun e -> e.dst) es)));
      decr next;
      pos.(v) <- !next
    and visit w = if pos.(w) = max_int then place w in
    List.iter visit (List.sort explore_first entry);
    pos

  let solve ?(direction = Forward) ?(order = fun n -> n) g ~init =
    (* Orient the graph: in the backward direction every edge flips, so
       the rest of the algorithm is direction-agnostic. *)
    let edges =
      match direction with
      | Forward -> g.edges
      | Backward ->
        List.map (fun e -> { e with src = e.dst; dst = e.src }) g.edges
    in
    let succs = Array.make g.node_count [] in
    List.iter (fun e -> succs.(e.src) <- e :: succs.(e.src)) edges;
    let widen_at = Array.make g.node_count false in
    List.iter (fun n -> widen_at.(n) <- true) g.widen_points;
    let pos = positions ~order succs g.entry g.node_count in
    let state = Array.make g.node_count D.bottom in
    List.iter (fun n -> state.(n) <- init) g.entry;
    let iterations = ref 0 in
    let visits = ref 0 in
    let queued = Array.make g.node_count false in
    let ready = ref Iset.empty in
    let push n =
      if not queued.(n) then begin
        queued.(n) <- true;
        ready := Iset.add (pos.(n), n) !ready
      end
    in
    List.iter push g.entry;
    let rec drain () =
      match Iset.min_elt_opt !ready with
      | None -> ()
      | Some ((_, n) as key) ->
        ready := Iset.remove key !ready;
        queued.(n) <- false;
        incr iterations;
        List.iter
          (fun e ->
            incr visits;
            let contribution = e.transfer state.(n) in
            let current = state.(e.dst) in
            let next =
              if widen_at.(e.dst) then D.widen current contribution
              else D.join current contribution
            in
            if not (D.equal next current) then begin
              state.(e.dst) <- next;
              push e.dst
            end)
          succs.(n);
        drain ()
    in
    drain ();
    (state, { iterations = !iterations; visits = !visits })
end
