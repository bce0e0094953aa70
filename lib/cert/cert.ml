(* Canonical serialization of flow-proof derivations, with a strict
   parser. See cert.mli for the format contract. *)

module Lattice = Ifc_lattice.Lattice
module Spec = Ifc_lattice.Spec
module Ast = Ifc_lang.Ast
module Pretty = Ifc_lang.Pretty
module Vars = Ifc_lang.Vars
module Binding = Ifc_core.Binding
module Assertion = Ifc_logic.Assertion
module Cexpr = Ifc_logic.Cexpr
module Proof = Ifc_logic.Proof

type kind =
  | K_assign
  | K_wait
  | K_signal
  | K_send
  | K_recv
  | K_skip
  | K_alternation
  | K_iteration
  | K_composition
  | K_concurrency
  | K_consequence

type node = {
  kind : kind;
  pre : string Assertion.t;
  post : string Assertion.t;
  children : node list;
}

type t = {
  program_digest : string;
  lattice : string Lattice.t;
  binds : (string * string) list;
  root : node;
}

type parse_error = { line : int; reason : string }

let version = 1

let pp_parse_error ppf e = Fmt.pf ppf "line %d: %s" e.line e.reason

let rule_name = function
  | K_assign -> "assign"
  | K_wait -> "wait"
  | K_signal -> "signal"
  | K_send -> "send"
  | K_recv -> "recv"
  | K_skip -> "skip"
  | K_alternation -> "alternation"
  | K_iteration -> "iteration"
  | K_composition -> "composition"
  | K_concurrency -> "concurrency"
  | K_consequence -> "consequence"

let kind_of_name = function
  | "assign" -> Some K_assign
  | "wait" -> Some K_wait
  | "signal" -> Some K_signal
  | "send" -> Some K_send
  | "recv" -> Some K_recv
  | "skip" -> Some K_skip
  | "alternation" -> Some K_alternation
  | "iteration" -> Some K_iteration
  | "composition" -> Some K_composition
  | "concurrency" -> Some K_concurrency
  | "consequence" -> Some K_consequence
  | _ -> None

let program_digest p =
  Digest.to_hex (Digest.string (Pretty.program_to_string p))

let rec count_nodes n = 1 + List.fold_left (fun a c -> a + count_nodes c) 0 n.children

let node_count c = count_nodes c.root

(* ------------------------------------------------------------------ *)
(* Rendering *)

let render_sym = function
  | Cexpr.S_cls v -> "cls(" ^ v ^ ")"
  | Cexpr.S_local -> "local"
  | Cexpr.S_global -> "global"

(* Canonical: the normal form's sorted symbol atoms, then the constant
   (omitted when it is the bottom and at least one atom remains). *)
let render_cexpr (lat : string Lattice.t) e =
  let n = Cexpr.normalize lat e in
  let atoms = List.map render_sym n.Cexpr.atoms in
  let const = "const(" ^ lat.Lattice.to_string n.Cexpr.const ^ ")" in
  let parts =
    if atoms = [] then [ const ]
    else if lat.Lattice.equal n.Cexpr.const lat.Lattice.bottom then atoms
    else atoms @ [ const ]
  in
  String.concat " + " parts

let render_assertion lat (a : string Assertion.t) =
  let atoms =
    List.map
      (fun { Assertion.lhs; rhs } ->
        render_cexpr lat lhs ^ " <= " ^ render_cexpr lat rhs)
      a
    |> List.sort_uniq String.compare
  in
  "{" ^ String.concat "; " atoms ^ "}"

let spec_lines lat =
  String.split_on_char '\n' (Spec.to_text lat)
  |> List.map String.trim
  |> List.filter (fun l -> l <> "")

let to_string (c : t) =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  line "ifc-cert %d" version;
  line "program: %s" c.program_digest;
  List.iter (fun l -> line "lattice: %s" l) (spec_lines c.lattice);
  List.iter (fun (v, cls) -> line "bind: %s = %s" v cls) c.binds;
  line "nodes: %d" (node_count c);
  let rec emit path n =
    line "node %s: %s" path (rule_name n.kind);
    line "  pre: %s" (render_assertion c.lattice n.pre);
    line "  post: %s" (render_assertion c.lattice n.post);
    List.iteri
      (fun i child -> emit (path ^ "." ^ string_of_int i) child)
      n.children
  in
  emit "0" c.root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Emission from a checked derivation *)

let kind_of_rule = function
  | Proof.Axiom_assign -> K_assign
  | Proof.Axiom_wait -> K_wait
  | Proof.Axiom_signal -> K_signal
  | Proof.Axiom_send -> K_send
  | Proof.Axiom_recv -> K_recv
  | Proof.Axiom_skip -> K_skip
  | Proof.Alternation _ -> K_alternation
  | Proof.Iteration _ -> K_iteration
  | Proof.Composition _ -> K_composition
  | Proof.Concurrency _ -> K_concurrency
  | Proof.Consequence _ -> K_consequence

let of_proof ~binding ~program proof =
  let lat = Binding.lattice binding in
  let vars = Ifc_support.Sset.elements (Vars.all_vars program.Ast.body) in
  let binds =
    List.map (fun v -> (v, lat.Lattice.to_string (Binding.sbind binding v))) vars
  in
  let rec conv (p : string Proof.t) =
    {
      kind = kind_of_rule p.Proof.rule;
      pre = p.Proof.pre;
      post = p.Proof.post;
      children = List.map conv (Proof.children p);
    }
  in
  { program_digest = program_digest program; lattice = lat; binds; root = conv proof }

(* ------------------------------------------------------------------ *)
(* Strict parsing *)

exception Fail of parse_error

let chop_prefix ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

(* Separators are found by comparing in place, and assertions are parsed
   by bounds within their line: nothing is copied but the names. *)

(* Does [sep] occur in [s] at [i]? *)
let rec matches sep s i k =
  k = String.length sep || (s.[i + k] = sep.[k] && matches sep s i (k + 1))

let occurs_at sep s i = i + String.length sep <= String.length s && matches sep s i 0

(* The first occurrence of [sep] in [s] within [[i, stop)], or [-1].
   Candidates are found by jumping to the separator's first non-blank
   character, which is rare in certificate text. *)
let rec scan sep off s k last =
  if k > last then -1
  else if s.[k] = sep.[off] && matches sep s (k - off) 0 then k - off
  else scan sep off s (k + 1) last

let find_sep sep s i stop =
  let off = if String.length sep > 1 && sep.[0] = ' ' then 1 else 0 in
  scan sep off s (i + off) (stop - String.length sep + off)

(* Split on a multi-character separator (atoms contain no separator
   substrings, so this is unambiguous). *)
let split_str sep s =
  let m = String.length sep and n = String.length s in
  let rec go start acc =
    match find_sep sep s start n with
    | -1 -> List.rev (String.sub s start (n - start) :: acc)
    | i -> go (i + m) (String.sub s start (i - start) :: acc)
  in
  go 0 []

(* No ' ', '(' or ')' in [s] within [[k, stop)]. *)
let rec clean s k stop =
  k >= stop || ((not (s.[k] = ' ' || s.[k] = '(' || s.[k] = ')')) && clean s (k + 1) stop)

let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let arity_ok kind n =
  match kind with
  | K_assign | K_wait | K_signal | K_send | K_recv | K_skip -> n = 0
  | K_iteration | K_consequence -> n = 1
  | K_alternation -> n = 2
  | K_composition | K_concurrency -> n >= 1

let arity_text = function
  | K_assign | K_wait | K_signal | K_send | K_recv | K_skip -> "no sub-derivations"
  | K_iteration | K_consequence -> "exactly 1 sub-derivation"
  | K_alternation -> "exactly 2 sub-derivations"
  | K_composition | K_concurrency -> "at least 1 sub-derivation"

let parse_exn text =
  let fail line reason = raise (Fail { line; reason }) in
  let lines =
    match List.rev (String.split_on_char '\n' text) with
    | "" :: rest -> Array.of_list (List.rev rest)
    | _ -> fail 0 "certificate must end with a newline"
  in
  let pos = ref 0 in
  let peek () = if !pos < Array.length lines then Some lines.(!pos) else None in
  let next what =
    match peek () with
    | Some l ->
      let ln = !pos + 1 in
      incr pos;
      (ln, l)
    | None -> fail (!pos + 1) ("unexpected end of certificate: expected " ^ what)
  in
  (* Version header. *)
  let ln, l = next "version header" in
  (match chop_prefix ~prefix:"ifc-cert " l with
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n = version -> ()
    | Some n -> fail ln (Printf.sprintf "unsupported certificate version %d" n)
    | None -> fail ln "malformed version header")
  | None -> fail ln "expected version header \"ifc-cert 1\"");
  (* Program digest. *)
  let ln, l = next "program digest" in
  let digest =
    match chop_prefix ~prefix:"program: " l with
    | Some d -> d
    | None -> fail ln "expected \"program: <md5-hex>\""
  in
  if String.length digest <> 32 || not (String.for_all is_hex digest) then
    fail ln "malformed program digest (expected 32 lowercase hex digits)";
  (* Lattice spec. *)
  let spec_first_line = !pos + 1 in
  let spec = ref [] in
  let rec collect_spec () =
    match peek () with
    | Some l when String.starts_with ~prefix:"lattice: " l ->
      incr pos;
      spec := Option.get (chop_prefix ~prefix:"lattice: " l) :: !spec;
      collect_spec ()
    | _ -> ()
  in
  collect_spec ();
  if !spec = [] then fail (!pos + 1) "expected at least one \"lattice: ...\" line";
  let lat =
    match Spec.parse (String.concat "\n" (List.rev !spec)) with
    | Ok lat -> lat
    | Error msg -> fail spec_first_line ("invalid lattice spec: " ^ msg)
  in
  let element ln cls =
    match lat.Lattice.of_string cls with
    | Ok c -> c
    | Error _ -> fail ln (Printf.sprintf "unknown class %S" cls)
  in
  (* Bindings, sorted strictly by variable name. *)
  let binds = ref [] in
  let rec collect_binds () =
    match peek () with
    | Some l when String.starts_with ~prefix:"bind: " l ->
      let ln = !pos + 1 in
      incr pos;
      let payload = Option.get (chop_prefix ~prefix:"bind: " l) in
      (match split_str " = " payload with
      | [ name; cls ] when name <> "" ->
        (match !binds with
        | (prev, _) :: _ when String.compare prev name >= 0 ->
          fail ln "bindings must be sorted by variable name"
        | _ -> ());
        binds := (name, lat.Lattice.to_string (element ln cls)) :: !binds
      | _ -> fail ln "expected \"bind: <variable> = <class>\"");
      collect_binds ()
    | _ -> ()
  in
  collect_binds ();
  let binds = List.rev !binds in
  (* Node count. *)
  let ln, l = next "node count" in
  let declared =
    match chop_prefix ~prefix:"nodes: " l with
    | Some n -> (
      match int_of_string_opt n with
      | Some n when n >= 1 -> n
      | _ -> fail ln "malformed node count")
    | None -> fail ln "expected \"nodes: <count>\""
  in
  (* Class expressions and assertions, each given by its bounds
     [[i, j)] within the line [s]. *)
  let parse_part ln s i j =
    let len = j - i in
    if len = 5 && occurs_at "local" s i then Cexpr.Local
    else if len = 6 && occurs_at "global" s i then Cexpr.Global
    else
      (* [prefix] then a name free of ' ', '(' and ')', then ')'. *)
      let name prefix =
        let a = i + String.length prefix and b = j - 1 in
        if a < b && occurs_at prefix s i && s.[b] = ')' && clean s a b then
          Some (String.sub s a (b - a))
        else None
      in
      match name "cls(" with
      | Some v -> Cexpr.Cls v
      | None -> (
        match name "const(" with
        | Some c -> Cexpr.Const (element ln c)
        | None ->
          fail ln
            (Printf.sprintf "malformed class expression part %S" (String.sub s i len)))
  in
  let parse_cexpr ln s i j =
    let rec joins acc start =
      match find_sep " + " s start j with
      | -1 -> Cexpr.Join (acc, parse_part ln s start j)
      | k -> joins (Cexpr.Join (acc, parse_part ln s start k)) (k + 3)
    in
    match find_sep " + " s i j with
    | -1 -> parse_part ln s i j
    | k -> joins (parse_part ln s i k) (k + 3)
  in
  let parse_atom ln s i j =
    match find_sep " <= " s i j with
    | k when k >= 0 && find_sep " <= " s (k + 4) j < 0 ->
      (* The right-hand side first, as the error it reports is pinned. *)
      let rhs = parse_cexpr ln s (k + 4) j in
      Assertion.atom (parse_cexpr ln s i k) rhs
    | _ ->
      fail ln
        (Printf.sprintf "malformed atom %S (expected \"e1 <= e2\")"
           (String.sub s i (j - i)))
  in
  (* The assertion [{...}] filling [s] from [start]. *)
  let parse_assertion ln s start =
    let n = String.length s in
    if n - start < 2 || s.[start] <> '{' || s.[n - 1] <> '}' then
      fail ln "assertion must be of the form {...}";
    let rec atoms acc i =
      match find_sep "; " s i (n - 1) with
      | -1 -> List.rev (parse_atom ln s i (n - 1) :: acc)
      | k -> atoms (parse_atom ln s i k :: acc) (k + 2)
    in
    if n - start = 2 then [] else atoms [] (start + 1)
  in
  (* Node tree, preorder, paths checked against position. *)
  let rec parse_node path =
    let ln, l = next ("node " ^ path) in
    let head = "node " ^ path ^ ": " in
    let rule =
      match chop_prefix ~prefix:head l with
      | Some r -> r
      | None -> fail ln (Printf.sprintf "expected \"node %s: <rule>\"" path)
    in
    let kind =
      match kind_of_name rule with
      | Some k -> k
      | None -> fail ln (Printf.sprintf "unknown rule %S" rule)
    in
    let ln2, l2 = next "pre assertion" in
    let pre =
      if String.starts_with ~prefix:"  pre: " l2 then parse_assertion ln2 l2 7
      else fail ln2 "expected \"  pre: {...}\""
    in
    let ln3, l3 = next "post assertion" in
    let post =
      if String.starts_with ~prefix:"  post: " l3 then parse_assertion ln3 l3 8
      else fail ln3 "expected \"  post: {...}\""
    in
    let children = ref [] in
    let count = ref 0 in
    let continue = ref true in
    while !continue do
      let child_path = path ^ "." ^ string_of_int !count in
      match peek () with
      | Some l when String.starts_with ~prefix:("node " ^ child_path ^ ": ") l ->
        children := parse_node child_path :: !children;
        incr count
      | _ -> continue := false
    done;
    let children = List.rev !children in
    if not (arity_ok kind !count) then
      fail ln
        (Printf.sprintf "rule %s requires %s, found %d" rule (arity_text kind) !count);
    { kind; pre; post; children }
  in
  let root = parse_node "0" in
  (match peek () with
  | Some l ->
    fail (!pos + 1) (Printf.sprintf "trailing data after certificate: %S" l)
  | None -> ());
  let c = { program_digest = digest; lattice = lat; binds; root } in
  if node_count c <> declared then
    fail ln
      (Printf.sprintf "node count mismatch: header declares %d, tree has %d"
         declared (node_count c));
  c

let parse text =
  try Ok (parse_exn text) with
  | Fail e -> Error e
  | exn -> Error { line = 0; reason = "internal error: " ^ Printexc.to_string exn }
