(* The canonical byte form behind every structural digest. See the
   interface for the encoding's guarantees. *)

let str b s =
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let opt_str b = function None -> Buffer.add_char b '-' | Some s -> str b s

let int b n =
  Buffer.add_char b '#';
  Buffer.add_string b (string_of_int n)

let binop = function
  | Ast.Add -> 'a'
  | Ast.Sub -> 's'
  | Ast.Mul -> 'm'
  | Ast.Div -> 'd'
  | Ast.Mod -> 'r'
  | Ast.Eq -> 'e'
  | Ast.Ne -> 'n'
  | Ast.Lt -> 'l'
  | Ast.Le -> 'L'
  | Ast.Gt -> 'g'
  | Ast.Ge -> 'G'
  | Ast.And -> '&'
  | Ast.Or -> '|'

let rec expr b = function
  | Ast.Int n ->
    Buffer.add_char b 'I';
    int b n
  | Ast.Bool v ->
    Buffer.add_char b 'B';
    Buffer.add_char b (if v then 't' else 'f')
  | Ast.Var x ->
    Buffer.add_char b 'V';
    str b x
  | Ast.Index (a, i) ->
    Buffer.add_char b 'X';
    str b a;
    expr b i
  | Ast.Unop (op, e) ->
    Buffer.add_char b 'U';
    Buffer.add_char b (match op with Ast.Neg -> '-' | Ast.Not -> '!');
    expr b e
  | Ast.Binop (op, e1, e2) ->
    Buffer.add_char b 'O';
    Buffer.add_char b (binop op);
    expr b e1;
    expr b e2

let node b = function
  | Ast.Skip -> Buffer.add_char b 'k'
  | Ast.Assign (x, e) ->
    Buffer.add_char b '=';
    str b x;
    expr b e
  | Ast.Declassify (x, e, c) ->
    Buffer.add_char b 'D';
    str b x;
    expr b e;
    str b c
  | Ast.Store (a, i, e) ->
    Buffer.add_char b 'A';
    str b a;
    expr b i;
    expr b e
  | Ast.If (e, _, _) ->
    Buffer.add_char b 'i';
    expr b e
  | Ast.While (e, _) ->
    Buffer.add_char b 'w';
    expr b e
  | Ast.Seq ss ->
    Buffer.add_char b ';';
    int b (List.length ss)
  | Ast.Cobegin ss ->
    Buffer.add_char b 'c';
    int b (List.length ss)
  | Ast.Wait x ->
    Buffer.add_char b 'W';
    str b x
  | Ast.Signal x ->
    Buffer.add_char b 'S';
    str b x
  | Ast.Send (ch, e) ->
    Buffer.add_char b '>';
    str b ch;
    expr b e
  | Ast.Recv (ch, x) ->
    Buffer.add_char b '<';
    str b ch;
    str b x

let rec stmt b (s : Ast.stmt) =
  node b s.Ast.node;
  List.iter (stmt b) (Ast.children s)

let decl b = function
  | Ast.Var_decl { name; cls } ->
    Buffer.add_char b 'v';
    str b name;
    opt_str b cls
  | Ast.Arr_decl { name; size; cls } ->
    Buffer.add_char b 'y';
    str b name;
    int b size;
    opt_str b cls
  | Ast.Sem_decl { name; init; cls } ->
    Buffer.add_char b 'z';
    str b name;
    int b init;
    opt_str b cls
  | Ast.Chan_decl { name; cap; cls } ->
    Buffer.add_char b 'q';
    str b name;
    int b cap;
    opt_str b cls

let entry b (e : Ast.iface_entry) =
  str b e.Ast.iv_name;
  str b e.Ast.iv_class

let module_unit b (m : Ast.module_unit) =
  str b m.Ast.iface.Ast.m_name;
  int b (List.length m.Ast.iface.Ast.provides);
  List.iter (entry b) m.Ast.iface.Ast.provides;
  int b (List.length m.Ast.iface.Ast.requires);
  List.iter (entry b) m.Ast.iface.Ast.requires;
  int b (List.length m.Ast.m_decls);
  List.iter (decl b) m.Ast.m_decls;
  stmt b m.Ast.m_body

let program b (p : Ast.program) =
  int b (List.length p.Ast.decls);
  List.iter (decl b) p.Ast.decls;
  stmt b p.Ast.body

let of_module m =
  let b = Buffer.create 1024 in
  module_unit b m;
  Buffer.contents b

let of_linked (l : Ast.linked) =
  let b = Buffer.create 4096 in
  int b (List.length l.Ast.modules);
  List.iter (module_unit b) l.Ast.modules;
  (match l.Ast.main with
  | None -> Buffer.add_char b '-'
  | Some p ->
    Buffer.add_char b 'P';
    program b p);
  Buffer.contents b
