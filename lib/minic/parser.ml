(* Recursive-descent parser for the C subset.  Understands full C
   declarator syntax (pointers, arrays, pointer-to-array, function
   parameters) because the master/worker code generator relies on
   pointer-to-array parameter types, cf. Fig. 3 of the paper. *)

open Machine

exception Parse_error of string * Token.loc

let parse_error loc fmt = Format.kasprintf (fun s -> raise (Parse_error (s, loc))) fmt

type state = { mutable toks : Token.spanned list; mutable structs : string list }

let make toks = { toks; structs = [] }

let peek st =
  match st.toks with
  | [] -> Token.EOF
  | { tok; _ } :: _ -> tok

let peek2 st =
  match st.toks with
  | _ :: { tok; _ } :: _ -> tok
  | _ -> Token.EOF

let cur_loc st =
  match st.toks with
  | [] -> { Token.line = 0; col = 0 }
  | { loc; _ } :: _ -> loc

let advance st =
  match st.toks with
  | [] -> ()
  | _ :: rest -> st.toks <- rest

let expect st tok =
  if Token.equal (peek st) tok then advance st
  else parse_error (cur_loc st) "expected '%s' but found '%s'" (Token.to_source tok) (Token.to_source (peek st))

let expect_ident st =
  match peek st with
  | Token.TIDENT x ->
    advance st;
    x
  | t -> parse_error (cur_loc st) "expected identifier, found '%s'" (Token.to_source t)

(* The type of an integer literal (C 6.4.4.1): the first of its
   candidate types that holds its value.  A decimal literal without a
   [u] suffix takes a signed type, a hex one may also take the unsigned
   types; a value no candidate holds is [unsigned long]. *)
let int_literal_type (i : int64) { Token.hex; unsigned; long } : Cty.t =
  if (not (unsigned || long)) && Int64.unsigned_compare i 0x7FFFFFFFL <= 0 then Cty.Int
  else if (unsigned || hex) && (not long) && Int64.unsigned_compare i 0xFFFFFFFFL <= 0 then Cty.Uint
  else if (not unsigned) && Int64.compare i 0L >= 0 then Cty.Long
  else Cty.Ulong

(* ---------------------------------------------------------------- *)
(* Type specifiers and declarators                                    *)
(* ---------------------------------------------------------------- *)

let starts_type st =
  match peek st with
  | Token.TIDENT "__shared__" -> true
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT | Token.KW_LONG
  | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT | Token.KW_DOUBLE
  | Token.KW_STRUCT | Token.KW_CONST | Token.KW_STATIC | Token.KW_EXTERN -> true
  | Token.TIDENT _ -> false
  | _ -> false

(* Parse declaration specifiers: a base type plus storage flags. *)
let parse_specifiers st : Cty.t * bool (* static *) =
  let signed = ref None and base = ref None and is_static = ref false in
  let set_base b =
    match !base with
    | None -> base := Some b
    | Some Cty.Long when b = Cty.Long -> () (* long long ~ long *)
    | Some Cty.Long when b = Cty.Int -> base := Some Cty.Long (* long int *)
    | Some Cty.Int when b = Cty.Long -> base := Some Cty.Long
    | Some Cty.Short when b = Cty.Int -> base := Some Cty.Short
    | Some _ -> parse_error (cur_loc st) "conflicting type specifiers"
  in
  let rec go () =
    match peek st with
    | Token.KW_CONST -> advance st; go ()
    | Token.KW_STATIC -> advance st; is_static := true; go ()
    | Token.KW_EXTERN -> advance st; go ()
    | Token.KW_VOID -> advance st; set_base Cty.Void; go ()
    | Token.KW_CHAR -> advance st; set_base Cty.Char; go ()
    | Token.KW_SHORT -> advance st; set_base Cty.Short; go ()
    | Token.KW_INT -> advance st; set_base Cty.Int; go ()
    | Token.KW_LONG -> advance st; set_base Cty.Long; go ()
    | Token.KW_FLOAT -> advance st; set_base Cty.Float; go ()
    | Token.KW_DOUBLE -> advance st; set_base Cty.Double; go ()
    | Token.KW_UNSIGNED -> advance st; signed := Some false; go ()
    | Token.KW_SIGNED -> advance st; signed := Some true; go ()
    | Token.KW_STRUCT ->
      advance st;
      let name = expect_ident st in
      set_base (Cty.Struct name);
      go ()
    | _ -> ()
  in
  go ();
  let base =
    match (!base, !signed) with
    | Some b, _ when !signed <> Some false -> b
    | Some Cty.Char, Some false -> Cty.Uchar
    | Some Cty.Short, Some false -> Cty.Ushort
    | Some Cty.Int, Some false -> Cty.Uint
    | Some Cty.Long, Some false -> Cty.Ulong
    | Some b, _ -> b
    | None, Some false -> Cty.Uint (* bare unsigned *)
    | None, Some true -> Cty.Int (* bare signed *)
    | None, None -> parse_error (cur_loc st) "expected type specifier"
  in
  (base, !is_static)

(* Declarator parsing.  We parse the declarator shape into a function
   that transforms the base type ("type algebra" approach), handling
   precedence: arrays/functions bind tighter than pointers. *)
type declarator = {
  decl_name : string option;
  wrap : Cty.t -> Cty.t;
  fn_params : (string * Cty.t) list option; (* set when declaring a function *)
}

let rec parse_declarator st ~parse_params : declarator =
  match peek st with
  | Token.STAR ->
    advance st;
    (* const after * *)
    (match peek st with Token.KW_CONST -> advance st | _ -> ());
    let inner = parse_declarator st ~parse_params in
    { inner with wrap = (fun ty -> inner.wrap (Cty.Ptr ty)) }
  | _ -> parse_direct_declarator st ~parse_params

and parse_direct_declarator st ~parse_params : declarator =
  let base =
    match peek st with
    | Token.TIDENT x ->
      advance st;
      { decl_name = Some x; wrap = (fun ty -> ty); fn_params = None }
    | Token.LPAREN when not (starts_abstract_params st) ->
      advance st;
      let inner = parse_declarator st ~parse_params in
      expect st Token.RPAREN;
      inner
    | _ -> { decl_name = None; wrap = (fun ty -> ty); fn_params = None }
  in
  parse_suffixes st base ~parse_params

(* In an abstract declarator context, '(' followed by a type or ')' starts a
   parameter list, not a parenthesised declarator. *)
and starts_abstract_params st =
  match peek2 st with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT | Token.KW_LONG
  | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT | Token.KW_DOUBLE
  | Token.KW_STRUCT | Token.KW_CONST | Token.RPAREN -> true
  | _ -> false

and parse_suffixes st (d : declarator) ~parse_params : declarator =
  match peek st with
  | Token.LBRACKET ->
    advance st;
    let dim =
      if Token.equal (peek st) Token.RBRACKET then None
      else begin
        let e = parse_assignment st in
        match Ast.const_eval_opt e with
        | Some n -> Some (Int64.to_int n)
        | None -> parse_error (cur_loc st) "array dimension must be a constant expression"
      end
    in
    expect st Token.RBRACKET;
    (* remaining suffixes describe the ELEMENT type: in D[2][3], the
       first dimension is outermost — Array(Array(elt, 3), 2) *)
    let rest = parse_suffixes st { decl_name = None; wrap = (fun ty -> ty); fn_params = None } ~parse_params in
    { d with wrap = (fun ty -> d.wrap (Cty.Array (rest.wrap ty, dim))) }
  | Token.LPAREN when parse_params ->
    advance st;
    let params = parse_param_list st in
    expect st Token.RPAREN;
    let d = parse_suffixes st d ~parse_params in
    let ptys = List.map snd params in
    {
      d with
      wrap = (fun ty -> d.wrap (Cty.Func (ty, ptys, false)));
      fn_params = (match d.fn_params with Some _ as p -> p | None -> Some params);
    }
  | _ -> d

and parse_param_list st : (string * Cty.t) list =
  match peek st with
  | Token.RPAREN -> []
  | Token.KW_VOID when Token.equal (peek2 st) Token.RPAREN ->
    advance st;
    []
  | _ ->
    let rec go acc =
      let base, _ = parse_specifiers st in
      let d = parse_declarator st ~parse_params:true in
      let ty = Cty.decay (d.wrap base) in
      let name = Option.value d.decl_name ~default:"" in
      let acc = (name, ty) :: acc in
      if Token.equal (peek st) Token.COMMA then begin
        advance st;
        go acc
      end
      else List.rev acc
    in
    go []

(* Type names appearing in casts and sizeof. *)
and parse_type_name st : Cty.t =
  let base, _ = parse_specifiers st in
  let d = parse_declarator st ~parse_params:true in
  d.wrap base

(* ---------------------------------------------------------------- *)
(* Expressions (precedence climbing)                                  *)
(* ---------------------------------------------------------------- *)

and parse_primary st : Ast.expr =
  match peek st with
  | Token.TINT (i, form) ->
    advance st;
    Ast.IntLit (i, int_literal_type i form)
  | Token.TFLOAT (f, is_double) ->
    advance st;
    Ast.FloatLit (f, if is_double then Cty.Double else Cty.Float)
  | Token.TCHAR c ->
    advance st;
    Ast.CharLit c
  | Token.TSTRING s ->
    advance st;
    (* adjacent string literal concatenation *)
    let buf = Buffer.create (String.length s) in
    Buffer.add_string buf s;
    let rec more () =
      match peek st with
      | Token.TSTRING s2 ->
        advance st;
        Buffer.add_string buf s2;
        more ()
      | _ -> ()
    in
    more ();
    Ast.StrLit (Buffer.contents buf)
  | Token.TIDENT x ->
    advance st;
    Ast.Ident x
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | t -> parse_error (cur_loc st) "unexpected token '%s' in expression" (Token.to_source t)

and parse_postfix st : Ast.expr =
  let rec loop e =
    match peek st with
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      loop (Ast.Index (e, idx))
    | Token.LPAREN ->
      advance st;
      let args =
        if Token.equal (peek st) Token.RPAREN then []
        else begin
          let rec go acc =
            let a = parse_assignment st in
            if Token.equal (peek st) Token.COMMA then begin
              advance st;
              go (a :: acc)
            end
            else List.rev (a :: acc)
          in
          go []
        end
      in
      expect st Token.RPAREN;
      (match e with
      | Ast.Ident f -> loop (Ast.Call (f, args))
      | _ -> parse_error (cur_loc st) "only direct calls by name are supported")
    | Token.DOT ->
      advance st;
      let f = expect_ident st in
      loop (Ast.Member (e, f))
    | Token.ARROW ->
      advance st;
      let f = expect_ident st in
      loop (Ast.Arrow (e, f))
    | Token.PLUSPLUS ->
      advance st;
      loop (Ast.Unop (Ast.PostInc, e))
    | Token.MINUSMINUS ->
      advance st;
      loop (Ast.Unop (Ast.PostDec, e))
    | _ -> e
  in
  loop (parse_primary st)

and starts_type_name st =
  match peek st with
  | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT | Token.KW_LONG
  | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT | Token.KW_DOUBLE
  | Token.KW_STRUCT | Token.KW_CONST -> true
  | _ -> false

and parse_unary st : Ast.expr =
  match peek st with
  | Token.PLUSPLUS ->
    advance st;
    Ast.Unop (Ast.PreInc, parse_unary st)
  | Token.MINUSMINUS ->
    advance st;
    Ast.Unop (Ast.PreDec, parse_unary st)
  | Token.PLUS ->
    advance st;
    parse_cast st
  | Token.MINUS ->
    advance st;
    Ast.Unop (Ast.Neg, parse_cast st)
  | Token.BANG ->
    advance st;
    Ast.Unop (Ast.Not, parse_cast st)
  | Token.TILDE ->
    advance st;
    Ast.Unop (Ast.BitNot, parse_cast st)
  | Token.STAR ->
    advance st;
    Ast.Deref (parse_cast st)
  | Token.AMP ->
    advance st;
    Ast.AddrOf (parse_cast st)
  | Token.KW_SIZEOF ->
    advance st;
    if Token.equal (peek st) Token.LPAREN then begin
      (* sizeof(type) or sizeof(expr) *)
      advance st;
      if starts_type_name st then begin
        let ty = parse_type_name st in
        expect st Token.RPAREN;
        Ast.SizeofT ty
      end
      else begin
        let e = parse_expr st in
        expect st Token.RPAREN;
        Ast.SizeofE e
      end
    end
    else Ast.SizeofE (parse_unary st)
  | _ -> parse_postfix st

and parse_cast st : Ast.expr =
  match peek st with
  | Token.LPAREN when starts_type_name_after_lparen st ->
    advance st;
    let ty = parse_type_name st in
    expect st Token.RPAREN;
    Ast.Cast (ty, parse_cast st)
  | _ -> parse_unary st

and starts_type_name_after_lparen st =
  match st.toks with
  | _ :: { tok; _ } :: _ -> (
    match tok with
    | Token.KW_VOID | Token.KW_CHAR | Token.KW_SHORT | Token.KW_INT | Token.KW_LONG
    | Token.KW_UNSIGNED | Token.KW_SIGNED | Token.KW_FLOAT | Token.KW_DOUBLE
    | Token.KW_STRUCT | Token.KW_CONST -> true
    | _ -> false)
  | _ -> false

and binop_of_token = function
  | Token.STAR -> Some (Ast.Mul, 10)
  | Token.SLASH -> Some (Ast.Div, 10)
  | Token.PERCENT -> Some (Ast.Mod, 10)
  | Token.PLUS -> Some (Ast.Add, 9)
  | Token.MINUS -> Some (Ast.Sub, 9)
  | Token.SHL -> Some (Ast.Shl, 8)
  | Token.SHR -> Some (Ast.Shr, 8)
  | Token.LT -> Some (Ast.Lt, 7)
  | Token.GT -> Some (Ast.Gt, 7)
  | Token.LE -> Some (Ast.Le, 7)
  | Token.GE -> Some (Ast.Ge, 7)
  | Token.EQEQ -> Some (Ast.Eq, 6)
  | Token.NEQ -> Some (Ast.Ne, 6)
  | Token.AMP -> Some (Ast.BitAnd, 5)
  | Token.CARET -> Some (Ast.BitXor, 4)
  | Token.PIPE -> Some (Ast.BitOr, 3)
  | Token.ANDAND -> Some (Ast.LogAnd, 2)
  | Token.OROR -> Some (Ast.LogOr, 1)
  | _ -> None

and parse_binary st min_prec : Ast.expr =
  let lhs = ref (parse_cast st) in
  let continue_loop = ref true in
  while !continue_loop do
    match binop_of_token (peek st) with
    | Some (op, prec) when prec >= min_prec ->
      advance st;
      let rhs = parse_binary st (prec + 1) in
      lhs := Ast.Binop (op, !lhs, rhs)
    | _ -> continue_loop := false
  done;
  !lhs

and parse_conditional st : Ast.expr =
  let cond = parse_binary st 1 in
  if Token.equal (peek st) Token.QUESTION then begin
    advance st;
    let t = parse_expr st in
    expect st Token.COLON;
    let f = parse_assignment st in
    Ast.Cond (cond, t, f)
  end
  else cond

and parse_assignment st : Ast.expr =
  let lhs = parse_conditional st in
  let mk op =
    advance st;
    let rhs = parse_assignment st in
    Ast.Assign (op, lhs, rhs)
  in
  match peek st with
  | Token.ASSIGN -> mk None
  | Token.PLUSEQ -> mk (Some Ast.Add)
  | Token.MINUSEQ -> mk (Some Ast.Sub)
  | Token.STAREQ -> mk (Some Ast.Mul)
  | Token.SLASHEQ -> mk (Some Ast.Div)
  | Token.PERCENTEQ -> mk (Some Ast.Mod)
  | Token.AMPEQ -> mk (Some Ast.BitAnd)
  | Token.PIPEEQ -> mk (Some Ast.BitOr)
  | Token.CARETEQ -> mk (Some Ast.BitXor)
  | Token.SHLEQ -> mk (Some Ast.Shl)
  | Token.SHREQ -> mk (Some Ast.Shr)
  | _ -> lhs

and parse_expr st : Ast.expr =
  let e = parse_assignment st in
  if Token.equal (peek st) Token.COMMA then begin
    advance st;
    Ast.Comma (e, parse_expr st)
  end
  else e

(* ---------------------------------------------------------------- *)
(* Statements                                                         *)
(* ---------------------------------------------------------------- *)

let rec parse_initializer st : Ast.init =
  if Token.equal (peek st) Token.LBRACE then begin
    advance st;
    let rec go acc =
      if Token.equal (peek st) Token.RBRACE then List.rev acc
      else begin
        let i = parse_initializer st in
        if Token.equal (peek st) Token.COMMA then advance st;
        go (i :: acc)
      end
    in
    let items = go [] in
    expect st Token.RBRACE;
    Ast.Ilist items
  end
  else Ast.Iexpr (parse_assignment st)

let parse_decl_group st : Ast.decl list =
  let shared =
    match peek st with
    | Token.TIDENT "__shared__" ->
      advance st;
      true
    | _ -> false
  in
  let base, _static = parse_specifiers st in
  let rec go acc =
    let d = parse_declarator st ~parse_params:true in
    let name =
      match d.decl_name with
      | Some n -> n
      | None -> parse_error (cur_loc st) "expected declarator name"
    in
    let ty = d.wrap base in
    let init = if Token.equal (peek st) Token.ASSIGN then (advance st; Some (parse_initializer st)) else None in
    let acc = { Ast.d_name = name; d_ty = ty; d_init = init; d_shared = shared } :: acc in
    if Token.equal (peek st) Token.COMMA then begin
      advance st;
      go acc
    end
    else List.rev acc
  in
  let ds = go [] in
  expect st Token.SEMI;
  ds

let rec parse_stmt st : Ast.stmt =
  match peek st with
  | Token.SEMI ->
    advance st;
    Ast.Snop
  | Token.LBRACE -> parse_block st
  | Token.KW_IF ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    let then_s = parse_stmt st in
    if Token.equal (peek st) Token.KW_ELSE then begin
      advance st;
      Ast.Sif (cond, then_s, Some (parse_stmt st))
    end
    else Ast.Sif (cond, then_s, None)
  | Token.KW_WHILE ->
    advance st;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    Ast.Swhile (cond, parse_stmt st)
  | Token.KW_DO ->
    advance st;
    let body = parse_stmt st in
    expect st Token.KW_WHILE;
    expect st Token.LPAREN;
    let cond = parse_expr st in
    expect st Token.RPAREN;
    expect st Token.SEMI;
    Ast.Sdo (body, cond)
  | Token.KW_FOR ->
    advance st;
    expect st Token.LPAREN;
    let init =
      if Token.equal (peek st) Token.SEMI then begin
        advance st;
        None
      end
      else if starts_type st then Some (Ast.Sdecl (parse_decl_group st))
      else begin
        let e = parse_expr st in
        expect st Token.SEMI;
        Some (Ast.Sexpr e)
      end
    in
    let cond = if Token.equal (peek st) Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    let update = if Token.equal (peek st) Token.RPAREN then None else Some (parse_expr st) in
    expect st Token.RPAREN;
    Ast.Sfor (init, cond, update, parse_stmt st)
  | Token.KW_RETURN ->
    advance st;
    if Token.equal (peek st) Token.SEMI then begin
      advance st;
      Ast.Sreturn None
    end
    else begin
      let e = parse_expr st in
      expect st Token.SEMI;
      Ast.Sreturn (Some e)
    end
  | Token.KW_BREAK ->
    advance st;
    expect st Token.SEMI;
    Ast.Sbreak
  | Token.KW_CONTINUE ->
    advance st;
    expect st Token.SEMI;
    Ast.Scontinue
  | Token.TPRAGMA toks ->
    advance st;
    (* A pragma may be stand-alone or apply to the following statement;
       the OpenMP rewriter (lib/omp) decides which, so at this stage we
       conservatively attach the next statement unless the pragma is
       obviously stand-alone. *)
    if Omp_raw.is_standalone toks then Ast.Spragma (Ast.Raw toks, None)
    else Ast.Spragma (Ast.Raw toks, Some (parse_stmt st))
  | _ when starts_type st -> Ast.Sdecl (parse_decl_group st)
  | _ ->
    let e = parse_expr st in
    expect st Token.SEMI;
    Ast.Sexpr e

and parse_block st : Ast.stmt =
  expect st Token.LBRACE;
  let rec go acc =
    if Token.equal (peek st) Token.RBRACE then begin
      advance st;
      Ast.Sblock (List.rev acc)
    end
    else go (parse_stmt st :: acc)
  in
  go []

(* ---------------------------------------------------------------- *)
(* Top level                                                          *)
(* ---------------------------------------------------------------- *)

let parse_struct_def st : Ast.global =
  (* struct NAME { fields } ; *)
  expect st Token.KW_STRUCT;
  let name = expect_ident st in
  expect st Token.LBRACE;
  let fields = ref [] in
  while not (Token.equal (peek st) Token.RBRACE) do
    let base, _ = parse_specifiers st in
    let rec go () =
      let d = parse_declarator st ~parse_params:true in
      (match d.decl_name with
      | Some n -> fields := (n, d.wrap base) :: !fields
      | None -> parse_error (cur_loc st) "expected field name");
      if Token.equal (peek st) Token.COMMA then begin
        advance st;
        go ()
      end
    in
    go ();
    expect st Token.SEMI
  done;
  expect st Token.RBRACE;
  expect st Token.SEMI;
  st.structs <- name :: st.structs;
  Ast.Gstruct (name, List.rev !fields)

let declarator_params (d : declarator) ty =
  match (d.fn_params, ty) with
  | Some params, _ -> params
  | None, Cty.Func (_, ptys, _) -> List.mapi (fun i ty -> (Printf.sprintf "arg%d" i, ty)) ptys
  | None, _ -> []

let parse_global st : Ast.global option =
  match peek st with
  | Token.EOF -> None
  | Token.TPRAGMA toks ->
    advance st;
    Some (Ast.Gpragma (Ast.Raw toks))
  | Token.KW_STRUCT when (match peek2 st with Token.TIDENT _ -> true | _ -> false)
                         && (match st.toks with
                            | _ :: _ :: { tok = Token.LBRACE; _ } :: _ -> true
                            | _ -> false) -> Some (parse_struct_def st)
  | _ ->
    let base, is_static = parse_specifiers st in
    let d = parse_declarator st ~parse_params:true in
    let name =
      match d.decl_name with
      | Some n -> n
      | None -> parse_error (cur_loc st) "expected declarator at top level"
    in
    let ty = d.wrap base in
    (match (ty, peek st) with
    | Cty.Func (ret, _, _), Token.LBRACE ->
      let params = declarator_params d ty in
      let params = List.map (fun (n, t) -> (n, Cty.decay t)) params in
      let body = parse_block st in
      Some (Ast.Gfun { f_name = name; f_ret = ret; f_params = params; f_body = body; f_static = is_static; f_device = false })
    | Cty.Func (ret, _, _), Token.SEMI ->
      advance st;
      let params = declarator_params d ty in
      Some (Ast.Gfundecl (name, ret, params))
    | _, _ ->
      let init =
        if Token.equal (peek st) Token.ASSIGN then begin
          advance st;
          Some (parse_initializer st)
        end
        else None
      in
      expect st Token.SEMI;
      Some (Ast.Gvar ({ d_name = name; d_ty = ty; d_init = init; d_shared = false }, false)))

let parse_program_tokens toks : Ast.program =
  let st = make toks in
  let rec go acc =
    match parse_global st with
    | None -> List.rev acc
    | Some g -> go (g :: acc)
  in
  go []

let parse_program (src : string) : Ast.program = parse_program_tokens (Lexer.tokenize src)

let parse_expr_string (src : string) : Ast.expr =
  let st = make (Lexer.tokenize src) in
  parse_expr st

(* Parse an expression from a raw token list (used by the pragma parser).
   Stops at the first comma so clause argument lists can be split. *)
let parse_assignment_tokens (toks : Token.t list) : Ast.expr * Token.t list =
  let spanned = List.map (fun tok -> { Token.tok; loc = { Token.line = 0; col = 0 } }) toks in
  let st = make spanned in
  let e = parse_assignment st in
  (e, List.map (fun s -> s.Token.tok) st.toks)
