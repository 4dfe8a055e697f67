(* Parser tests: declarators, expressions, statements, top level, and a
   pretty-print/re-parse fixpoint property over a corpus. *)

open Minic

let parse = Parser.parse_program

let parse_expr = Parser.parse_expr_string

let expr = Alcotest.testable (Fmt.of_to_string Ast.show_expr) Ast.equal_expr

let fundef_of src =
  match parse src with
  | [ Ast.Gfun f ] -> f
  | _ -> Alcotest.fail "expected exactly one function"

(* ------------------------- declarators ------------------------- *)

let cty = Alcotest.testable (Fmt.of_to_string Machine.Cty.show) Machine.Cty.equal

let var_of src =
  match parse src with
  | [ Ast.Gvar (d, _) ] -> d
  | _ -> Alcotest.fail "expected a single global variable"

let test_declarators () =
  Alcotest.check cty "pointer" (Machine.Cty.Ptr Machine.Cty.Float) (var_of "float *p;").Ast.d_ty;
  Alcotest.check cty "array" (Machine.Cty.Array (Machine.Cty.Int, Some 8)) (var_of "int a[8];").Ast.d_ty;
  Alcotest.check cty "2d array"
    (Machine.Cty.Array (Machine.Cty.Array (Machine.Cty.Float, Some 3), Some 2))
    (var_of "float m[2][3];").Ast.d_ty;
  Alcotest.check cty "pointer to array"
    (Machine.Cty.Ptr (Machine.Cty.Array (Machine.Cty.Int, Some 96)))
    (var_of "int (*x)[96];").Ast.d_ty;
  Alcotest.check cty "array of pointers"
    (Machine.Cty.Array (Machine.Cty.Ptr Machine.Cty.Int, Some 4))
    (var_of "int *x[4];").Ast.d_ty;
  Alcotest.check cty "const dims fold"
    (Machine.Cty.Array (Machine.Cty.Int, Some 64))
    (var_of "int a[8 * 8];").Ast.d_ty

let test_function_params () =
  let f = fundef_of "void f(float a, float x[], int *p, int n) { }" in
  Alcotest.(check (list string)) "names" [ "a"; "x"; "p"; "n" ] (List.map fst f.Ast.f_params);
  Alcotest.check cty "array param decays" (Machine.Cty.Ptr Machine.Cty.Float)
    (List.assoc "x" f.Ast.f_params);
  let g = fundef_of "int g(void) { return 0; }" in
  Alcotest.(check int) "void params" 0 (List.length g.Ast.f_params)

let test_struct_def () =
  match parse "struct pair { int a; float b; }; struct pair p;" with
  | [ Ast.Gstruct ("pair", fields); Ast.Gvar (d, _) ] ->
    Alcotest.(check (list string)) "fields" [ "a"; "b" ] (List.map fst fields);
    Alcotest.check cty "var type" (Machine.Cty.Struct "pair") d.Ast.d_ty
  | _ -> Alcotest.fail "unexpected parse"

(* ------------------------- expressions ------------------------- *)

let test_precedence () =
  Alcotest.check expr "mul binds tighter"
    (Ast.Binop (Ast.Add, Ast.int_lit 1, Ast.Binop (Ast.Mul, Ast.int_lit 2, Ast.int_lit 3)))
    (parse_expr "1 + 2 * 3");
  Alcotest.check expr "shift vs compare"
    (Ast.Binop (Ast.Lt, Ast.Binop (Ast.Shl, Ast.ident "a", Ast.int_lit 1), Ast.ident "b"))
    (parse_expr "a << 1 < b");
  Alcotest.check expr "logical precedence"
    (Ast.Binop (Ast.LogOr, Ast.ident "a", Ast.Binop (Ast.LogAnd, Ast.ident "b", Ast.ident "c")))
    (parse_expr "a || b && c");
  Alcotest.check expr "assignment right assoc"
    (Ast.Assign (None, Ast.ident "a", Ast.Assign (None, Ast.ident "b", Ast.int_lit 1)))
    (parse_expr "a = b = 1");
  Alcotest.check expr "unary minus"
    (Ast.Binop (Ast.Sub, Ast.int_lit 0, Ast.Unop (Ast.Neg, Ast.ident "x")))
    (parse_expr "0 - -x")

let test_postfix () =
  Alcotest.check expr "index chain"
    (Ast.Index (Ast.Index (Ast.ident "a", Ast.int_lit 1), Ast.int_lit 2))
    (parse_expr "a[1][2]");
  Alcotest.check expr "member then call arg"
    (Ast.Call ("f", [ Ast.Member (Ast.ident "s", "x") ]))
    (parse_expr "f(s.x)");
  Alcotest.check expr "arrow" (Ast.Arrow (Ast.ident "p", "y")) (parse_expr "p->y");
  Alcotest.check expr "postinc on index"
    (Ast.Unop (Ast.PostInc, Ast.Index (Ast.ident "a", Ast.ident "i")))
    (parse_expr "a[i]++")

let test_casts_sizeof () =
  Alcotest.check expr "cast" (Ast.Cast (Machine.Cty.Ptr Machine.Cty.Float, Ast.ident "p"))
    (parse_expr "(float *)p");
  Alcotest.check expr "cast to ptr-to-array"
    (Ast.Cast (Machine.Cty.Ptr (Machine.Cty.Array (Machine.Cty.Int, Some 96)), Ast.ident "v"))
    (parse_expr "(int (*)[96])v");
  Alcotest.check expr "sizeof type" (Ast.SizeofT Machine.Cty.Double) (parse_expr "sizeof(double)");
  Alcotest.check expr "sizeof expr" (Ast.SizeofE (Ast.ident "x")) (parse_expr "sizeof(x)");
  Alcotest.check expr "parenthesised expr is not a cast"
    (Ast.Binop (Ast.Mul, Ast.ident "a", Ast.ident "b"))
    (parse_expr "(a) * b")

let test_conditional_comma () =
  Alcotest.check expr "ternary"
    (Ast.Cond (Ast.ident "c", Ast.int_lit 1, Ast.int_lit 2))
    (parse_expr "c ? 1 : 2");
  Alcotest.check expr "comma"
    (Ast.Comma (Ast.Assign (None, Ast.ident "a", Ast.int_lit 1), Ast.ident "b"))
    (parse_expr "a = 1, b")

(* Integer literals are typed by C 6.4.4.1: the first candidate type
   that holds the value, the candidates set by the suffix and (for the
   unsigned types) by hex; Pretty prints each type back. *)
let test_int_literal_types () =
  let open Machine.Cty in
  List.iter
    (fun (src, v, ty, printed) ->
      let e = parse_expr src in
      Alcotest.check expr src (Ast.IntLit (v, ty)) e;
      Alcotest.(check string) ("pretty " ^ src) printed (Format.asprintf "%a" Pretty.pp_expr e);
      Alcotest.check expr ("reparse " ^ src) e (parse_expr printed))
    [
      ("1", 1L, Int, "1");
      ("2147483647", 0x7FFFFFFFL, Int, "2147483647");
      ("2147483648", 0x80000000L, Long, "2147483648L");
      ("0x7FFFFFFF", 0x7FFFFFFFL, Int, "2147483647");
      ("0x80000000", 0x80000000L, Uint, "2147483648U");
      ("0x100000000", 0x100000000L, Long, "4294967296L");
      ("0xFFFFFFFFFFFFFFFF", -1L, Ulong, "18446744073709551615UL");
      ("1u", 1L, Uint, "1U");
      ("4294967296u", 0x100000000L, Ulong, "4294967296UL");
      ("1L", 1L, Long, "1L");
      ("1ll", 1L, Long, "1L");
      ("1UL", 1L, Ulong, "1UL");
      ("1lu", 1L, Ulong, "1UL");
      ("9223372036854775808", Int64.min_int, Ulong, "9223372036854775808UL");
    ]

(* ------------------------- statements ------------------------- *)

let body_of src = (fundef_of ("void t(void) { " ^ src ^ " }")).Ast.f_body

let test_statements () =
  (match body_of "if (x) y = 1; else y = 2;" with
  | Ast.Sblock [ Ast.Sif (_, _, Some _) ] -> ()
  | s -> Alcotest.failf "if/else: %s" (Ast.show_stmt s));
  (match body_of "while (i < 10) i++;" with
  | Ast.Sblock [ Ast.Swhile (_, _) ] -> ()
  | _ -> Alcotest.fail "while");
  (match body_of "do i--; while (i);" with
  | Ast.Sblock [ Ast.Sdo (_, _) ] -> ()
  | _ -> Alcotest.fail "do-while");
  (match body_of "for (int i = 0; i < n; i++) s += i;" with
  | Ast.Sblock [ Ast.Sfor (Some (Ast.Sdecl _), Some _, Some _, _) ] -> ()
  | _ -> Alcotest.fail "for with decl");
  (match body_of "for (;;) break;" with
  | Ast.Sblock [ Ast.Sfor (None, None, None, Ast.Sbreak) ] -> ()
  | _ -> Alcotest.fail "empty for");
  match body_of "int a = 1, b = 2;" with
  | Ast.Sblock [ Ast.Sdecl [ _; _ ] ] -> ()
  | _ -> Alcotest.fail "multi declarator"

let test_dangling_else () =
  match body_of "if (a) if (b) x = 1; else x = 2;" with
  | Ast.Sblock [ Ast.Sif (_, Ast.Sif (_, _, Some _), None) ] -> ()
  | s -> Alcotest.failf "dangling else binds to inner if: %s" (Ast.show_stmt s)

let test_pragma_attachment () =
  (match body_of "#pragma omp barrier\nx = 1;" with
  | Ast.Sblock [ Ast.Spragma (Ast.Raw _, None); Ast.Sexpr _ ] -> ()
  | s -> Alcotest.failf "standalone pragma: %s" (Ast.show_stmt s));
  match body_of "#pragma omp parallel\n{ x = 1; }" with
  | Ast.Sblock [ Ast.Spragma (Ast.Raw _, Some (Ast.Sblock _)) ] -> ()
  | s -> Alcotest.failf "pragma with body: %s" (Ast.show_stmt s)

let test_shared_qualifier () =
  match body_of "__shared__ struct dim3 v;" with
  | Ast.Sblock [ Ast.Sdecl [ d ] ] -> Alcotest.(check bool) "shared flag" true d.Ast.d_shared
  | _ -> Alcotest.fail "shared decl"

let test_initializer_lists () =
  match body_of "int a[3] = { 1, 2, 3 };" with
  | Ast.Sblock [ Ast.Sdecl [ { Ast.d_init = Some (Ast.Ilist [ _; _; _ ]); _ } ] ] -> ()
  | _ -> Alcotest.fail "initializer list"

let test_parse_errors () =
  let fails src = match parse src with exception Parser.Parse_error _ -> true | _ -> false in
  Alcotest.(check bool) "missing semi" true (fails "int x");
  Alcotest.(check bool) "unbalanced paren" true (fails "void f(void) { g(1; }");
  Alcotest.(check bool) "vla dimension" true (fails "void f(int n) { int a[n]; }")

(* pretty -> parse fixpoint over a corpus *)
let corpus =
  [
    "void saxpy(float a, float *x, float *y, int n)\n{\n  int i;\n  for (i = 0; i < n; i++)\n    y[i] = a * x[i] + y[i];\n}";
    "int fib(int n)\n{\n  if (n < 2)\n    return n;\n  return fib(n - 1) + fib(n - 2);\n}";
    "struct p { int a; float b; };\n\nfloat get(struct p *s)\n{\n  return s->b + s->a;\n}";
    "void k(int *out)\n{\n  int i = 0;\n  while (i < 10)\n  {\n    out[i] = i % 3 == 0 ? -i : i;\n    i++;\n  }\n}";
    "void m(float (*a)[16], int n)\n{\n  for (int i = 0; i < n; i++)\n    for (int j = 0; j < n; j++)\n      a[i][j] = (float)(i * j) / 2.0f;\n}";
  ]

let test_pretty_parse_fixpoint () =
  List.iter
    (fun src ->
      let p1 = parse src in
      let printed = Pretty.program_to_string p1 in
      let p2 = parse printed in
      if not (Ast.equal_program p1 p2) then
        Alcotest.failf "fixpoint failure.\n-- source --\n%s\n-- printed --\n%s" src printed)
    corpus

(* Reduction clauses survive a pragma-parse -> pretty -> pragma-parse
   round trip for every operator, including the min/max identifier
   forms; unknown operators are rejected at parse time. *)
let parse_omp_directive (line : string) : Ast.directive option =
  match Lexer.tokenize ("#pragma " ^ line ^ "\nx;") |> List.map (fun s -> s.Token.tok) with
  | Token.TPRAGMA toks :: _ -> Omp.Pragma_parser.parse toks
  | _ -> None

let test_reduction_roundtrip () =
  List.iter
    (fun op ->
      let line = Printf.sprintf "omp target teams distribute parallel for reduction(%s: s, t)" op in
      let d1 =
        match parse_omp_directive line with
        | Some d -> d
        | None -> Alcotest.failf "'%s' not recognised" line
      in
      let printed = Format.asprintf "%a" Pretty.pp_directive d1 in
      let reparse_line = String.sub printed 8 (String.length printed - 8) in
      let d2 =
        match parse_omp_directive reparse_line with
        | Some d -> d
        | None -> Alcotest.failf "printed form '%s' not recognised" printed
      in
      if d1 <> d2 then
        Alcotest.failf "reduction(%s) round trip changed the directive:\n%s" op printed;
      match List.filter (function Ast.Creduction _ -> true | _ -> false) d2.Ast.dir_clauses with
      | [ Ast.Creduction (_, [ "s"; "t" ]) ] -> ()
      | _ -> Alcotest.failf "reduction(%s) lost its variable list" op)
    [ "+"; "*"; "max"; "min"; "&"; "|"; "^"; "&&"; "||" ]

(* device(n) survives parse -> pretty -> parse with the constant
   intact; negative and non-constant arguments are pragma errors. *)
let test_device_roundtrip () =
  let line = "omp target teams distribute parallel for device(2) map(tofrom: x[0:n])" in
  let d1 =
    match parse_omp_directive line with
    | Some d -> d
    | None -> Alcotest.failf "'%s' not recognised" line
  in
  let printed = Format.asprintf "%a" Pretty.pp_directive d1 in
  Alcotest.(check bool) "printed form names the device" true
    (let rec go i =
       i + 9 <= String.length printed && (String.sub printed i 9 = "device(2)" || go (i + 1))
     in
     go 0);
  let d2 =
    match parse_omp_directive (String.sub printed 8 (String.length printed - 8)) with
    | Some d -> d
    | None -> Alcotest.failf "printed form '%s' not recognised" printed
  in
  if d1 <> d2 then Alcotest.failf "device(2) round trip changed the directive:\n%s" printed;
  match List.filter (function Ast.Cdevice _ -> true | _ -> false) d2.Ast.dir_clauses with
  | [ Ast.Cdevice e ] -> Alcotest.(check bool) "constant kept" true (Ast.const_eval_opt e = Some 2L)
  | _ -> Alcotest.fail "device clause lost"

let test_device_bad_args () =
  List.iter
    (fun arg ->
      let line = Printf.sprintf "omp target device(%s)" arg in
      match parse_omp_directive line with
      | exception Omp.Pragma_parser.Pragma_error _ -> ()
      | _ -> Alcotest.failf "device(%s) should be a pragma error" arg)
    [ "-1"; "n"; "2 * k" ]

let test_reduction_bad_ops () =
  List.iter
    (fun op ->
      let line = Printf.sprintf "omp parallel for reduction(%s: s)" op in
      match parse_omp_directive line with
      | exception Omp.Pragma_parser.Pragma_error _ -> ()
      | _ -> Alcotest.failf "reduction(%s) should be a pragma error" op)
    [ "-"; "/"; "%"; "<<"; "avg"; "minmax" ]

let () =
  Alcotest.run "parser"
    [
      ( "declarations",
        [
          Alcotest.test_case "declarators" `Quick test_declarators;
          Alcotest.test_case "function parameters" `Quick test_function_params;
          Alcotest.test_case "struct definitions" `Quick test_struct_def;
          Alcotest.test_case "initializer lists" `Quick test_initializer_lists;
          Alcotest.test_case "__shared__ qualifier" `Quick test_shared_qualifier;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "precedence" `Quick test_precedence;
          Alcotest.test_case "postfix" `Quick test_postfix;
          Alcotest.test_case "casts and sizeof" `Quick test_casts_sizeof;
          Alcotest.test_case "conditional and comma" `Quick test_conditional_comma;
          Alcotest.test_case "integer literal types" `Quick test_int_literal_types;
        ] );
      ( "statements",
        [
          Alcotest.test_case "statement forms" `Quick test_statements;
          Alcotest.test_case "dangling else" `Quick test_dangling_else;
          Alcotest.test_case "pragma attachment" `Quick test_pragma_attachment;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "pretty-parse fixpoint" `Quick test_pretty_parse_fixpoint;
          Alcotest.test_case "reduction operators" `Quick test_reduction_roundtrip;
          Alcotest.test_case "unknown reduction operators" `Quick test_reduction_bad_ops;
          Alcotest.test_case "device clause" `Quick test_device_roundtrip;
          Alcotest.test_case "bad device arguments" `Quick test_device_bad_args;
        ] );
    ]
