(* Lexer tests: token streams, literals, comments, pragma lines. *)

open Minic

let toks src = List.map (fun s -> s.Token.tok) (Lexer.tokenize src)

let tok_list = Alcotest.testable (Fmt.of_to_string (fun ts -> String.concat " " (List.map Token.show ts))) ( = )

let check expected src = Alcotest.check tok_list src (expected @ [ Token.EOF ]) (toks src)

let test_idents_keywords () =
  check [ Token.KW_INT; Token.TIDENT "x"; Token.SEMI ] "int x;";
  check [ Token.KW_FLOAT; Token.TIDENT "_f00"; Token.SEMI ] "float _f00;";
  check [ Token.KW_UNSIGNED; Token.KW_LONG; Token.TIDENT "u"; Token.SEMI ] "unsigned long u;";
  check [ Token.TIDENT "intx" ] "intx" (* not the keyword *)

(* A decimal literal without a suffix. *)
let decimal = { Token.hex = false; unsigned = false; long = false }

let test_numbers () =
  let hex = { decimal with Token.hex = true } in
  check [ Token.TINT (42L, decimal) ] "42";
  check [ Token.TINT (255L, hex) ] "0xFF";
  check [ Token.TINT (10L, { decimal with Token.long = true }) ] "10L";
  check [ Token.TINT (7L, { decimal with Token.unsigned = true }) ] "7u";
  check [ Token.TINT (7L, { hex with Token.unsigned = true; long = true }) ] "0x7uLL";
  check [ Token.TINT (-1L, { decimal with Token.unsigned = true }) ] "18446744073709551615u";
  Alcotest.(check bool) "bad suffix raises" true
    (match toks "1uu" with exception Lexer.Lex_error _ -> true | _ -> false);
  check [ Token.TFLOAT (1.5, true) ] "1.5";
  check [ Token.TFLOAT (1.5, false) ] "1.5f";
  check [ Token.TFLOAT (0.25, false) ] "0.25F";
  check [ Token.TFLOAT (2e3, true) ] "2e3";
  check [ Token.TFLOAT (1.5e-2, true) ] "1.5e-2";
  check [ Token.TFLOAT (3.0, false) ] "3f" (* integer with float suffix *)

let test_strings_chars () =
  check [ Token.TSTRING "hi" ] {|"hi"|};
  check [ Token.TSTRING "a\nb" ] {|"a\nb"|};
  check [ Token.TSTRING "q\"q" ] {|"q\"q"|};
  check [ Token.TCHAR 'x' ] "'x'";
  check [ Token.TCHAR '\n' ] {|'\n'|};
  check [ Token.TCHAR '\000' ] {|'\0'|}

let test_operators () =
  check [ Token.TIDENT "a"; Token.SHLEQ; Token.TINT (2L, decimal); Token.SEMI ] "a <<= 2;";
  check [ Token.TIDENT "a"; Token.ARROW; Token.TIDENT "b" ] "a->b";
  check [ Token.TIDENT "a"; Token.PLUSPLUS; Token.PLUS; Token.TIDENT "b" ] "a++ + b";
  check [ Token.AMP; Token.AMPEQ; Token.ANDAND ] "& &= &&";
  check [ Token.LT; Token.SHL; Token.LE; Token.SHLEQ ] "< << <= <<="

let test_comments () =
  let int i = Token.TINT (i, decimal) in
  check [ int 1L; int 2L ] "1 /* comment */ 2";
  check [ int 1L; int 2L ] "1 // line\n2";
  check [ int 1L; int 2L ] "1 /* multi\nline\n*/ 2";
  Alcotest.(check bool) "unterminated comment raises" true
    (match toks "1 /* oops" with exception Lexer.Lex_error _ -> true | _ -> false)

let test_pragma_lines () =
  match toks "#pragma omp parallel for\nint x;" with
  | [ Token.TPRAGMA inner; Token.KW_INT; Token.TIDENT "x"; Token.SEMI; Token.EOF ] ->
    Alcotest.check tok_list "pragma payload"
      [ Token.TIDENT "omp"; Token.TIDENT "parallel"; Token.KW_FOR; Token.EOF ]
      (inner @ [ Token.EOF ])
  | ts -> Alcotest.failf "unexpected tokens: %s" (String.concat ";" (List.map Token.show ts))

let test_pragma_continuation () =
  match toks "#pragma omp target map(to: a) \\\n    map(from: b)\nx;" with
  | Token.TPRAGMA inner :: _ -> Alcotest.(check int) "continuation joins lines" 14 (List.length inner)
  | _ -> Alcotest.fail "expected pragma"

let test_preprocessor_skipped () =
  check [ Token.KW_INT; Token.TIDENT "x"; Token.SEMI ] "#include <stdio.h>\nint x;";
  check [ Token.KW_INT; Token.TIDENT "y"; Token.SEMI ] "#define N 10\nint y;"

let test_locations () =
  let spanned = Lexer.tokenize "int\n  x;" in
  (match spanned with
  | { Token.tok = Token.KW_INT; loc } :: { Token.tok = Token.TIDENT "x"; loc = loc2 } :: _ ->
    Alcotest.(check int) "line 1" 1 loc.Token.line;
    Alcotest.(check int) "line 2" 2 loc2.Token.line;
    Alcotest.(check int) "col 3" 3 loc2.Token.col
  | _ -> Alcotest.fail "unexpected stream");
  Alcotest.(check bool) "bad char raises" true
    (match toks "int @" with exception Lexer.Lex_error _ -> true | _ -> false)

let prop_roundtrip_ints =
  QCheck.Test.make ~name:"integer literals roundtrip" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun i -> toks (string_of_int i) = [ Token.TINT (Int64.of_int i, decimal); Token.EOF ])

let () =
  Alcotest.run "lexer"
    [
      ( "tokens",
        [
          Alcotest.test_case "identifiers and keywords" `Quick test_idents_keywords;
          Alcotest.test_case "numeric literals" `Quick test_numbers;
          Alcotest.test_case "strings and chars" `Quick test_strings_chars;
          Alcotest.test_case "operators" `Quick test_operators;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "locations and errors" `Quick test_locations;
          QCheck_alcotest.to_alcotest prop_roundtrip_ints;
        ] );
      ( "pragmas",
        [
          Alcotest.test_case "pragma token lists" `Quick test_pragma_lines;
          Alcotest.test_case "backslash continuation" `Quick test_pragma_continuation;
          Alcotest.test_case "other preprocessor lines skipped" `Quick test_preprocessor_skipped;
        ] );
    ]
