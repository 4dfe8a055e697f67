(* Lexical tokens of the C subset.  A whole [#pragma ...] line is lexed
   into a [TPRAGMA] carrying its own token list; the OpenMP pragma parser
   (lib/omp) consumes those nested lists. *)

(* How an integer literal is written: in hex (or in octal, which C
   types alike), and with a [u]/[U] and an [l]/[L] (or [ll]) suffix;
   the parser types it from these. *)
type int_form = { hex : bool; unsigned : bool; long : bool }
[@@deriving show { with_path = false }, eq]

type t =
  | TINT of int64 * int_form
  | TFLOAT of float * bool (* value, is_double (no 'f' suffix) *)
  | TCHAR of char
  | TSTRING of string
  | TIDENT of string
  (* keywords *)
  | KW_VOID | KW_CHAR | KW_SHORT | KW_INT | KW_LONG | KW_UNSIGNED | KW_SIGNED
  | KW_FLOAT | KW_DOUBLE | KW_STRUCT | KW_IF | KW_ELSE | KW_WHILE | KW_DO
  | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE | KW_SIZEOF | KW_CONST
  | KW_STATIC | KW_EXTERN | KW_TYPEDEF
  (* punctuation *)
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | SEMI | COMMA | DOT | ARROW | QUESTION | COLON
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | AMP | PIPE | CARET | TILDE | BANG
  | LT | GT | LE | GE | EQEQ | NEQ
  | ANDAND | OROR | SHL | SHR
  | ASSIGN | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | PERCENTEQ
  | AMPEQ | PIPEEQ | CARETEQ | SHLEQ | SHREQ
  | PLUSPLUS | MINUSMINUS
  | TPRAGMA of t list
  | EOF
[@@deriving show { with_path = false }, eq]

type loc = { line : int; col : int } [@@deriving show { with_path = false }, eq]

type spanned = { tok : t; loc : loc } [@@deriving show { with_path = false }, eq]

let keyword_table =
  [
    ("void", KW_VOID); ("char", KW_CHAR); ("short", KW_SHORT); ("int", KW_INT);
    ("long", KW_LONG); ("unsigned", KW_UNSIGNED); ("signed", KW_SIGNED);
    ("float", KW_FLOAT); ("double", KW_DOUBLE); ("struct", KW_STRUCT);
    ("if", KW_IF); ("else", KW_ELSE); ("while", KW_WHILE); ("do", KW_DO);
    ("for", KW_FOR); ("return", KW_RETURN); ("break", KW_BREAK);
    ("continue", KW_CONTINUE); ("sizeof", KW_SIZEOF); ("const", KW_CONST);
    ("static", KW_STATIC); ("extern", KW_EXTERN); ("typedef", KW_TYPEDEF);
  ]

let to_source = function
  | TINT (i, f) ->
    (if f.hex then Printf.sprintf "0x%Lx" i else Printf.sprintf "%Lu" i)
    ^ (if f.unsigned then "u" else "")
    ^ if f.long then "l" else ""
  | TFLOAT (f, true) -> string_of_float f
  | TFLOAT (f, false) -> string_of_float f ^ "f"
  | TCHAR c -> Printf.sprintf "%C" c
  | TSTRING s -> Printf.sprintf "%S" s
  | TIDENT s -> s
  | KW_VOID -> "void" | KW_CHAR -> "char" | KW_SHORT -> "short" | KW_INT -> "int"
  | KW_LONG -> "long" | KW_UNSIGNED -> "unsigned" | KW_SIGNED -> "signed"
  | KW_FLOAT -> "float" | KW_DOUBLE -> "double" | KW_STRUCT -> "struct"
  | KW_IF -> "if" | KW_ELSE -> "else" | KW_WHILE -> "while" | KW_DO -> "do"
  | KW_FOR -> "for" | KW_RETURN -> "return" | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue" | KW_SIZEOF -> "sizeof" | KW_CONST -> "const"
  | KW_STATIC -> "static" | KW_EXTERN -> "extern" | KW_TYPEDEF -> "typedef"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACE -> "{" | RBRACE -> "}"
  | LBRACKET -> "[" | RBRACKET -> "]"
  | SEMI -> ";" | COMMA -> "," | DOT -> "." | ARROW -> "->"
  | QUESTION -> "?" | COLON -> ":"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*" | SLASH -> "/" | PERCENT -> "%"
  | AMP -> "&" | PIPE -> "|" | CARET -> "^" | TILDE -> "~" | BANG -> "!"
  | LT -> "<" | GT -> ">" | LE -> "<=" | GE -> ">=" | EQEQ -> "==" | NEQ -> "!="
  | ANDAND -> "&&" | OROR -> "||" | SHL -> "<<" | SHR -> ">>"
  | ASSIGN -> "=" | PLUSEQ -> "+=" | MINUSEQ -> "-=" | STAREQ -> "*="
  | SLASHEQ -> "/=" | PERCENTEQ -> "%=" | AMPEQ -> "&=" | PIPEEQ -> "|="
  | CARETEQ -> "^=" | SHLEQ -> "<<=" | SHREQ -> ">>="
  | PLUSPLUS -> "++" | MINUSMINUS -> "--"
  | TPRAGMA _ -> "#pragma"
  | EOF -> "<eof>"
