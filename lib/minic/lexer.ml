(* Hand-written lexer for the C subset.  [#pragma] lines are lexed into a
   single TPRAGMA token carrying the tokens of the rest of the line;
   [#include] and [#define]-style lines we do not model are skipped. *)

exception Lex_error of string * Token.loc

let lex_error loc fmt = Format.kasprintf (fun s -> raise (Lex_error (s, loc))) fmt

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int; (* position of beginning of current line *)
}

let make src = { src; pos = 0; line = 1; bol = 0 }

let loc st = { Token.line = st.line; col = st.pos - st.bol + 1 }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st = if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  | _ -> ());
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c

let rec skip_ws_and_comments ?(stop_at_newline = false) st =
  match peek st with
  | Some '\n' when stop_at_newline -> ()
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws_and_comments ~stop_at_newline st
  | Some '\\' when peek2 st = Some '\n' ->
    (* Line continuation, notably inside pragma lines. *)
    advance st;
    advance st;
    skip_ws_and_comments ~stop_at_newline st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws_and_comments ~stop_at_newline st
  | Some '/' when peek2 st = Some '*' ->
    advance st;
    advance st;
    let rec finish () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | None, _ -> lex_error (loc st) "unterminated comment"
      | _ ->
        advance st;
        finish ()
    in
    finish ();
    skip_ws_and_comments ~stop_at_newline st
  | _ -> ()

(* An integer literal's suffix, as (has a [u], has an [l]). *)
let int_suffix st l =
  let s0 = st.pos in
  while (match peek st with Some ('u' | 'U' | 'l' | 'L') -> true | _ -> false) do
    advance st
  done;
  if st.pos = s0 then (false, false)
  else
    match String.lowercase_ascii (String.sub st.src s0 (st.pos - s0)) with
    | "u" -> (true, false)
    | "l" | "ll" -> (false, true)
    | "ul" | "lu" | "ull" | "llu" -> (true, true)
    | _ -> lex_error l "bad integer suffix"

(* The value of an integer literal's digits, up to 2^64 - 1 (a decimal
   one past 2^63 - 1 read as unsigned, [0u]). *)
let int_value l text =
  match Int64.of_string_opt text with
  | Some v -> v
  | None -> (
    match Int64.of_string_opt ("0u" ^ text) with
    | Some v -> v
    | None -> lex_error l "integer literal too large")

let lex_number st =
  let start = st.pos in
  let l = loc st in
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
    advance st;
    advance st;
    let h0 = st.pos in
    while (match peek st with Some c -> is_hex c | None -> false) do
      advance st
    done;
    if st.pos = h0 then lex_error l "bad hex literal";
    let text = String.sub st.src start (st.pos - start) in
    let unsigned, long = int_suffix st l in
    Token.TINT (int_value l text, { Token.hex = true; unsigned; long })
  end
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let is_float = ref false in
    if peek st = Some '.' && (match peek2 st with Some c -> is_digit c | _ -> true) then begin
      is_float := true;
      advance st;
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done
    end;
    (match peek st with
    | Some ('e' | 'E') ->
      is_float := true;
      advance st;
      (match peek st with Some ('+' | '-') -> advance st | _ -> ());
      while (match peek st with Some c -> is_digit c | None -> false) do
        advance st
      done
    | _ -> ());
    let text = String.sub st.src start (st.pos - start) in
    if !is_float then begin
      let is_double =
        match peek st with
        | Some ('f' | 'F') ->
          advance st;
          false
        | _ -> true
      in
      Token.TFLOAT (float_of_string text, is_double)
    end
    else begin
      let unsigned, long = int_suffix st l in
      match peek st with
      | Some ('f' | 'F') ->
        advance st;
        Token.TFLOAT (float_of_string text, false)
      | _ ->
        (* a leading 0 makes the literal octal, typed (and printed) as a hex one *)
        let octal = String.length text > 1 && text.[0] = '0' in
        if octal && String.exists (fun c -> c > '7') text then lex_error l "bad octal literal";
        Token.TINT
          (int_value l (if octal then "0o" ^ text else text), { Token.hex = octal; unsigned; long })
    end
  end

let lex_escaped st =
  match peek st with
  | Some 'n' -> advance st; '\n'
  | Some 't' -> advance st; '\t'
  | Some 'r' -> advance st; '\r'
  | Some '0' -> advance st; '\000'
  | Some '\\' -> advance st; '\\'
  | Some '\'' -> advance st; '\''
  | Some '"' -> advance st; '"'
  | Some c -> advance st; c
  | None -> lex_error (loc st) "unterminated escape"

let lex_string st =
  advance st (* opening quote *);
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      Buffer.add_char buf (lex_escaped st);
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
    | None -> lex_error (loc st) "unterminated string literal"
  in
  go ();
  Token.TSTRING (Buffer.contents buf)

let lex_char st =
  advance st (* opening quote *);
  let c =
    match peek st with
    | Some '\\' ->
      advance st;
      lex_escaped st
    | Some c ->
      advance st;
      c
    | None -> lex_error (loc st) "unterminated char literal"
  in
  (match peek st with
  | Some '\'' -> advance st
  | _ -> lex_error (loc st) "unterminated char literal");
  Token.TCHAR c

let op2 st tok =
  advance st;
  advance st;
  tok

let op3 st tok =
  advance st;
  advance st;
  advance st;
  tok

let op1 st tok =
  advance st;
  tok

(* Lex one token assuming whitespace has been skipped.  Never returns
   TPRAGMA; pragma handling is in [next]. *)
let lex_simple st : Token.t =
  let l = loc st in
  match (peek st, peek2 st) with
  | None, _ -> Token.EOF
  | Some c, _ when is_digit c -> lex_number st
  | Some '.', Some c when is_digit c -> lex_number st
  | Some c, _ when is_ident_start c ->
    let start = st.pos in
    while (match peek st with Some c -> is_ident_char c | None -> false) do
      advance st
    done;
    let text = String.sub st.src start (st.pos - start) in
    (match List.assoc_opt text Token.keyword_table with
    | Some kw -> kw
    | None -> Token.TIDENT text)
  | Some '"', _ -> lex_string st
  | Some '\'', _ -> lex_char st
  | Some '<', Some '<' ->
    if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '=' then op3 st Token.SHLEQ
    else op2 st Token.SHL
  | Some '>', Some '>' ->
    if st.pos + 2 < String.length st.src && st.src.[st.pos + 2] = '=' then op3 st Token.SHREQ
    else op2 st Token.SHR
  | Some '<', Some '=' -> op2 st Token.LE
  | Some '>', Some '=' -> op2 st Token.GE
  | Some '=', Some '=' -> op2 st Token.EQEQ
  | Some '!', Some '=' -> op2 st Token.NEQ
  | Some '&', Some '&' -> op2 st Token.ANDAND
  | Some '|', Some '|' -> op2 st Token.OROR
  | Some '+', Some '+' -> op2 st Token.PLUSPLUS
  | Some '-', Some '-' -> op2 st Token.MINUSMINUS
  | Some '-', Some '>' -> op2 st Token.ARROW
  | Some '+', Some '=' -> op2 st Token.PLUSEQ
  | Some '-', Some '=' -> op2 st Token.MINUSEQ
  | Some '*', Some '=' -> op2 st Token.STAREQ
  | Some '/', Some '=' -> op2 st Token.SLASHEQ
  | Some '%', Some '=' -> op2 st Token.PERCENTEQ
  | Some '&', Some '=' -> op2 st Token.AMPEQ
  | Some '|', Some '=' -> op2 st Token.PIPEEQ
  | Some '^', Some '=' -> op2 st Token.CARETEQ
  | Some '(', _ -> op1 st Token.LPAREN
  | Some ')', _ -> op1 st Token.RPAREN
  | Some '{', _ -> op1 st Token.LBRACE
  | Some '}', _ -> op1 st Token.RBRACE
  | Some '[', _ -> op1 st Token.LBRACKET
  | Some ']', _ -> op1 st Token.RBRACKET
  | Some ';', _ -> op1 st Token.SEMI
  | Some ',', _ -> op1 st Token.COMMA
  | Some '.', _ -> op1 st Token.DOT
  | Some '?', _ -> op1 st Token.QUESTION
  | Some ':', _ -> op1 st Token.COLON
  | Some '+', _ -> op1 st Token.PLUS
  | Some '-', _ -> op1 st Token.MINUS
  | Some '*', _ -> op1 st Token.STAR
  | Some '/', _ -> op1 st Token.SLASH
  | Some '%', _ -> op1 st Token.PERCENT
  | Some '&', _ -> op1 st Token.AMP
  | Some '|', _ -> op1 st Token.PIPE
  | Some '^', _ -> op1 st Token.CARET
  | Some '~', _ -> op1 st Token.TILDE
  | Some '!', _ -> op1 st Token.BANG
  | Some '<', _ -> op1 st Token.LT
  | Some '>', _ -> op1 st Token.GT
  | Some '=', _ -> op1 st Token.ASSIGN
  | Some c, _ -> lex_error l "unexpected character %C" c

(* Lex the remainder of a pragma line (respecting backslash continuations,
   which [skip_ws_and_comments] folds away). *)
let lex_pragma_line st =
  let toks = ref [] in
  let rec go () =
    skip_ws_and_comments ~stop_at_newline:true st;
    match peek st with
    | None | Some '\n' -> ()
    | _ ->
      toks := lex_simple st :: !toks;
      go ()
  in
  go ();
  List.rev !toks

let rec next st : Token.spanned =
  skip_ws_and_comments st;
  let l = loc st in
  match peek st with
  | Some '#' ->
    advance st;
    skip_ws_and_comments ~stop_at_newline:true st;
    let start = st.pos in
    while (match peek st with Some c -> is_ident_char c | None -> false) do
      advance st
    done;
    let word = String.sub st.src start (st.pos - start) in
    if word = "pragma" then { Token.tok = Token.TPRAGMA (lex_pragma_line st); loc = l }
    else begin
      (* Skip unsupported preprocessor directives (include, define, ...). *)
      while peek st <> None && peek st <> Some '\n' do
        advance st
      done;
      next st
    end
  | _ -> { Token.tok = lex_simple st; loc = l }

let tokenize src : Token.spanned list =
  let st = make src in
  let rec go acc =
    let t = next st in
    if t.Token.tok = Token.EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []
