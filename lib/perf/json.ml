(* Minimal JSON support for the trace exporters and the trace-schema
   smoke check.  The toolchain ships no JSON library, and the subset the
   Chrome trace format needs is small, so we keep a self-contained
   value type, printer and recursive-descent parser here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------------------------------------------------------- *)
(* Printing                                                           *)
(* ---------------------------------------------------------------- *)

let escape_string (s : string) : string =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* The shortest of %.15g and %.17g that reads back as the same float:
   5.784 prints as "5.784", not "5.7839999999999998", and every finite
   float survives a print/parse round trip bit for bit. *)
let number_to_string (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec write (buf : Buffer.t) (v : t) : unit =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool true -> Buffer.add_string buf "true"
  | Bool false -> Buffer.add_string buf "false"
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape_string s);
    Buffer.add_char buf '"'
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_char buf '"';
        Buffer.add_string buf (escape_string k);
        Buffer.add_string buf "\":";
        write buf item)
      fields;
    Buffer.add_char buf '}'

let to_string (v : t) : string =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Parsing                                                            *)
(* ---------------------------------------------------------------- *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  let rec go () =
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      go ()
    | _ -> ()
  in
  go ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let expect_word c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then (
    c.pos <- c.pos + n;
    v)
  else fail c (Printf.sprintf "expected '%s'" word)

let parse_string_lit c : string =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | Some 'n' -> advance c; Buffer.add_char buf '\n'; go ()
      | Some 't' -> advance c; Buffer.add_char buf '\t'; go ()
      | Some 'r' -> advance c; Buffer.add_char buf '\r'; go ()
      | Some 'b' -> advance c; Buffer.add_char buf '\b'; go ()
      | Some 'f' -> advance c; Buffer.add_char buf '\012'; go ()
      | Some '/' -> advance c; Buffer.add_char buf '/'; go ()
      | Some '"' -> advance c; Buffer.add_char buf '"'; go ()
      | Some '\\' -> advance c; Buffer.add_char buf '\\'; go ()
      | Some 'u' ->
        advance c;
        if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
        let hex = String.sub c.src c.pos 4 in
        let code = try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape" in
        c.pos <- c.pos + 4;
        (* good enough for trace data: encode as UTF-8 *)
        if code < 0x80 then Buffer.add_char buf (Char.chr code)
        else if code < 0x800 then (
          Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))))
        else (
          Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
          Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
          Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F))));
        go ()
      | _ -> fail c "bad escape")
    | Some ch ->
      advance c;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c : float =
  let start = c.pos in
  let is_num_char ch =
    match ch with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  let rec go () =
    match peek c with
    | Some ch when is_num_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.pos = start then fail c "expected number";
  let text = String.sub c.src start (c.pos - start) in
  match float_of_string_opt text with Some f -> f | None -> fail c "bad number"

let rec parse_value c : t =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string_lit c)
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some 't' -> expect_word c "true" (Bool true)
  | Some 'f' -> expect_word c "false" (Bool false)
  | Some 'n' -> expect_word c "null" Null
  | Some ('-' | '0' .. '9') -> Num (parse_number c)
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

and parse_obj c : t =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then (
    advance c;
    Obj [])
  else
    let rec fields acc =
      skip_ws c;
      let key = parse_string_lit c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        fields ((key, v) :: acc)
      | Some '}' ->
        advance c;
        Obj (List.rev ((key, v) :: acc))
      | _ -> fail c "expected ',' or '}'"
    in
    fields []

and parse_list c : t =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then (
    advance c;
    List [])
  else
    let rec items acc =
      let v = parse_value c in
      skip_ws c;
      match peek c with
      | Some ',' ->
        advance c;
        items (v :: acc)
      | Some ']' ->
        advance c;
        List (List.rev (v :: acc))
      | _ -> fail c "expected ',' or ']'"
    in
    items []

let of_string (s : string) : (t, string) result =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing input";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---------------------------------------------------------------- *)
(* Accessors                                                          *)
(* ---------------------------------------------------------------- *)

let member (key : string) (v : t) : t option =
  match v with Obj fields -> List.assoc_opt key fields | _ -> None

let to_list_opt (v : t) : t list option = match v with List items -> Some items | _ -> None

let to_string_opt (v : t) : string option = match v with Str s -> Some s | _ -> None

let to_number_opt (v : t) : float option = match v with Num f -> Some f | _ -> None

let to_bool_opt (v : t) : bool option = match v with Bool b -> Some b | _ -> None
