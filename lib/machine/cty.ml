(* C type representation shared by the front end, the interpreter and the
   memory model.  Sizes follow the LP64 ABI of the Jetson Nano's AArch64
   Linux: char 1, short 2, int 4, long 8, float 4, double 8, pointer 8. *)

type t =
  | Void
  | Char
  | Short
  | Int
  | Long
  | Uchar
  | Ushort
  | Uint
  | Ulong
  | Float
  | Double
  | Ptr of t
  | Array of t * int option
  | Struct of string
  | Func of t * t list * bool (* return, params, variadic *)
[@@deriving show { with_path = false }, eq, ord]

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* Struct layouts are resolved against an environment so that independent
   compilations do not share hidden global state. *)
type field = { fld_name : string; fld_ty : t; fld_off : int }

type layout = { lay_name : string; lay_fields : field list; lay_size : int; lay_align : int }

type layout_env = (string, layout) Hashtbl.t

let create_layout_env () : layout_env = Hashtbl.create 16

let is_integer = function
  | Char | Short | Int | Long | Uchar | Ushort | Uint | Ulong -> true
  | Void | Float | Double | Ptr _ | Array _ | Struct _ | Func _ -> false

let is_unsigned = function
  | Uchar | Ushort | Uint | Ulong -> true
  | Char | Short | Int | Long | Void | Float | Double | Ptr _ | Array _ | Struct _ | Func _ ->
    false

let is_float = function
  | Float | Double -> true
  | Char | Short | Int | Long | Uchar | Ushort | Uint | Ulong -> false
  | Void | Ptr _ | Array _ | Struct _ | Func _ -> false

let is_arith ty = is_integer ty || is_float ty

let is_pointer = function Ptr _ | Array _ -> true | _ -> false

let is_scalar ty = is_arith ty || is_pointer ty

let rec sizeof (env : layout_env) = function
  | Void -> type_error "sizeof(void)"
  | Char | Uchar -> 1
  | Short | Ushort -> 2
  | Int | Uint | Float -> 4
  | Long | Ulong | Double | Ptr _ -> 8
  | Array (elt, Some n) -> n * sizeof env elt
  | Array (_, None) -> type_error "sizeof of incomplete array"
  | Struct name -> (lookup_layout env name).lay_size
  | Func _ -> type_error "sizeof of function type"

and alignof (env : layout_env) = function
  | Array (elt, _) -> alignof env elt
  | Struct name -> (lookup_layout env name).lay_align
  | Void -> 1
  | ty -> sizeof env ty

and lookup_layout env name =
  match Hashtbl.find_opt env name with
  | Some l -> l
  | None -> type_error "unknown struct '%s'" name

let has_layout env name = Hashtbl.mem env name

let align_up off align = (off + align - 1) / align * align

(* Compute and register the layout of a struct definition. *)
let define_struct env name (fields : (string * t) list) : layout =
  let off = ref 0 and max_align = ref 1 in
  let lay_fields =
    List.map
      (fun (fld_name, fld_ty) ->
        let a = alignof env fld_ty in
        if a > !max_align then max_align := a;
        let fld_off = align_up !off a in
        off := fld_off + sizeof env fld_ty;
        { fld_name; fld_ty; fld_off })
      fields
  in
  let lay = { lay_name = name; lay_fields; lay_size = align_up !off !max_align; lay_align = !max_align } in
  Hashtbl.replace env name lay;
  lay

let find_field env sname fname =
  let lay = lookup_layout env sname in
  match List.find_opt (fun f -> f.fld_name = fname) lay.lay_fields with
  | Some f -> f
  | None -> type_error "struct '%s' has no field '%s'" sname fname

(* Array-to-pointer decay, as applied to rvalue uses and parameters. *)
let decay = function Array (elt, _) -> Ptr elt | ty -> ty

let pointee = function
  | Ptr t | Array (t, _) -> t
  | ty -> type_error "dereferencing non-pointer type %s" (show ty)

(* The integer promotions: a [char] or [short] operand becomes an [int];
   every other type is its own promotion. *)
let promote = function Char | Uchar | Short | Ushort -> Int | ty -> ty

(* Usual arithmetic conversions, restricted to the types we support. *)
let rank = function
  | Char | Uchar -> 1
  | Short | Ushort -> 2
  | Int | Uint -> 3
  | Long | Ulong -> 4
  | _ -> 0

let common_arith a b =
  match (a, b) with
  | Double, _ | _, Double -> Double
  | Float, _ | _, Float -> Float
  | a, b when is_integer a && is_integer b ->
    let r = max (max (rank a) (rank b)) 3 in
    let unsigned = is_unsigned a || is_unsigned b in
    (match (r, unsigned) with
    | 3, false -> Int
    | 3, true -> Uint
    | 4, false -> Long
    | 4, true -> Ulong
    | _ -> Int)
  | a, b -> type_error "no common arithmetic type for %s and %s" (show a) (show b)

let rec to_c_string ?(name = "") ty =
  (* Render [ty] as C syntax around declarator [name]. *)
  match ty with
  | Void -> spaced "void" name
  | Char -> spaced "char" name
  | Short -> spaced "short" name
  | Int -> spaced "int" name
  | Long -> spaced "long" name
  | Uchar -> spaced "unsigned char" name
  | Ushort -> spaced "unsigned short" name
  | Uint -> spaced "unsigned int" name
  | Ulong -> spaced "unsigned long" name
  | Float -> spaced "float" name
  | Double -> spaced "double" name
  | Struct s -> spaced ("struct " ^ s) name
  | Ptr inner ->
    let name = "*" ^ name in
    (match inner with
    | Array _ | Func _ -> to_c_string ~name:("(" ^ name ^ ")") inner
    | _ -> to_c_string ~name inner)
  | Array (elt, n) ->
    let dim = match n with Some n -> string_of_int n | None -> "" in
    to_c_string ~name:(name ^ "[" ^ dim ^ "]") elt
  | Func (ret, params, variadic) ->
    let ps = List.map (fun p -> to_c_string p) params in
    let ps = if variadic then ps @ [ "..." ] else ps in
    let ps = if ps = [] then [ "void" ] else ps in
    to_c_string ~name:(name ^ "(" ^ String.concat ", " ps ^ ")") ret

and spaced base name = if name = "" then base else base ^ " " ^ name
