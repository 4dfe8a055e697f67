(** C type representation shared by the front end, the interpreter and
    the memory model.  Sizes follow the LP64 ABI of the Jetson Nano's
    AArch64 Linux: [char] 1, [short] 2, [int] 4, [long] 8, [float] 4,
    [double] 8, pointers 8 bytes. *)

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
  | Array of t * int option  (** element type, dimension ([None] = incomplete) *)
  | Struct of string
  | Func of t * t list * bool  (** return type, parameter types, variadic *)

val pp : Format.formatter -> t -> unit

val show : t -> string

val equal : t -> t -> bool

val compare : t -> t -> int

(** Raised on ill-typed requests (sizeof void, unknown struct, ...). *)
exception Type_error of string

val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Struct layouts}

    Layouts are resolved against an explicit environment so that
    independent compilations share no hidden global state. *)

type field = { fld_name : string; fld_ty : t; fld_off : int }

type layout = { lay_name : string; lay_fields : field list; lay_size : int; lay_align : int }

type layout_env

val create_layout_env : unit -> layout_env

(** Compute natural-alignment offsets and register the layout. *)
val define_struct : layout_env -> string -> (string * t) list -> layout

val lookup_layout : layout_env -> string -> layout

val has_layout : layout_env -> string -> bool

val find_field : layout_env -> string -> string -> field

(** {1 Queries} *)

val is_integer : t -> bool

val is_unsigned : t -> bool

val is_float : t -> bool

val is_arith : t -> bool

val is_pointer : t -> bool

val is_scalar : t -> bool

val sizeof : layout_env -> t -> int

val alignof : layout_env -> t -> int

val align_up : int -> int -> int

(** Array-to-pointer decay, as applied to rvalue uses and parameters. *)
val decay : t -> t

(** Element type behind a pointer or array; raises {!Type_error} otherwise. *)
val pointee : t -> t

(** The integer promotions: [char] and [short] (either signedness)
    become [int]; any other type is unchanged. *)
val promote : t -> t

(** The usual arithmetic conversions (integer promotion included). *)
val common_arith : t -> t -> t

val rank : t -> int

(** Render as C syntax around the given declarator name, handling the
    inside-out declarator rules (pointers to arrays and the like). *)
val to_c_string : ?name:string -> t -> string
