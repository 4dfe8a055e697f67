(** Scoped symbol table and expression typing for the mini-C AST.  The
    translator uses it to find the types of variables referenced in a
    target region (for map sizes and kernel parameters); the whole-
    program check backs both ompicc diagnostics and the test suites. *)

open Machine

exception Error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

type env = {
  structs : Cty.layout_env;
  funcs : (string, Cty.t * (string * Cty.t) list) Hashtbl.t;
  globals : (string, Cty.t) Hashtbl.t;
  mutable scopes : (string, Cty.t) Hashtbl.t list;
}

(** Return types of the builtin functions available inside kernels and
    host code (OpenMP API, libc subset, cudadev entry points, CUDA
    intrinsics). *)
val builtin_return_types : (string * Cty.t) list

val create : unit -> env

val push_scope : env -> unit

val pop_scope : env -> unit

val add_var : env -> string -> Cty.t -> unit

val lookup_var : env -> string -> Cty.t option

val in_scope : (unit -> 'a) -> env -> 'a

(** Collect top-level declarations (struct layouts, signatures, globals)
    without entering function bodies. *)
val of_program : Ast.program -> env

(** {1 Operator result rules}

    Shared by {!type_of_expr} and the closure JIT, which types its
    compiled expressions with them.  They state what both executors
    compute at run time, over the operands' decayed types: the usual
    arithmetic conversions of both operands (shifts included),
    comparisons and [&&]/[||] of type [int], pointer arithmetic keeping
    the pointer's type; [-], [~] and [++]/[--] keep their operand's
    type, [!] yields [int]. *)

val binop_type : Ast.binop -> Cty.t -> Cty.t -> Cty.t

val unop_type : Ast.unop -> Cty.t -> Cty.t

(** [c ? t : f] yields the taken arm's value unconverted: it has a type
    of its own only when the arms' types agree ([None] otherwise;
    {!type_of_expr} then gives C's static approximation). *)
val cond_type : Cty.t -> Cty.t -> Cty.t option

val type_of_expr : env -> Ast.expr -> Cty.t

(** Scoped top-down statement walk; the workhorse for analyses that need
    typing context at arbitrary program points. *)
val walk_stmt : env -> on_stmt:(env -> Ast.stmt -> unit) -> Ast.stmt -> unit

(** CUDA's implicit device variables ([threadIdx], ...). *)
val cuda_globals : string list

(** Whole-program check; returns the error list (empty = well typed).
    [cuda] additionally provides the implicit device variables. *)
val check_program : ?cuda:bool -> Ast.program -> string list
