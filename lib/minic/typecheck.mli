(** Static typing of mini-C programs, the one place a program is typed.
    The translator uses the scoped symbol table to find the types of
    variables referenced in a target region (for map sizes and kernel
    parameters); {!elaborate} types every expression of a program, and
    both executors run only its output. *)

open Machine

exception Error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

type env = {
  structs : Cty.layout_env;
  funcs : (string, Cty.t * (string * Cty.t) list) Hashtbl.t;
  globals : (string, Cty.t) Hashtbl.t;
  mutable scopes : (string, Cty.t) Hashtbl.t list;
}

(** A callee's C signature: its parameter types, whether a variadic
    tail follows them, and its return type. *)
type signature = { params : Cty.t list; variadic : bool; ret : Cty.t }

(** The one C prototype of a builtin (of the host or the device table),
    [None] for any other name.  [printf], [ort_offload] and
    [ort_offload_nowait] are variadic. *)
val builtin_signature : string -> signature option

(** [atomicAdd], [atomicCAS] and [atomicExch]: declared by their [int]
    overload, they take their pointer's pointee type for their other
    arguments and their result ({!call_type}). *)
val overloaded : string -> bool

val create : unit -> env

val push_scope : env -> unit

val pop_scope : env -> unit

val add_var : env -> string -> Cty.t -> unit

val lookup_var : env -> string -> Cty.t option

val in_scope : (unit -> 'a) -> env -> 'a

(** CUDA's implicit device variables ([threadIdx], ...), of type
    [struct dim3]. *)
val cuda_globals : string list

(** The static environment of a program: struct layouts, function
    signatures and globals, without entering function bodies.  [cuda]
    adds the [dim3] layout and the implicit device variables. *)
val of_program : ?cuda:bool -> Ast.program -> env

(** {1 Operator rules}

    Shared by the elaboration and the closure JIT, which types its
    compiled expressions with them.  Over the operands' decayed types:
    the usual arithmetic conversions of both operands, comparisons and
    [&&]/[||] of type [int], a shift of its left operand's promoted type,
    pointer arithmetic keeping the pointer's type; [-] and [~] of their
    operand's promoted type, [++]/[--] of their operand's type, [!] of
    type [int].  They raise {!Error} on what C forbids: a shift, [%],
    [&], [|], [^] or [~] with a floating operand, [*] or [/] on a
    pointer, pointer + pointer. *)

val binop_type : Ast.binop -> Cty.t -> Cty.t -> Cty.t

val unop_type : Ast.unop -> Cty.t -> Cty.t

(** The type of [c ? t : f] over the arms' decayed types (C11 6.5.15):
    the usual arithmetic conversions of two arithmetic arms, the pointer
    type against an integer (null pointer constant) arm, [void *] for two
    different pointer types, or the arms' own type when they agree.
    Raises {!Error} for arms C cannot combine. *)
val cond_type : Cty.t -> Cty.t -> Cty.t

(** The return type of a call to the named function with arguments of
    the given decayed types, from the signature of the callee both
    executors pick: a builtin shadows a defined or declared function.
    Raises {!Error} unless the call has the signature's argument count
    (at least, for a variadic one) and each fixed argument converts to
    its parameter type as by assignment (a function designator as a
    pointer to it); the executors convert it at the call, with no step.
    The {!overloaded} atomics take their pointer's pointee type for
    their other parameters and their result. *)
val call_type : env -> string -> Cty.t list -> Cty.t

(** The type of an expression in the environment's current scope, with
    every subexpression checked; raises {!Error}. *)
val type_of_expr : env -> Ast.expr -> Cty.t

(** Type every expression of a program.  The result is the program with
    C's implicit conversions made explicit where the executors would
    not make them: a conditional's arm whose type differs from the
    conditional's is cast to it, and [sizeof expr] becomes
    [sizeof(type)] of its operand, which is not evaluated.  Returns the
    program's static environment with it, or one error per ill-typed
    expression or declaration, in source order.  [cuda] is as for
    {!of_program}. *)
val elaborate : ?cuda:bool -> Ast.program -> (env * Ast.program, string list) result

(** {!elaborate}'s errors (empty = well typed). *)
val check_program : ?cuda:bool -> Ast.program -> string list
