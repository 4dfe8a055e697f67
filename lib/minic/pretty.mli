(** C source emission for the mini-C AST.  Used to write translated host
    files and generated CUDA kernel files; the output re-parses to an
    equal AST (golden-tested). *)



(** The C spelling of a binary operator. *)
val binop_str : Ast.binop -> string

val pp_expr : Format.formatter -> Ast.expr -> unit

val pp_decl : Format.formatter -> Ast.decl -> unit

(** Comma-separated declarator group sharing one specifier, as required
    in for-init clauses. *)
val pp_decl_group : Format.formatter -> Ast.decl list -> unit

val pp_stmt : Format.formatter -> Ast.stmt -> unit

val pp_fundef : ?cuda_global:bool -> Format.formatter -> Ast.fundef -> unit

val pp_global : Format.formatter -> Ast.global -> unit

val pp_program : Format.formatter -> Ast.program -> unit

(** {1 OpenMP directives back to pragma syntax} *)

val pp_directive : Format.formatter -> Ast.directive -> unit

val pp_clause : Format.formatter -> Ast.clause -> unit

val construct_str : Ast.construct -> string

val sched_str : Ast.sched_kind -> string

val map_type_str : Ast.map_type -> string

val red_op_str : Ast.reduction_op -> string

(** {1 To-string conveniences} *)

val program_to_string : Ast.program -> string

val stmt_to_string : Ast.stmt -> string

val expr_to_string : Ast.expr -> string
