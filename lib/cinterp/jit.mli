(** Closure-compiling JIT for mini-C kernel ASTs.

    Compiles a module's function bodies once — at module-load time —
    into pre-resolved OCaml closure chains: locals become slots of a
    flat per-call frame of addresses, constructor dispatch happens at
    compile time, call targets are memoized once per launch and free
    names once per thread.  Semantics (hook sequences, evaluation order, stack
    mark/push/release behavior, builtin routing, and therefore
    barriers, divergence, counters, cost model, zero-copy and fault
    injection) are mirrored from {!Interp} exactly; the tree-walker
    remains the reference executor and the fallback for anything the
    compiler cannot handle. *)

open Machine
open Minic

type compiled

(** Compile every function of a module.  Total: functions that fail to
    compile are left out (they fall back to the tree-walker), and
    constructs the interpreter rejects at runtime compile to closures
    raising the same errors. *)
val compile : structs:Cty.layout_env -> funcs:(string, Ast.fundef) Hashtbl.t -> compiled

(** Number of functions that were compiled to closure form. *)
val function_count : compiled -> int

(** A compiled module linked for one launch: holds the call-target memo
    shared by every context attached to it. *)
type linked

(** Link a module against the builtin and function tables that every
    context of the launch shares. *)
val link : compiled -> builtins:Interp.builtins -> funcs:(string, Ast.fundef) Hashtbl.t -> linked

(** Route an interpreter context's function calls through the compiled
    forms (per-thread free-name memoization is created here).  Calls to
    functions without a compiled form use {!Interp.tree_call_fundef}.
    Raises [Invalid_argument] unless the context uses the linked
    builtin and function tables. *)
val attach : linked -> Interp.t -> unit
