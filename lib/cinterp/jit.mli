(** Closure-compiling JIT for mini-C programs: kernels and translated
    host programs alike.

    Compiles a program's function bodies once — at module load for
    kernels, when the host context is built for host programs — into
    pre-resolved OCaml closure chains: locals become slots of a flat
    per-call frame, constructor dispatch happens at compile time, call
    targets are memoized once per link (a module on a device, a host
    context) and free names once per armed context (a GPU thread, the
    host program).

    It compiles elaborated programs only ({!Minic.Typecheck.elaborate}),
    so every expression's C type is known at compile time, and every
    scalar expression compiles to a closure of that type: [int] payloads
    for [char]/[short]/[int] and their unsigned forms, [int64] for
    [long]/[unsigned long], [float] for [float] (rounded to binary32 on
    every result) and [double], addresses for pointers.  Types come from
    declarations, the program's static environment (free names, call
    signatures) and {!Minic.Typecheck}'s operator rules; only void, struct
    values and function values stay [Value.t].  Conversions between the typed
    forms are {!Machine.Value}'s payload conversions, the ones
    [Value.cast] is built from.  Scalar locals whose address is
    never taken are promoted: their payloads live in typed register
    arrays of the call instead of in simulated memory, while their
    stack bytes are kept.  Semantics (steps counted, memory accesses
    accounted, evaluation order, stack mark/push/release behavior,
    runtime errors, builtin routing, and therefore barriers,
    divergence, counters, cost model, zero-copy and fault injection)
    are mirrored from {!Interp} exactly; the tree-walker remains the
    reference executor. *)

open Minic

type compiled

(** Compile every function of an elaborated module
    ({!Minic.Typecheck.elaborate}) against its static environment
    [env], which types its free names (module globals, the dim3
    builtins in device code, functions) and its calls.  Constructs the
    interpreter rejects at runtime compile to closures raising the same
    errors; a function whose compilation fails anyway (an ill-typed one)
    is left out (it runs on the tree-walker) and listed by
    {!left_out}. *)
val compile : env:Typecheck.env -> funcs:(string, Ast.fundef) Hashtbl.t -> compiled

(** Number of functions that were compiled to closure form. *)
val function_count : compiled -> int

(** Functions left out of the compiled form, with the reason, in name
    order; empty when every function compiled. *)
val left_out : compiled -> (string * string) list

(** A compiled module linked against one builtin table (a device's
    lanes, or one host context): holds the call-target memo shared by
    every context attached to it. *)
type linked

(** Link a module against the builtin and function tables that every
    context attached to it uses. *)
val link : compiled -> builtins:Interp.builtins -> funcs:(string, Ast.fundef) Hashtbl.t -> linked

(** One context's attachment to a link: its free-name memo, its
    dispatch closure and its entry call's frame, kept across the
    threads the context runs. *)
type instance

(** Route an interpreter context's function calls through the compiled
    forms, and return the attachment, armed.  Calls to functions
    without a compiled form use {!Interp.tree_call_fundef}.  Raises
    [Invalid_argument] unless the context uses the linked builtin and
    function tables. *)
val attach : linked -> Interp.t -> instance

(** Arm an attachment again for the next run of its context, after
    {!Interp.reset} detached it: free names resolve afresh and calls
    go through the compiled forms.  Allocates nothing.  An entry call
    (one at depth 0) reuses the previous entry call's frame and
    registers, zeroed, when it calls the same function. *)
val rearm : instance -> unit
