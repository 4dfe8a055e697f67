(** Tree-walking interpreter for the mini-C AST.

    The same context type is used in two roles:
    - host role: one context runs the translated host program, with the
      ORT host runtime registered as builtins (see
      [Hostrt.Hostexec.make_context]);
    - device role: one context per GPU thread, driven by the SIMT
      scheduler.  The builtin table (the cudadev device library) is
      built once per device and shared by every thread; a context
      carries only its {!t.lane} and per-thread state.

    In both roles the closure JIT ({!Jit}) normally executes function
    bodies through the {!t.dispatch} hook; the tree-walker here is the
    reference executor, selected for host and device code together by
    [jit = false] in the runtime's configuration ([--no-jit]), and the
    fallback for any
    function the JIT left out.

    The performance model observes the run without touching its
    semantics: every step counts its instruction class in place in
    {!t.tally}, and every scalar load and store finds its memory
    through {!t.access}, which accounts it. *)

open Machine
open Minic

exception Runtime_error of string

val runtime_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Instruction classes for the cost model. *)
type step = St_arith | St_mul | St_div | St_branch | St_call | St_special

(** Kind of a memory access; {!t.access} receives it with the address
    and the byte count. *)
type access = Load | Store

type frame = { vars : (string, Cty.t * Addr.t) Hashtbl.t; saved_mark : int }

type t = {
  mutable structs : Cty.layout_env;
  mutable funcs : (string, Ast.fundef) Hashtbl.t;
  builtins : (string, impl) Hashtbl.t;
      (** may be shared between contexts: a builtin finds its
          per-thread state through the context it is called with *)
  lane : int;  (** device role: linear thread id within the block *)
  resolve : Addr.t -> Mem.t;  (** the memory an address lives in *)
  access : t -> access -> Addr.t -> int -> Mem.t;
      (** [ctx.access ctx]: {!t.resolve} for a scalar load or store of
          the given bytes, accounting for it *)
  tally : Simclock.tally;  (** the steps run in this context, by class *)
  local : Mem.t;  (** this context's stack (all declared variables) *)
  mutable globals : (string, Cty.t * Addr.t) Hashtbl.t;
  mutable strings : (string, Addr.t) Hashtbl.t option;
      (** string-literal intern cache, allocated on first use *)
  strings_arena : Mem.t option ref;
      (** the memory the interned literals live in, created on first use *)
  shared_decl : (string -> Cty.t -> Addr.t) option;
      (** resolver for [__shared__] declarations (device role only) *)
  mutable output : Buffer.t;  (** printf destination *)
  mutable fn_ptrs : (string, int) Hashtbl.t option;
      (** function-pointer ids, allocated on first use *)
  mutable frames : frame list;
  mutable depth : int;
  max_depth : int;
  mutable dispatch : (t -> Ast.fundef -> Value.t list -> Value.t) option;
      (** execution-engine hook: when set (by the closure JIT), calls
          into defined functions are routed through it instead of the
          tree-walker *)
}

(** A builtin's implementation, by the arity of its signature
    ({!Minic.Typecheck.builtin_signature}): [Fn] takes its n fixed
    arguments, [Vn] its n fixed arguments and the variadic tail. *)
and impl =
  | F0 of (t -> Value.t)
  | F1 of (t -> Value.t -> Value.t)
  | F2 of (t -> Value.t -> Value.t -> Value.t)
  | F3 of (t -> Value.t -> Value.t -> Value.t -> Value.t)
  | F4 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t)
  | F6 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t)
  | V1 of (t -> Value.t -> Value.t list -> Value.t)
  | V5 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t list -> Value.t)

(** Filled by {!register_builtin} only. *)
type builtins = (string, impl) Hashtbl.t

(** [?builtins] and [?globals] may be tables shared with other contexts
    (default: fresh ones); the context never writes to them except
    through {!register_builtin}/{!register_global}.  [?lane] defaults
    to 0.  The string-literal arena is created on first access.
    [?access] defaults to {!t.resolve}, accounting nothing, and
    [?tally] to a fresh one. *)
val create :
  structs:Cty.layout_env ->
  funcs:(string, Ast.fundef) Hashtbl.t ->
  resolve:(Addr.t -> Mem.t) ->
  local:Mem.t ->
  ?access:(t -> access -> Addr.t -> int -> Mem.t) ->
  ?tally:Simclock.tally ->
  ?builtins:builtins ->
  ?globals:(string, Cty.t * Addr.t) Hashtbl.t ->
  ?lane:int ->
  ?shared_decl:(string -> Cty.t -> Addr.t) ->
  ?output:Buffer.t ->
  unit ->
  t

(** Undo what a run leaves in a context beyond its program:
    the frames become [frames], and no call is active, no string
    literal interned, no function pointer taken and no engine attached
    ({!t.dispatch}).  The program fields ([structs], [funcs],
    [globals], [output]) are mutable so that a device lane's context
    can be re-pointed at each launch instead of rebuilt for every
    thread; its builtins are the device's for its whole life. *)
val reset : t -> frames:frame list -> unit

(** Enter a builtin's implementation into a table, checked against its
    C signature: the one way a builtin is registered, host or device.
    Raises [Invalid_argument] for a name without a signature or an
    implementation of another arity. *)
val register_builtin : builtins -> string -> impl -> unit

(** The parameter types a call of the named builtin converts its fixed
    arguments to: its signature's, none for the
    {!Minic.Typecheck.overloaded} atomics, which convert their operands
    to their pointee type themselves. *)
val builtin_params : string -> Cty.t list

(** [apply_builtin ctx name impl params args] calls a builtin: each
    fixed argument converted to an arithmetic parameter's type as
    assignment does ([Value.cast], no step, nothing allocated when the
    types match); pointers and a variadic tail pass as they are. *)
val apply_builtin : t -> string -> impl -> Cty.t list -> Value.t list -> Value.t

val register_global : t -> string -> Cty.t -> Addr.t -> unit

(** {1 Memory access} (bounds-checked, accounted through {!t.access}) *)

val sizeof : t -> Cty.t -> int

val load : t -> Addr.t -> Cty.t -> Value.t

val store : t -> Addr.t -> Cty.t -> Value.t -> unit

val intern_string : t -> string -> Addr.t

val read_c_string : t -> Addr.t -> string

(** {1 Frames and variables} *)

val push_frame : t -> unit

val pop_frame : t -> unit

val declare_var : t -> string -> Cty.t -> Addr.t

val declare_shared_var : t -> string -> Cty.t -> Addr.t

val lookup_var : t -> string -> (Cty.t * Addr.t) option

(** {1 Function pointers}

    Encoded as tagged integers so that generated code can pass
    kernel-internal thread functions to the device runtime by name, as
    OMPi's master/worker scheme does. *)

val function_pointer : t -> string -> Value.t

val function_of_pointer : t -> Value.t -> Ast.fundef

(** {1 Execution} *)

val eval : t -> Ast.expr -> Value.t

val exec : t -> Ast.stmt -> unit

val exec_init : t -> Addr.t -> Cty.t -> Ast.init -> unit

val call : t -> string -> Value.t list -> Value.t

val call_fundef : t -> Ast.fundef -> Value.t list -> Value.t

(** The reference tree-walking executor, bypassing {!t.dispatch}. *)
val tree_call_fundef : t -> Ast.fundef -> Value.t list -> Value.t

(** Register the printf/math builtins shared by the host and device
    roles in a builtin table. *)
val install_common_builtins : builtins -> unit

(** Elaborate a program ({!Minic.Typecheck.elaborate}) and load its
    function definitions and struct layouts; returns the program's
    static environment and the elaborated program, whose global
    initializers the caller runs.  Raises {!Runtime_error} ("type
    errors: ...") on an ill-typed program. *)
val load_program : t -> Ast.program -> Typecheck.env * Ast.program

val format_printf : t -> string -> Value.t list -> string
