(* Closure-compiling JIT for mini-C programs: kernels and translated
   host programs alike.

   The tree-walking interpreter (interp.ml) re-resolves every name and
   re-dispatches on every AST constructor and every value's runtime type
   for every thread at every step.  This module compiles a program's
   function bodies ONCE — a kernel module at nvcc/module-load time, a
   host program when its context is built (Hostexec.make_context) —
   into chains of OCaml closures:

   - constructor dispatch happens once per expression, at compile time;
   - every expression is compiled to a closure of its static C type
     (typed closures, below), so scalars are not boxed into [Value.t]
     and operators do not re-dispatch on their operands' types;
   - local variables are resolved to slots of a flat per-call frame, so
     reads and writes are array indexing instead of hashtable probes
     through a frame list;
   - call targets are resolved lazily on first execution and memoized
     once per link ([link]): every thread of a device shares one
     builtin table, and every thread running a module one function
     table, so a call site resolves the same way for all of them;
   - free names (threadIdx, device globals, ...) have their types from
     the program's static environment; their addresses are resolved
     lazily and memoized per thread, since they differ between threads.

   Per-thread state (the interpreter context, the slot frame) is
   threaded through every closure as an explicit [env] argument, so one
   compiled form is shared by all threads of all launches of a module.
   A context is attached to a link once ([attach]) and re-armed for
   each thread it runs ([rearm]); its entry call reuses one env.

   Typed closures.  The JIT compiles elaborated programs only
   ([Typecheck.elaborate]: every expression typed, every conversion C
   implies and the executors would not make made explicit), so it reads
   every type at compile time and discovers none at run time.  A scalar
   expression compiles to a [T (kind, ty, f)]: [f : env -> int] for
   [char]/[short]/[int] and their unsigned forms, holding the payload
   normalised to the C width; [env -> int64] for [long]/[unsigned long],
   since OCaml's [int] has 63 bits; [env -> float] for [float]/[double],
   rounded to binary32 on every [float]-typed result; [env -> Addr.t]
   for pointers.  Types come from declarations (locals, parameters), the
   program's static environment [compile] is given (its globals, the
   dim3 builtins of device code, function signatures), the return type
   of the callee both executors pick ([Typecheck.call_type]; a call
   whose callee returns a value of another type is a runtime error) and
   [Typecheck]'s operator rules, which state what the interpreter
   computes on values at run time.  Only void, struct values and
   function values stay a [V (ty, env -> Value.t)].  The payload of a
   typed closure is by construction the payload of the [Value.t] the
   interpreter computes, and its static type that value's runtime
   type.

   Semantics are mirrored from interp.ml exactly — the same steps
   counted in the context's tally, the same accounted memory accesses
   through the context's [access], the same evaluation order (including
   the right-to-left operand order OCaml gives interp's [apply_binop]
   call), same [Mem] mark/push/release sequence, same runtime errors,
   and builtins still run through the interpreter context — so
   barriers/yield points, divergence, counters, cost model, zero-copy
   and fault injection all behave identically.

   Scalar locals are promoted, as a GPU compiler keeps private scalars
   in registers: a local or parameter of scalar type that is not
   [__shared__] and whose name is never the operand of [&] in its
   function holds its payload in a typed register array of the call's
   [env] ([e_ints], the unboxed [e_flts], [e_longs], [e_ptrs]) instead
   of in simulated memory.  Nothing but the function's own code can
   reach such a variable, so memory never needs its bytes, and its
   reads and writes are register operations: local memory is not
   accounted, so they count nothing.  The declaration still pushes its
   bytes on the thread's stack, so every other local keeps its address,
   and starts at the zero [Mem.push] would give it.  Holding the
   payload of [Value.cast ty v] instead of the stored bytes is exact
   because a store followed by a load of any scalar type yields that
   same value (test_machine checks the identity).  Locals whose address
   is taken, arrays, structs and [__shared__] variables stay in memory
   and the frame holds their addresses.

   Constructs that the interpreter rejects at runtime in a well-typed
   program (unlowered OpenMP pragmas, brace-initialized scalars...)
   compile to closures that raise the interpreter's exact error at
   execution time.  A function whose compilation fails (only an
   ill-typed one can) is left out of the compiled table and runs on the
   tree-walker; [left_out] names it, so a gap shows up as a failed test
   rather than as lost speed. *)

open Machine
open Minic

(* Control-flow exceptions private to compiled code: they never cross
   an engine boundary (invoke catches Jit_return; loops catch
   Jit_break/Jit_continue), so mixed compiled/tree execution stays
   well-bracketed. *)
exception Jit_return of Value.t
exception Jit_break
exception Jit_continue

(* The payload representation of a scalar C type. *)
type _ kind =
  | Kint : int kind (* char, short, int and their unsigned forms *)
  | Klong : int64 kind (* long, unsigned long *)
  | Kflt : float kind (* float (binary32 payload), double *)
  | Kptr : Addr.t kind (* pointers *)

type some_kind = K : 'a kind -> some_kind

let kind_of (ty : Cty.t) : some_kind option =
  match ty with
  | Cty.Char | Cty.Uchar | Cty.Short | Cty.Ushort | Cty.Int | Cty.Uint -> Some (K Kint)
  | Cty.Long | Cty.Ulong -> Some (K Klong)
  | Cty.Float | Cty.Double -> Some (K Kflt)
  | Cty.Ptr _ -> Some (K Kptr)
  | Cty.Void | Cty.Array _ | Cty.Struct _ | Cty.Func _ -> None

(* Per-thread memoization cell for a free (non-local) name. *)
type cell =
  | Cell_unresolved
  | Cell_var of Cty.t * Addr.t
  | Cell_fn of Value.t (* function pointer value *)

(* Where a local's value lives: in simulated memory at its stack
   address, or promoted to register [i] of its kind's array. *)
type reg = R_mem | R : 'a kind * int -> reg

(* Memoized resolution of one call site, shared by the threads of a launch. *)
type target =
  | Tgt_unresolved
  | Tgt_builtin of Interp.impl * Cty.t list (* and its parameter types *)
  | Tgt_compiled of cfun
  | Tgt_tree of Ast.fundef

(* One compiled function: body closure plus the frame shape. *)
and cfun = {
  cf_def : Ast.fundef;
  cf_params : (Cty.t * int * reg) array; (* decayed type, size, register; slot = index *)
  cf_ret : Cty.t;
  mutable cf_shape : shape;
  mutable cf_body : cstmt;
}

(* Sizes of a call's frame and register arrays. *)
and shape = { sh_slots : int; sh_ints : int; sh_longs : int; sh_flts : int; sh_ptrs : int }

(* A context's instantiation of a linked module, attached once and
   re-armed for every thread the context runs ([rearm]). *)
and inst = {
  i_ctx : Interp.t;
  i_cells : cell array;
  i_calls : target array; (* the link's [l_calls], shared *)
  i_dispatch : (Interp.t -> Ast.fundef -> Value.t list -> Value.t) option;
      (* the context's [dispatch] while armed *)
  mutable i_entry : (cfun * env) option;
      (* the last entry call's (depth 0) env, reused by the next one *)
}

(* Execution environment threaded through every closure: the thread's
   instantiation plus the current call's slot frame, which holds every
   local's stack address, and the typed registers of the promoted
   locals (and of compound assignments' current values). *)
and env = {
  e_inst : inst;
  e_frame : Addr.t array;
  e_ints : int array;
  e_longs : int64 array;
  e_flts : float array;
  e_ptrs : Addr.t array;
}

and cstmt = env -> unit

(* A compiled expression and its static C type ([ty], decayed): a
   closure on the payload of its kind for a scalar type (a pointer's
   type is [Ptr elt]), a [Value.t] closure for the rest (void, struct
   values, function values). *)
type cexpr = T : 'a kind * Cty.t * (env -> 'a) -> cexpr | V of Cty.t * (env -> Value.t)

type compiled = {
  c_funcs : (string, cfun) Hashtbl.t;
  c_ncells : int;
  c_ncalls : int;
  c_left_out : (string * string) list; (* function, why it failed to compile *)
}

(* A compiled module linked against one builtin table (a device's, or
   the host context's): the call-target memo shared by every context
   attached to it, all of which use [l_builtins] and [l_funcs]. *)
type linked = {
  l_compiled : compiled;
  l_builtins : Interp.builtins;
  l_funcs : (string, Ast.fundef) Hashtbl.t;
  l_calls : target array;
}

let function_count c = Hashtbl.length c.c_funcs

let left_out c = c.c_left_out

(* ---------------------------------------------------------------- *)
(* Compile-time state                                                 *)
(* ---------------------------------------------------------------- *)

(* A local bound in the function being compiled. *)
type local = { lc_slot : int; lc_ty : Cty.t; lc_reg : reg }

type comp = {
  k_env : Typecheck.env; (* the program's structs, globals and signatures *)
  k_compiled : (string, cfun) Hashtbl.t;
  k_cells : (string, int) Hashtbl.t; (* free name -> cell index *)
  mutable k_ncells : int;
  mutable k_ncalls : int;
  (* per-function scope: innermost binding first *)
  mutable k_scope : (string * local) list;
  mutable k_escaped : string list; (* names under [&] in the current function *)
  mutable k_next_slot : int;
  mutable k_max_slots : int;
  (* registers of the current function, by kind (never reused) *)
  mutable k_ints : int;
  mutable k_longs : int;
  mutable k_flts : int;
  mutable k_ptrs : int;
}

let cell_index k name =
  match Hashtbl.find_opt k.k_cells name with
  | Some i -> i
  | None ->
    let i = k.k_ncells in
    k.k_ncells <- i + 1;
    Hashtbl.replace k.k_cells name i;
    i

let call_site k =
  let i = k.k_ncalls in
  k.k_ncalls <- i + 1;
  i

let new_reg : type a. comp -> a kind -> int =
 fun k kind ->
  match kind with
  | Kint ->
    k.k_ints <- k.k_ints + 1;
    k.k_ints - 1
  | Klong ->
    k.k_longs <- k.k_longs + 1;
    k.k_longs - 1
  | Kflt ->
    k.k_flts <- k.k_flts + 1;
    k.k_flts - 1
  | Kptr ->
    k.k_ptrs <- k.k_ptrs + 1;
    k.k_ptrs - 1

(* Every layout is known at compile time: the program is elaborated. *)
let sizeof k (ty : Cty.t) : int = Cty.sizeof k.k_env.Typecheck.structs ty

let declare_slot k ?(shared = false) name ty : local =
  let slot = k.k_next_slot in
  k.k_next_slot <- slot + 1;
  if k.k_next_slot > k.k_max_slots then k.k_max_slots <- k.k_next_slot;
  let reg =
    match kind_of ty with
    | Some (K kind)
      when (not shared) && not (List.mem name k.k_escaped) ->
      R (kind, new_reg k kind)
    | _ -> R_mem
  in
  let lc = { lc_slot = slot; lc_ty = ty; lc_reg = reg } in
  k.k_scope <- (name, lc) :: k.k_scope;
  lc

(* Names that are the operand of [&] anywhere in [fd]: only variables
   with these names can be reached through a pointer, so only they must
   keep their value in simulated memory.  By name, not by binding: a
   shadowing declaration of an escaping name stays in memory too. *)
let address_taken (fd : Ast.fundef) : string list =
  let acc = ref [] in
  let rec ex (e : Ast.expr) =
    match e with
    | Ast.AddrOf (Ast.Ident x) -> acc := x :: !acc
    | Ast.IntLit _ | Ast.FloatLit _ | Ast.CharLit _ | Ast.StrLit _ | Ast.Ident _ | Ast.SizeofT _ ->
      ()
    | Ast.Unop (_, a)
    | Ast.Member (a, _)
    | Ast.Arrow (a, _)
    | Ast.Deref a
    | Ast.AddrOf a
    | Ast.Cast (_, a)
    | Ast.SizeofE a ->
      ex a
    | Ast.Binop (_, a, b) | Ast.Assign (_, a, b) | Ast.Index (a, b) | Ast.Comma (a, b) ->
      ex a;
      ex b
    | Ast.Call (_, args) -> List.iter ex args
    | Ast.Cond (a, b, c) ->
      ex a;
      ex b;
      ex c
  and init = function Ast.Iexpr e -> ex e | Ast.Ilist l -> List.iter init l
  and st (s : Ast.stmt) =
    match s with
    | Ast.Sexpr e -> ex e
    | Ast.Sdecl ds -> List.iter (fun (d : Ast.decl) -> Option.iter init d.Ast.d_init) ds
    | Ast.Sblock ss -> List.iter st ss
    | Ast.Sif (c, t, e) ->
      ex c;
      st t;
      Option.iter st e
    | Ast.Swhile (c, b) | Ast.Sdo (b, c) ->
      ex c;
      st b
    | Ast.Sfor (i, c, u, b) ->
      Option.iter st i;
      Option.iter ex c;
      Option.iter ex u;
      st b
    | Ast.Sreturn e -> Option.iter ex e
    | Ast.Sbreak | Ast.Scontinue | Ast.Snop -> ()
    | Ast.Spragma (_, b) -> Option.iter st b
  in
  st fd.Ast.f_body;
  !acc

(* Scope discipline mirrors the interpreter's frame pushes: [Sblock]
   and [Sfor] open a scope (slots are reused after it closes); a
   declaration anywhere else — directly in a statement list or under an
   unbraced if/while arm — extends the current scope, exactly like the
   interpreter's "declare into the innermost frame". *)

(* ---------------------------------------------------------------- *)
(* Runtime helpers                                                    *)
(* ---------------------------------------------------------------- *)

(* [Value.round32], for the rounding of float arithmetic results: the
   operator closures must inline it, and a call into [Value] boxes its
   float argument and result (calling [Value.round32] from [float_binop]
   alone adds 9% to kernels-full's allocation).  Conversions go through
   [Value]'s payload rules instead ([coerce]). *)
let[@inline] round32 f = Int32.float_of_bits (Int32.bits_of_float f)

(* Count a step of class [k] in the thread's tally ([Interp]'s step). *)
let[@inline] step env (k : Interp.step) =
  let t = env.e_inst.i_ctx.Interp.tally in
  match k with
  | Interp.St_arith -> t.Simclock.arith <- t.Simclock.arith + 1
  | Interp.St_mul -> t.Simclock.mul <- t.Simclock.mul + 1
  | Interp.St_div -> t.Simclock.div <- t.Simclock.div + 1
  | Interp.St_branch -> t.Simclock.branch <- t.Simclock.branch + 1
  | Interp.St_call -> t.Simclock.call <- t.Simclock.call + 1
  | Interp.St_special -> t.Simclock.special <- t.Simclock.special + 1

(* The memory of a scalar access, accounted ([Interp.t.access]). *)
let[@inline] access env kind (a : Addr.t) bytes =
  let ctx = env.e_inst.i_ctx in
  ctx.Interp.access ctx kind a bytes

(* Resolve a free name against the thread's interpreter context,
   memoized: in device code these are threadIdx/blockIdx/... in the
   launch base frame, module globals, or functions (pointer values).
   Mirrors interp's [Ident] rule: variables shadow functions. *)
let resolve_cell (inst : inst) (idx : int) (name : string) : cell =
  match inst.i_cells.(idx) with
  | Cell_unresolved ->
    let ctx = inst.i_ctx in
    let c =
      match Interp.lookup_var ctx name with
      | Some (ty, addr) -> Cell_var (ty, addr)
      | None ->
        if Hashtbl.mem ctx.Interp.funcs name then Cell_fn (Interp.function_pointer ctx name)
        else Interp.runtime_error "unbound variable '%s'" name
    in
    inst.i_cells.(idx) <- c;
    c
  | c -> c

(* The address of a free name compiled with its declared type [ty]; the
   binding it resolves to must have that type. *)
let global_addr (inst : inst) (idx : int) (name : string) (ty : Cty.t) : Addr.t =
  match inst.i_cells.(idx) with
  | Cell_var (_, a) -> a
  | _ -> (
    match resolve_cell inst idx name with
    | Cell_var (ty', a) when Cty.equal ty' ty -> a
    | Cell_var (ty', _) ->
      Interp.runtime_error "'%s' is bound as %s but was compiled as %s" name (Cty.show ty')
        (Cty.show ty)
    | Cell_fn _ | Cell_unresolved -> Interp.runtime_error "unbound variable '%s'" name)

(* Typed register access. *)
let reg_get : type a. a kind -> env -> int -> a =
 fun kind env r ->
  match kind with
  | Kint -> Array.unsafe_get env.e_ints r
  | Klong -> Array.unsafe_get env.e_longs r
  | Kflt -> Array.unsafe_get env.e_flts r
  | Kptr -> Array.unsafe_get env.e_ptrs r

let reg_set : type a. a kind -> env -> int -> a -> unit =
 fun kind env r v ->
  match kind with
  | Kint -> Array.unsafe_set env.e_ints r v
  | Klong -> Array.unsafe_set env.e_longs r v
  | Kflt -> Array.unsafe_set env.e_flts r v
  | Kptr -> Array.unsafe_set env.e_ptrs r v

(* The zero [Mem.push] leaves in a promoted local's bytes. *)
let zero : type a. a kind -> a = function Kint -> 0 | Klong -> 0L | Kflt -> 0.0 | Kptr -> Addr.null

(* A float payload through [Mem]'s integer accessors, as its bits, so
   nothing is boxed on the way. *)
let[@inline] mem_load_float m (a : Addr.t) (ty : Cty.t) : float =
  match ty with
  | Cty.Float -> Int32.float_of_bits (Int32.of_int (Mem.load_narrow m a Cty.Uint))
  | _ -> Int64.float_of_bits (Mem.load_int64 m a)

let[@inline] mem_store_float m (a : Addr.t) (ty : Cty.t) (f : float) : unit =
  match ty with
  | Cty.Float -> Mem.store_narrow m a Cty.Uint (Int32.to_int (Int32.bits_of_float f))
  | _ -> Mem.store_int64 m a (Int64.bits_of_float f)

(* Typed [Interp.load]/[Interp.store] of a scalar of type [ty] and
   [bytes] bytes: the accounted access, then the memory operation. *)
let load : type a. a kind -> Cty.t -> int -> env -> Addr.t -> a =
 fun kind ty bytes env a ->
  let m = access env Interp.Load a bytes in
  match kind with
  | Kint -> Mem.load_narrow m a ty
  | Klong -> Mem.load_int64 m a
  | Kflt -> mem_load_float m a ty
  | Kptr -> Mem.load_addr m a

let store : type a. a kind -> Cty.t -> int -> env -> Addr.t -> a -> unit =
 fun kind ty bytes env a v ->
  let m = access env Interp.Store a bytes in
  match kind with
  | Kint -> Mem.store_narrow m a ty v
  | Klong -> Mem.store_int64 m a v
  | Kflt -> mem_store_float m a ty v
  | Kptr -> Mem.store_addr m a v

(* The payload of [Value.cast ty v], [ty] of kind [kind]. *)
let extract : type a. a kind -> Cty.t -> Value.t -> a =
 fun kind ty v ->
  match kind with
  | Kint -> Value.to_narrow ty v
  | Klong -> Value.as_int v
  | Kflt -> Value.to_float ty v
  | Kptr -> Value.to_addr ty v

(* A call's slot frame and registers, all zero. *)
let fresh_env (inst : inst) (sh : shape) : env =
  {
    e_inst = inst;
    e_frame = Array.make sh.sh_slots Addr.null;
    e_ints = (if sh.sh_ints = 0 then [||] else Array.make sh.sh_ints 0);
    e_longs = (if sh.sh_longs = 0 then [||] else Array.make sh.sh_longs 0L);
    e_flts = (if sh.sh_flts = 0 then [||] else Array.make sh.sh_flts 0.0);
    e_ptrs = (if sh.sh_ptrs = 0 then [||] else Array.make sh.sh_ptrs Addr.null);
  }

(* The env of an entry call (depth 0, so no other call of the context
   is live): the previous entry call's, zeroed, when it called the same
   function.  A kernel's threads then share one env per lane. *)
let entry_env (inst : inst) (cf : cfun) : env =
  match inst.i_entry with
  | Some (cf', env) when cf' == cf ->
    Array.fill env.e_frame 0 (Array.length env.e_frame) Addr.null;
    Array.fill env.e_ints 0 (Array.length env.e_ints) 0;
    Array.fill env.e_longs 0 (Array.length env.e_longs) 0L;
    Array.fill env.e_flts 0 (Array.length env.e_flts) 0.0;
    Array.fill env.e_ptrs 0 (Array.length env.e_ptrs) Addr.null;
    env
  | _ ->
    let env = fresh_env inst cf.cf_shape in
    inst.i_entry <- Some (cf, env);
    env

(* Call a compiled function: the interpreter's [tree_call_fundef]
   protocol (depth guard, one stack mark covering the parameters, the
   same per-parameter push+store sequence) with a slot frame instead of
   a hashtable frame.  Arguments and the result stay [Value.t]. *)
let invoke (inst : inst) (cf : cfun) (args : Value.t list) : Value.t =
  let ctx = inst.i_ctx in
  if ctx.Interp.depth >= ctx.Interp.max_depth then
    Interp.runtime_error "call stack overflow in '%s'" cf.cf_def.Ast.f_name;
  let nparams = Array.length cf.cf_params in
  if List.length args <> nparams then
    Interp.runtime_error "'%s' expects %d arguments, got %d" cf.cf_def.Ast.f_name nparams
      (List.length args);
  let env = if ctx.Interp.depth = 0 then entry_env inst cf else fresh_env inst cf.cf_shape in
  ctx.Interp.depth <- ctx.Interp.depth + 1;
  let mark = Mem.mark ctx.Interp.local in
  let finally () =
    Mem.release ctx.Interp.local mark;
    ctx.Interp.depth <- ctx.Interp.depth - 1
  in
  match
    List.iteri
      (fun i v ->
        let ty, size, reg = cf.cf_params.(i) in
        let addr = Mem.push ctx.Interp.local size in
        env.e_frame.(i) <- addr;
        match reg with
        | R (kind, r) -> reg_set kind env r (extract kind ty v)
        | R_mem -> Interp.store ctx addr ty v)
      args;
    cf.cf_body env
  with
  | () ->
    finally ();
    Value.VVoid
  | exception Jit_return v ->
    finally ();
    if cf.cf_ret = Cty.Void then Value.VVoid else Value.cast (Cty.decay cf.cf_ret) v
  | exception e ->
    finally ();
    raise e

(* ---------------------------------------------------------------- *)
(* Conversions between compiled forms                                 *)
(* ---------------------------------------------------------------- *)

let static_type = function T (_, ty, _) | V (ty, _) -> ty

(* A construct the elaboration rejects: the function is left out. *)
let ill_typed fmt = Format.kasprintf invalid_arg ("Jit: " ^^ fmt)

(* The [Value.t] the interpreter would hold. *)
let value_of (c : cexpr) : env -> Value.t =
  match c with
  | V (_, f) -> f
  | T (Kint, ty, f) -> fun env -> Value.of_narrow ty (f env)
  | T (Klong, ty, f) -> fun env -> Value.VInt (f env, ty)
  | T (Kflt, ty, f) -> fun env -> Value.VFlt (f env, ty)
  | T (Kptr, ty, f) ->
    let elt = Cty.pointee ty in
    fun env -> Value.VPtr (f env, elt)

(* Evaluate for effect only. *)
let effect_of (c : cexpr) : env -> unit =
  match c with
  | V (_, f) -> fun env -> ignore (f env)
  | T (_, _, f) -> fun env -> ignore (f env)

(* [Value.is_true]. *)
let truth (c : cexpr) : env -> bool =
  match c with
  | T (Kint, _, f) -> fun env -> f env <> 0
  | T (Klong, _, f) -> fun env -> f env <> 0L
  | T (Kflt, _, f) -> fun env -> f env <> 0.0
  | T (Kptr, _, f) -> fun env -> not (Addr.is_null (f env))
  | V (ty, _) -> ill_typed "condition of type %s" (Cty.show ty)

(* [Value.to_int] of an integer: array indices and pointer offsets. *)
let int_of (c : cexpr) : env -> int =
  match c with
  | T (Kint, _, f) -> f
  | T (Klong, _, f) -> fun env -> Int64.to_int (f env)
  | c -> ill_typed "%s used as an integer" (Cty.show (static_type c))

(* The payload of [Value.cast ty v] for the value [c] computes, [ty] of
   kind [kind].  Used at [long]/[double] also for the interpreter's
   [Value.as_int]/[Value.as_float] operand conversions.  The rules are
   [Value]'s payload conversions; only the identities and the
   conversions of a narrow payload (which is its value) are spelled out
   here.  None raises: the elaboration rejects a conversion between a
   pointer and a floating type. *)
let coerce : type a. a kind -> Cty.t -> cexpr -> env -> a =
 fun kind ty c ->
  match c with
  | V (vty, _) -> ill_typed "%s converted to %s" (Cty.show vty) (Cty.show ty)
  | T (src, sty, f) -> (
    match (kind, src) with
    | Kint, Kint -> if Cty.equal sty ty then f else fun env -> Value.normalise_narrow ty (f env)
    | Kint, Klong -> fun env -> Value.narrow_of_int64 ty (f env)
    | Kint, Kflt -> fun env -> Value.narrow_of_int64 ty (Value.int64_of_float (f env))
    | Kint, Kptr -> fun env -> Value.narrow_of_int64 ty (Addr.to_int64 (f env))
    | Klong, Kint -> fun env -> Int64.of_int (f env)
    | Klong, Klong -> f
    | Klong, Kflt -> fun env -> Value.int64_of_float (f env)
    | Klong, Kptr -> fun env -> Addr.to_int64 (f env)
    | Kflt, Kint -> fun env -> Value.round_to ty (float_of_int (f env))
    | Kflt, Klong -> fun env -> Value.round_to ty (Value.float_of_int64 sty (f env))
    | Kflt, Kflt -> if Cty.equal sty ty || ty = Cty.Double then f else fun env -> Value.round_to ty (f env)
    | Kptr, Kptr -> f
    | Kptr, Kint -> fun env -> Addr.of_int64 (Int64.of_int (f env))
    | Kptr, Klong -> fun env -> Addr.of_int64 (f env)
    | (Kflt | Kptr), _ -> ill_typed "%s converted to %s" (Cty.show sty) (Cty.show ty))

(* [Value.cast ty] as a compiled form ([ty] decayed): a scalar or void. *)
let convert (ty : Cty.t) (c : cexpr) : cexpr =
  match kind_of ty with
  | Some (K kind) -> T (kind, ty, coerce kind ty c)
  | None when ty = Cty.Void ->
    let e = effect_of c in
    V
      ( ty,
        fun env ->
          e env;
          Value.VVoid )
  | None -> ill_typed "cast to %s" (Cty.show ty)

let step_class (op : Ast.binop) : Interp.step =
  match op with
  | Ast.Mul -> Interp.St_mul
  | Ast.Div | Ast.Mod -> Interp.St_div
  | _ -> Interp.St_arith

(* ---------------------------------------------------------------- *)
(* Binary operators                                                   *)
(* ---------------------------------------------------------------- *)

(* The interpreter's arithmetic on payloads already converted to the
   common type: [float]/[double] ([single] rounds to binary32), [int]/
   [unsigned] (sign- or zero-extended payloads, whose low 32 bits native
   arithmetic gets right; unsigned division, remainder and right shift
   work on the 64-bit sign extension, as the interpreter's do), and
   [long]/[unsigned long].  Comparisons and [&&]/[||] are the [_test]
   forms.  Inlined into the operator closures, so a float operand is
   not boxed. *)

let[@inline] float_binop (op : Ast.binop) single a b : float =
  let r =
    match op with
    | Ast.Add -> a +. b
    | Ast.Sub -> a -. b
    | Ast.Mul -> a *. b
    | Ast.Div -> a /. b
    | _ -> Interp.runtime_error "invalid float operation"
  in
  if single then round32 r else r

let[@inline] float_test (op : Ast.binop) (a : float) b : bool =
  match op with
  | Ast.Lt -> a < b
  | Ast.Gt -> a > b
  | Ast.Le -> a <= b
  | Ast.Ge -> a >= b
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.LogAnd -> a <> 0.0 && b <> 0.0
  | _ -> a <> 0.0 || b <> 0.0

let[@inline] norm32 unsigned v =
  if unsigned then v land 0xFFFFFFFF
  else
    let v = v land 0xFFFFFFFF in
    if v > 0x7FFFFFFF then v - 0x100000000 else v

let int_binop (op : Ast.binop) unsigned a b : int =
  let on64 f = Int64.to_int (f (Int64.of_int a) (Int64.of_int b)) in
  norm32 unsigned
    (match op with
    | Ast.Add -> a + b
    | Ast.Sub -> a - b
    | Ast.Mul -> a * b
    | Ast.Div ->
      if b = 0 then Interp.runtime_error "integer division by zero"
      else if unsigned then on64 Int64.unsigned_div
      else a / b
    | Ast.Mod ->
      if b = 0 then Interp.runtime_error "integer modulo by zero"
      else if unsigned then on64 Int64.unsigned_rem
      else a mod b
    | Ast.Shl -> a lsl (b land 63)
    | Ast.Shr ->
      if unsigned then Int64.to_int (Int64.shift_right_logical (Int64.of_int a) (b land 63))
      else a asr (b land 63)
    | Ast.BitAnd -> a land b
    | Ast.BitOr -> a lor b
    | _ -> a lxor b)

let int_test (op : Ast.binop) unsigned a b : bool =
  (* unsigned order of the sign-extended payloads *)
  let a' = if unsigned then a lxor min_int else a and b' = if unsigned then b lxor min_int else b in
  match op with
  | Ast.Lt -> a' < b'
  | Ast.Gt -> a' > b'
  | Ast.Le -> a' <= b'
  | Ast.Ge -> a' >= b'
  | Ast.Eq -> a = b
  | Ast.Ne -> a <> b
  | Ast.LogAnd -> a <> 0 && b <> 0
  | _ -> a <> 0 || b <> 0

let long_binop (op : Ast.binop) unsigned a b : int64 =
  let shift = Int64.to_int b land 63 in
  match op with
  | Ast.Add -> Int64.add a b
  | Ast.Sub -> Int64.sub a b
  | Ast.Mul -> Int64.mul a b
  | Ast.Div ->
    if b = 0L then Interp.runtime_error "integer division by zero"
    else if unsigned then Int64.unsigned_div a b
    else Int64.div a b
  | Ast.Mod ->
    if b = 0L then Interp.runtime_error "integer modulo by zero"
    else if unsigned then Int64.unsigned_rem a b
    else Int64.rem a b
  | Ast.Shl -> Int64.shift_left a shift
  | Ast.Shr -> if unsigned then Int64.shift_right_logical a shift else Int64.shift_right a shift
  | Ast.BitAnd -> Int64.logand a b
  | Ast.BitOr -> Int64.logor a b
  | _ -> Int64.logxor a b

let long_test (op : Ast.binop) unsigned a b : bool =
  let a' = if unsigned then Int64.sub a Int64.min_int else a
  and b' = if unsigned then Int64.sub b Int64.min_int else b in
  match op with
  | Ast.Lt -> a' < b'
  | Ast.Gt -> a' > b'
  | Ast.Le -> a' <= b'
  | Ast.Ge -> a' >= b'
  | Ast.Eq -> Int64.equal a b
  | Ast.Ne -> not (Int64.equal a b)
  | Ast.LogAnd -> a <> 0L && b <> 0L
  | _ -> a <> 0L || b <> 0L

let is_test (op : Ast.binop) =
  match op with
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.LogAnd | Ast.LogOr -> true
  | _ -> false

(* [Interp.apply_binop ctx op (eval a) (eval b)]: OCaml's right-to-left
   argument order runs b's effects before a's, and access ordering is
   observable (the coalescing sampler keys on each thread's access
   sequence), so every form evaluates [cb] first, then [ca], then
   charges the step.  The forms cover every operand shape
   [Typecheck.binop_type] accepts, with its result type. *)
let arith k (op : Ast.binop) (ca : cexpr) (cb : cexpr) : cexpr =
  let sk = step_class op in
  let is_arith = function T ((Kint | Klong | Kflt), _, _) -> true | _ -> false in
  let is_int = function T ((Kint | Klong), _, _) -> true | _ -> false in
  let bool b = if b then 1 else 0 in
  let test = is_test op in
  (* [f env a b] on the payloads, in the interpreter's order (for the
     shapes where a closure call per operator costs nothing that
     matters: a float passed to [f] would be boxed) *)
  let op2 fa fb f env =
    let b = fb env in
    let a = fa env in
    step env sk;
    f env a b
  in
  match (ca, cb) with
  | T (_, ta, _), T (_, tb, _) when is_arith ca && is_arith cb -> (
    let rt = Typecheck.binop_type op ta tb in
    (* a shift computes in its result type, the left operand's promoted
       type; every other operator in the operands' common type *)
    let ct = match op with Ast.Shl | Ast.Shr -> rt | _ -> Cty.common_arith ta tb in
    let unsigned = Cty.is_unsigned ct in
    match ct with
    | Cty.Float | Cty.Double ->
      let fa = coerce Kflt Cty.Double ca and fb = coerce Kflt Cty.Double cb in
      let single = ct = Cty.Float in
      if test then
        T
          ( Kint,
            rt,
            fun env ->
              let b = fb env in
              let a = fa env in
              step env sk;
              bool (float_test op a b) )
      else
        T
          ( Kflt,
            rt,
            fun env ->
              let b = fb env in
              let a = fa env in
              step env sk;
              float_binop op single a b )
    | Cty.Int | Cty.Uint ->
      (* both operands are [Kint] (a wider or float one widens [ct]), or
         this is a shift by a [long] count, of which only the low 6 bits
         count *)
      let fa = int_of ca and fb = int_of cb in
      if test then
        T
          ( Kint,
            rt,
            fun env ->
              let b = fb env in
              let a = fa env in
              step env sk;
              bool (int_test op unsigned a b) )
      else
        T
          ( Kint,
            rt,
            fun env ->
              let b = fb env in
              let a = fa env in
              step env sk;
              int_binop op unsigned a b )
    | _ ->
      let fa = coerce Klong Cty.Long ca and fb = coerce Klong Cty.Long cb in
      if test then T (Kint, rt, op2 fa fb (fun _ a b -> bool (long_test op unsigned a b)))
      else T (Klong, rt, op2 fa fb (fun _ a b -> long_binop op unsigned a b)))
  (* pointer arithmetic, in the interpreter's pattern order: [p - q]
     counts elements; [p + x], [p - n] and [n + p] move by whole
     elements *)
  | T (Kptr, pty, fp), T (Kptr, _, fq) when op = Ast.Sub ->
    let size = sizeof k (Cty.pointee pty) in
    T (Klong, Cty.Long, op2 fp fq (fun _ p q -> Int64.of_int (Addr.diff p q / size)))
  | T (Kptr, pty, fp), T _ when (op = Ast.Add || op = Ast.Sub) && is_int cb ->
    let size = sizeof k (Cty.pointee pty) and sign = if op = Ast.Sub then -1 else 1 in
    T (Kptr, pty, op2 fp (int_of cb) (fun _ p i -> Addr.add p (sign * i * size)))
  | T _, T (Kptr, pty, fp) when op = Ast.Add && is_int ca ->
    let size = sizeof k (Cty.pointee pty) in
    T (Kptr, pty, op2 (int_of ca) fp (fun _ i p -> Addr.add p (i * size)))
  | T (Kptr, _, fp), T (Kptr, _, fq) when test && op <> Ast.LogAnd && op <> Ast.LogOr ->
    let holds c =
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Gt -> c > 0
      | Ast.Le -> c <= 0
      | _ -> c >= 0
    in
    T (Kint, Cty.Int, op2 fp fq (fun _ p q -> bool (holds (Addr.compare p q))))
  | T (Kptr, _, fp), T _ when (op = Ast.Eq || op = Ast.Ne) && is_int cb ->
    let eq = op = Ast.Eq in
    T
      ( Kint,
        Cty.Int,
        op2 fp (coerce Klong Cty.Long cb) (fun _ p i ->
            let null = Addr.is_null p && i = 0L and same = Int64.equal (Addr.to_int64 p) i in
            bool (if eq then same || null else (not null) && not same)) )
  | T _, T (Kptr, _, fp) when (op = Ast.Eq || op = Ast.Ne) && is_int ca ->
    let eq = op = Ast.Eq in
    T
      ( Kint,
        Cty.Int,
        op2 (coerce Klong Cty.Long ca) fp (fun _ i p ->
            let null = Addr.is_null p && i = 0L in
            bool (if eq then null else not null)) )
  | _ -> ill_typed "operands of %s: %s and %s" (Ast.show_binop op) (Cty.show (static_type ca))
           (Cty.show (static_type cb))

(* ---------------------------------------------------------------- *)
(* Places: statically typed scalar lvalues                            *)
(* ---------------------------------------------------------------- *)

(* A scalar lvalue of static type [ty]: a promoted local (its
   register), or a memory location of [bytes] bytes whose address a
   closure computes, with the steps of that computation. *)
type place =
  | Pl_reg : 'a kind * Cty.t * int -> place (* kind, type, register *)
  | Pl_mem : 'a kind * Cty.t * int * (env -> Addr.t) -> place (* kind, type, bytes, address *)

(* An lvalue: its type and a closure computing its address. *)
type lv = Lv of Cty.t * (env -> Addr.t)

type (_, _) eq = Refl : ('a, 'a) eq

let same_kind : type a b. a kind -> b kind -> (a, b) eq option =
 fun a b ->
  match (a, b) with
  | Kint, Kint -> Some Refl
  | Klong, Klong -> Some Refl
  | Kflt, Kflt -> Some Refl
  | Kptr, Kptr -> Some Refl
  | _ -> None

let place_of_lv k (Lv (ty, fa) : lv) : place option =
  match kind_of ty with Some (K kind) -> Some (Pl_mem (kind, ty, sizeof k ty, fa)) | None -> None

(* The value of a place: its register, or its access and the payload. *)
let read_place (pl : place) : cexpr =
  match pl with
  | Pl_reg (Kint, ty, r) -> T (Kint, ty, fun env -> Array.unsafe_get env.e_ints r)
  | Pl_reg (kind, ty, r) -> T (kind, ty, fun env -> reg_get kind env r)
  | Pl_mem (kind, ty, bytes, addr) -> T (kind, ty, fun env -> load kind ty bytes env (addr env))

(* [lhs = rhs]: address, value, then its cast, access and store. *)
let assign_place (pl : place) (rhs : cexpr) : cexpr =
  match pl with
  | Pl_reg (kind, ty, r) ->
    let v = coerce kind ty rhs in
    T
      ( kind,
        ty,
        fun env ->
          let x = v env in
          reg_set kind env r x;
          x )
  | Pl_mem (kind, ty, bytes, addr) ->
    let v = coerce kind ty rhs in
    T
      ( kind,
        ty,
        fun env ->
          let a = addr env in
          let x = v env in
          store kind ty bytes env a x;
          x )

(* [lhs op= rhs] in the interpreter's order: address, current value,
   right-hand side, the operator's step, the cast, the store.  A [float]
   or [double] place updated by a float-domain [+ - * /] that needs no
   conversion is spelled out, so no float is boxed on the way; with
   [used = false] (a statement) its result is not boxed either.
   Otherwise the current value is kept in a register of its own and the
   operator is [arith]'s, whatever the operand types. *)
let[@inline] float_apply (op : Ast.binop) single a b =
  let r = match op with Ast.Add -> a +. b | Ast.Sub -> a -. b | Ast.Mul -> a *. b | _ -> a /. b in
  if single then round32 r else r

let compound k (pl : place) (op : Ast.binop) (rhs : cexpr) ~(used : bool) : cexpr =
  let float_place ty =
    (match op with Ast.Add | Ast.Sub | Ast.Mul | Ast.Div -> true | _ -> false)
    &&
    let tr = static_type rhs in
    Cty.is_arith tr && Cty.common_arith ty tr = ty
  in
  let sk = step_class op in
  let[@inline] apply single cur b = float_apply op single cur b in
  match pl with
  | Pl_reg (Kflt, ty, r) when float_place ty ->
    let fb = coerce Kflt Cty.Double rhs and single = ty = Cty.Float in
    T
      ( Kflt,
        ty,
        fun env ->
          let cur = Array.unsafe_get env.e_flts r in
          let b = fb env in
          step env sk;
          let x = apply single cur b in
          Array.unsafe_set env.e_flts r x;
          if used then x else 0.0 )
  | Pl_mem (Kflt, ty, bytes, addr) when float_place ty ->
    let fb = coerce Kflt Cty.Double rhs and single = ty = Cty.Float in
    T
      ( Kflt,
        ty,
        fun env ->
          let a = addr env in
          let cur = mem_load_float (access env Interp.Load a bytes) a ty in
          let b = fb env in
          step env sk;
          let x = apply single cur b in
          mem_store_float (access env Interp.Store a bytes) a ty x;
          if used then x else 0.0 )
  | Pl_reg (kind, ty, r) ->
    let tmp = new_reg k kind in
    let v = coerce kind ty (arith k op (T (kind, ty, fun env -> reg_get kind env tmp)) rhs) in
    T
      ( kind,
        ty,
        fun env ->
          reg_set kind env tmp (reg_get kind env r);
          let x = v env in
          reg_set kind env r x;
          x )
  | Pl_mem (kind, ty, bytes, addr) ->
    let tmp = new_reg k kind in
    let v = coerce kind ty (arith k op (T (kind, ty, fun env -> reg_get kind env tmp)) rhs) in
    T
      ( kind,
        ty,
        fun env ->
          let a = addr env in
          reg_set kind env tmp (load kind ty bytes env a);
          let x = v env in
          store kind ty bytes env a x;
          x )

(* [++]/[--] on a place: the step first, then address, old value, new
   value (as interp's [eval_unop] computes it) and store. *)
let incdec k (pl : place) ~(post : bool) ~(delta : int) : cexpr =
  let bump : type a. a kind -> Cty.t -> env -> a -> a =
   fun kind ty ->
    match kind with
    | Kint -> fun _ x -> Value.normalise_narrow ty (x + delta)
    | Klong -> fun _ x -> Int64.add x (Int64.of_int delta)
    | Kflt ->
      let single = ty = Cty.Float in
      fun _ x ->
        let r = x +. float_of_int delta in
        if single then round32 r else r
    | Kptr ->
      let n = sizeof k (Cty.pointee ty) in
      fun _ p -> Addr.add p (delta * n)
  in
  match pl with
  | Pl_reg (Kint, ty, r) when ty = Cty.Int ->
    (* the loop-counter idiom *)
    T
      ( Kint,
        ty,
        fun env ->
          step env Interp.St_arith;
          let old = Array.unsafe_get env.e_ints r in
          let v = (old + delta) land 0xFFFFFFFF in
          let upd = if v > 0x7FFFFFFF then v - 0x100000000 else v in
          Array.unsafe_set env.e_ints r upd;
          if post then old else upd )
  | Pl_reg (kind, ty, r) ->
    let bump = bump kind ty in
    T
      ( kind,
        ty,
        fun env ->
          step env Interp.St_arith;
          let old = reg_get kind env r in
          let upd = bump env old in
          reg_set kind env r upd;
          if post then old else upd )
  | Pl_mem (kind, ty, bytes, addr) ->
    let bump = bump kind ty in
    T
      ( kind,
        ty,
        fun env ->
          step env Interp.St_arith;
          let a = addr env in
          let old = load kind ty bytes env a in
          let upd = bump env old in
          store kind ty bytes env a upd;
          if post then old else upd )

(* ---------------------------------------------------------------- *)
(* Expression compilation                                             *)
(* ---------------------------------------------------------------- *)

let const (v : Value.t) : cexpr =
  match v with
  | Value.VInt (i, (Cty.Long | Cty.Ulong as ty)) -> T (Klong, ty, fun _ -> i)
  | Value.VInt (i, ty) ->
    let n = Int64.to_int i in
    T (Kint, ty, fun _ -> n)
  | Value.VFlt (f, ty) -> T (Kflt, ty, fun _ -> f)
  | Value.VPtr (a, elt) -> T (Kptr, Cty.Ptr elt, fun _ -> a)
  | Value.VVoid -> V (Cty.Void, fun _ -> v)

(* [c] with the cast's step charged before it is evaluated. *)
let stepped (c : cexpr) : cexpr =
  match c with
  | T (kind, ty, f) ->
    T
      ( kind,
        ty,
        fun env ->
          step env Interp.St_arith;
          f env )
  | V (ty, f) ->
    V
      ( ty,
        fun env ->
          step env Interp.St_arith;
          f env )

let rec compile_expr k (e : Ast.expr) : cexpr =
  match e with
  | Ast.IntLit (i, ty) -> const (Value.int ~ty i)
  | Ast.FloatLit (f, ty) -> const (Value.flt ~ty f)
  | Ast.CharLit c -> const (Value.of_int (Char.code c))
  | Ast.StrLit s ->
    T (Kptr, Cty.Ptr Cty.Char, fun env -> Interp.intern_string env.e_inst.i_ctx s)
  | Ast.Ident x -> (
    match List.assoc_opt x k.k_scope with
    | Some lc -> (
      match (lc.lc_ty, lc.lc_reg) with
      | Cty.Array (elt, _), _ ->
        let slot = lc.lc_slot in
        T (Kptr, Cty.Ptr elt, fun env -> env.e_frame.(slot))
      | ty, R (kind, r) -> read_place (Pl_reg (kind, ty, r))
      | _ -> rvalue k (compile_lvalue k e))
    | None when Hashtbl.mem k.k_env.Typecheck.globals x -> rvalue k (compile_lvalue k e)
    | None -> (
      (* a function used as a pointer value *)
      match Hashtbl.find_opt k.k_env.Typecheck.funcs x with
      | Some (ret, params) ->
        let idx = cell_index k x in
        V
          ( Cty.Func (ret, List.map snd params, false),
            fun env ->
              match resolve_cell env.e_inst idx x with
              | Cell_fn v -> v
              | Cell_var _ | Cell_unresolved ->
                Interp.runtime_error "'%s' is bound as a variable but was compiled as a function" x )
      | None -> ill_typed "unbound identifier '%s'" x))
  | Ast.Index _ | Ast.Member _ | Ast.Arrow _ | Ast.Deref _ -> rvalue k (compile_lvalue k e)
  | Ast.Unop (op, a) -> compile_unop k op a
  | Ast.Binop (Ast.LogAnd, a, b) ->
    let ca = truth (compile_expr k a) and cb = truth (compile_expr k b) in
    T
      ( Kint,
        Cty.Int,
        fun env ->
          step env Interp.St_branch;
          if ca env && cb env then 1 else 0 )
  | Ast.Binop (Ast.LogOr, a, b) ->
    let ca = truth (compile_expr k a) and cb = truth (compile_expr k b) in
    T
      ( Kint,
        Cty.Int,
        fun env ->
          step env Interp.St_branch;
          if ca env || cb env then 1 else 0 )
  | Ast.Binop (op, a, b) ->
    let ca = compile_expr k a in
    let cb = compile_expr k b in
    arith k op ca cb
  | Ast.Assign (op, lhs, rhs) -> (
    let pl = compile_target k lhs in
    let cr = compile_expr k rhs in
    match op with None -> assign_place pl cr | Some bop -> compound k pl bop cr ~used:true)
  | Ast.Call (f, args) -> compile_call k f args
  | Ast.AddrOf a ->
    let (Lv (ty, fa)) = compile_lvalue k a in
    T (Kptr, Cty.Ptr ty, fa)
  | Ast.Cast (ty, a) -> convert (Cty.decay ty) (stepped (compile_expr k a))
  | Ast.SizeofT ty -> const (Value.of_int ~ty:Cty.Ulong (sizeof k ty))
  | Ast.SizeofE _ -> ill_typed "sizeof(expression) not elaborated"
  | Ast.Cond (c, t, f) -> (
    (* the elaboration gives both arms the conditional's type *)
    let cc = truth (compile_expr k c) in
    match (compile_expr k t, compile_expr k f) with
    | T (kt, tt, ft), T (kf, tf, ff) -> (
      match same_kind kt kf with
      | Some Refl when Cty.equal tt tf ->
        T
          ( kt,
            tt,
            fun env ->
              step env Interp.St_branch;
              if cc env then ft env else ff env )
      | _ -> ill_typed "conditional arms of types %s and %s" (Cty.show tt) (Cty.show tf))
    | ct, cf ->
      let vt = value_of ct and vf = value_of cf in
      V
        ( static_type ct,
          fun env ->
            step env Interp.St_branch;
            if cc env then vt env else vf env ))
  | Ast.Comma (a, b) -> (
    let ea = effect_of (compile_expr k a) in
    match compile_expr k b with
    | T (kind, ty, fb) ->
      T
        ( kind,
          ty,
          fun env ->
            ea env;
            fb env )
    | V (ty, fb) ->
      V
        ( ty,
          fun env ->
            ea env;
            fb env ))

(* An expression evaluated for its effects only (a statement, a [for]
   update): a compound assignment then need not box the value it
   stores. *)
and compile_effect k (e : Ast.expr) : cstmt =
  match e with
  | Ast.Assign (Some op, lhs, rhs) ->
    let pl = compile_target k lhs in
    effect_of (compound k pl op (compile_expr k rhs) ~used:false)
  | Ast.Comma (a, b) ->
    let ea = compile_effect k a in
    let eb = compile_effect k b in
    fun env ->
      ea env;
      eb env
  | _ -> effect_of (compile_expr k e)

(* The value of an lvalue: array decay, typed load of a scalar, or the
   interpreter's [load] (struct rvalues are handled by address). *)
and rvalue k (lv : lv) : cexpr =
  match lv with
  | Lv (Cty.Array (elt, _), fa) -> T (Kptr, Cty.Ptr elt, fa)
  | Lv (ty, fa) -> (
    match place_of_lv k lv with
    | Some pl -> read_place pl
    | None -> V (ty, fun env -> Interp.load env.e_inst.i_ctx (fa env) ty))

(* The target of an assignment or [++]/[--]: a scalar place. *)
and compile_target k (e : Ast.expr) : place =
  let local = match e with Ast.Ident x -> List.assoc_opt x k.k_scope | _ -> None in
  match local with
  | Some { lc_ty; lc_reg = R (kind, r); _ } -> Pl_reg (kind, lc_ty, r)
  | _ -> (
    match place_of_lv k (compile_lvalue k e) with
    | Some pl -> pl
    | None -> ill_typed "assignment to %s" (Ast.show_expr e))

and compile_lvalue k (e : Ast.expr) : lv =
  match e with
  | Ast.Ident x -> (
    match List.assoc_opt x k.k_scope with
    | Some lc ->
      (* The stack address.  A promoted local never gets here: its
         reads, writes and [++]/[--] are compiled as a place, [&x] keeps
         [x] in memory, and the elaboration rejects [x.f] on a scalar. *)
      let slot = lc.lc_slot in
      Lv (lc.lc_ty, fun env -> env.e_frame.(slot))
    | None -> (
      match Hashtbl.find_opt k.k_env.Typecheck.globals x with
      | Some ty ->
        let idx = cell_index k x in
        Lv (ty, fun env -> global_addr env.e_inst idx x ty)
      | None -> ill_typed "'%s' is not a variable" x))
  | Ast.Index (a, i) -> (
    let ca = compile_expr k a in
    let ci = int_of (compile_expr k i) in
    match ca with
    | T (Kptr, pty, fa) ->
      let elt = Cty.pointee pty in
      let size = sizeof k elt in
      Lv
        ( elt,
          fun env ->
            let base = fa env in
            let idx = ci env in
            step env Interp.St_arith;
            Addr.add base (idx * size) )
    | ca -> ill_typed "indexing %s" (Cty.show (static_type ca)))
  | Ast.Deref a -> (
    match compile_expr k a with
    | T (Kptr, pty, fa) -> Lv (Cty.pointee pty, fa)
    | ca -> ill_typed "dereferencing %s" (Cty.show (static_type ca)))
  | Ast.Member (a, fld) -> (
    match compile_lvalue k a with
    | Lv (Cty.Struct s, fa) -> field (Cty.find_field k.k_env.Typecheck.structs s fld) fa
    | Lv (ty, _) -> ill_typed "member access on %s" (Cty.show ty))
  | Ast.Arrow (a, fld) -> (
    match compile_expr k a with
    | T (Kptr, Cty.Ptr (Cty.Struct s), fa) -> field (Cty.find_field k.k_env.Typecheck.structs s fld) fa
    | ca -> ill_typed "arrow access on %s" (Cty.show (static_type ca)))
  | e -> ill_typed "expression is not an lvalue: %s" (Ast.show_expr e)

(* A field of a struct whose base address [fa] computes. *)
and field (f : Cty.field) (fa : env -> Addr.t) : lv =
  let off = f.Cty.fld_off in
  if off = 0 then Lv (f.Cty.fld_ty, fa) else Lv (f.Cty.fld_ty, fun env -> Addr.add (fa env) off)

and compile_unop k (op : Ast.unop) (a : Ast.expr) : cexpr =
  (* the step is charged before the operand is evaluated; the result
     has [Typecheck.unop_type]'s type *)
  match op with
  | Ast.Neg | Ast.BitNot -> (
    match (compile_expr k a, op) with
    | T (Kint, ty, f), _ ->
      let rt = Typecheck.unop_type op ty in
      let neg = op = Ast.Neg in
      T
        ( Kint,
          rt,
          fun env ->
            step env Interp.St_arith;
            let x = f env in
            Value.normalise_narrow rt (if neg then -x else lnot x) )
    | T (Klong, ty, f), _ ->
      let neg = op = Ast.Neg in
      T
        ( Klong,
          Typecheck.unop_type op ty,
          fun env ->
            step env Interp.St_arith;
            let x = f env in
            if neg then Int64.neg x else Int64.lognot x )
    | T (Kflt, ty, f), Ast.Neg ->
      let rt = Typecheck.unop_type op ty in
      let single = rt = Cty.Float in
      T
        ( Kflt,
          rt,
          fun env ->
            step env Interp.St_arith;
            let x = -.f env in
            if single then round32 x else x )
    | ca, _ -> ill_typed "%s of %s" (Ast.show_unop op) (Cty.show (static_type ca)))
  | Ast.Not ->
    let ca = truth (compile_expr k a) in
    T
      ( Kint,
        Typecheck.unop_type op Cty.Int,
        fun env ->
          step env Interp.St_arith;
          if ca env then 0 else 1 )
  | Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec ->
    let post = op = Ast.PostInc || op = Ast.PostDec in
    let delta = if op = Ast.PreInc || op = Ast.PostInc then 1 else -1 in
    incdec k (compile_target k a) ~post ~delta

(* A call, typed by the return type of the signature of the callee both
   executors pick ([Typecheck.call_type], which the elaboration has
   checked the call against).  The arguments pass as values, converted
   to their parameter types where the tree-walker converts them: by
   [Interp.apply_builtin] or a function's parameter stores.  The result
   a builtin or a function returns must have the return type: the
   compiled code reads its payload as one. *)
and compile_call k (f : string) (args : Ast.expr list) : cexpr =
  let cargs = List.map (compile_expr k) args in
  let rty = Cty.decay (Typecheck.call_type k.k_env f (List.map static_type cargs)) in
  let cargs = Array.of_list (List.map value_of cargs) in
  let nargs = Array.length cargs in
  let site = call_site k in
  let compiled_tbl = k.k_compiled in
  let call env =
    let inst = env.e_inst in
    let ctx = inst.i_ctx in
    (* argument list built left-to-right, like interp's List.map *)
    let rec build i =
      if i >= nargs then []
      else
        let v = cargs.(i) env in
        v :: build (i + 1)
    in
    let vals = build 0 in
    step env Interp.St_call;
    let target =
      match inst.i_calls.(site) with
      | Tgt_unresolved ->
        (* same resolution order as interp's [call]: builtins shadow
           defined functions *)
        let t =
          match Hashtbl.find_opt ctx.Interp.builtins f with
          | Some impl -> Tgt_builtin (impl, Interp.builtin_params f)
          | None -> (
            match Hashtbl.find_opt compiled_tbl f with
            | Some cf -> Tgt_compiled cf
            | None -> (
              match Hashtbl.find_opt ctx.Interp.funcs f with
              | Some fd -> Tgt_tree fd
              | None -> Interp.runtime_error "call to undefined function '%s'" f))
        in
        inst.i_calls.(site) <- t;
        t
      | t -> t
    in
    match target with
    | Tgt_builtin (impl, params) -> Interp.apply_builtin ctx f impl params vals
    | Tgt_compiled cf -> invoke inst cf vals
    | Tgt_tree fd -> Interp.tree_call_fundef ctx fd vals
    | Tgt_unresolved -> assert false
  in
  let mismatch v =
    Interp.runtime_error "'%s' returned %s where %s was declared" f (Value.show v)
      (Cty.to_c_string rty)
  in
  match kind_of rty with
  | Some (K Kint) ->
    T
      ( Kint,
        rty,
        fun env ->
          match call env with
          | Value.VInt (i, ty) when Cty.equal ty rty -> Int64.to_int i
          | v -> mismatch v )
  | Some (K Klong) ->
    T
      ( Klong,
        rty,
        fun env ->
          match call env with Value.VInt (i, ty) when Cty.equal ty rty -> i | v -> mismatch v )
  | Some (K Kflt) ->
    T
      ( Kflt,
        rty,
        fun env ->
          match call env with Value.VFlt (x, ty) when Cty.equal ty rty -> x | v -> mismatch v )
  | Some (K Kptr) ->
    let elt = Cty.pointee rty in
    T
      ( Kptr,
        rty,
        fun env ->
          match call env with Value.VPtr (a, ty) when Cty.equal ty elt -> a | v -> mismatch v )
  | None -> V (rty, call)

(* ---------------------------------------------------------------- *)
(* Statement compilation                                              *)
(* ---------------------------------------------------------------- *)

(* Does this statement (or an unbraced substatement of it) declare
   directly into the enclosing scope?  If so the enclosing construct
   must bracket execution with a stack mark/release, exactly where the
   interpreter's frame push/pop would release the pushed bytes.
   [Sblock] and [Sfor] manage their own frames. *)
let rec open_decl (s : Ast.stmt) : bool =
  match s with
  | Ast.Sdecl _ -> true
  | Ast.Sif (_, t, e) -> open_decl t || (match e with Some e -> open_decl e | None -> false)
  | Ast.Swhile (_, b) | Ast.Sdo (b, _) -> open_decl b
  | Ast.Spragma (_, Some b) -> open_decl b
  | _ -> false

let with_mark (body : cstmt) : cstmt =
 fun env ->
  let local = env.e_inst.i_ctx.Interp.local in
  let m = Mem.mark local in
  (match body env with
  | () -> ()
  | exception e ->
    Mem.release local m;
    raise e);
  Mem.release local m

let seq (l : cstmt list) : cstmt =
  match l with
  | [] -> fun _ -> ()
  | [ s ] -> s
  | [ s1; s2 ] ->
    fun env ->
      s1 env;
      s2 env
  | l ->
    let a = Array.of_list l in
    fun env -> Array.iter (fun s -> s env) a

let rec compile_stmt k (s : Ast.stmt) : cstmt =
  match s with
  | Ast.Snop -> fun _ -> ()
  | Ast.Sexpr e -> compile_effect k e
  | Ast.Sdecl ds -> seq (List.map (compile_decl k) ds)
  | Ast.Sblock ss ->
    let saved_scope = k.k_scope in
    let saved_next = k.k_next_slot in
    let body = seq (List.map (compile_stmt k) ss) in
    k.k_scope <- saved_scope;
    k.k_next_slot <- saved_next;
    if List.exists open_decl ss then with_mark body else body
  | Ast.Sif (c, t, e) -> (
    let cc = truth (compile_expr k c) in
    let ct = compile_stmt k t in
    match e with
    | Some e ->
      let ce = compile_stmt k e in
      fun env ->
        step env Interp.St_branch;
        if cc env then ct env else ce env
    | None ->
      fun env ->
        step env Interp.St_branch;
        if cc env then ct env)
  | Ast.Swhile (c, body) ->
    let cc = truth (compile_expr k c) in
    let cb = compile_stmt k body in
    fun env -> (
      try
        while
          step env Interp.St_branch;
          cc env
        do
          try cb env with Jit_continue -> ()
        done
      with Jit_break -> ())
  | Ast.Sdo (body, c) ->
    let cb = compile_stmt k body in
    let cc = truth (compile_expr k c) in
    fun env -> (
      try
        let continue_loop = ref true in
        while !continue_loop do
          (try cb env with Jit_continue -> ());
          step env Interp.St_branch;
          continue_loop := cc env
        done
      with Jit_break -> ())
  | Ast.Sfor (init, cond, update, body) ->
    let saved_scope = k.k_scope in
    let saved_next = k.k_next_slot in
    let cinit = Option.map (compile_stmt k) init in
    let ccond = Option.map (fun c -> truth (compile_expr k c)) cond in
    let cupd = Option.map (compile_effect k) update in
    let cbody = compile_stmt k body in
    k.k_scope <- saved_scope;
    k.k_next_slot <- saved_next;
    let check =
      match ccond with
      | None ->
        fun env ->
          step env Interp.St_branch;
          true
      | Some cc ->
        fun env ->
          step env Interp.St_branch;
          cc env
    in
    let run env =
      (match cinit with Some ci -> ci env | None -> ());
      try
        while check env do
          (try cbody env with Jit_continue -> ());
          match cupd with Some cu -> cu env | None -> ()
        done
      with Jit_break -> ()
    in
    (* interp pushes a frame for every for-statement; its stack effect
       is only observable when the init or an unbraced body statement
       declares, so mark/release only then (same net Mem sequence) *)
    let needs_mark =
      (match init with Some s -> open_decl s | None -> false) || open_decl body
    in
    if needs_mark then with_mark run else run
  | Ast.Sreturn None -> fun _ -> raise (Jit_return Value.VVoid)
  | Ast.Sreturn (Some e) ->
    let ce = value_of (compile_expr k e) in
    fun env -> raise (Jit_return (ce env))
  | Ast.Sbreak -> fun _ -> raise Jit_break
  | Ast.Scontinue -> fun _ -> raise Jit_continue
  | Ast.Spragma (Ast.Omp dir, _) ->
    (* the interpreter rejects these at execution time; match it *)
    let msg =
      Format.asprintf "unlowered OpenMP directive reached the interpreter: %a" Pretty.pp_directive
        dir
    in
    fun _ -> raise (Interp.Runtime_error msg)
  | Ast.Spragma (Ast.Raw _, body) -> (
    match body with Some b -> compile_stmt k b | None -> fun _ -> ())

and compile_decl k (d : Ast.decl) : cstmt =
  let ty = d.Ast.d_ty in
  let name = d.Ast.d_name in
  let lc = declare_slot k ~shared:d.Ast.d_shared name ty in
  let slot = lc.lc_slot in
  match lc.lc_reg with
  | R (kind, r) -> compile_promoted_decl k lc kind r d.Ast.d_init
  | R_mem when d.Ast.d_shared ->
    (* all threads of a block resolve to one instance via the context's
       shared-variable registry; no local-stack push *)
    let init = Option.map (compile_init k ty) d.Ast.d_init in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      (match ctx.Interp.shared_decl with
      | None -> Interp.runtime_error "__shared__ declaration outside device code"
      | Some f ->
        let addr = f name ty in
        env.e_frame.(slot) <- addr;
        match init with Some ci -> ci env addr | None -> ())
  | R_mem -> (
    let init = Option.map (compile_init k ty) d.Ast.d_init in
    let size = sizeof k ty in
    match init with
    | None -> fun env -> env.e_frame.(slot) <- Mem.push env.e_inst.i_ctx.Interp.local size
    | Some ci ->
      fun env ->
        let addr = Mem.push env.e_inst.i_ctx.Interp.local size in
        env.e_frame.(slot) <- addr;
        ci env addr)

(* A promoted declaration pushes its stack bytes like any other, so
   every other local keeps its address, and starts at the zero that
   [Mem.push] leaves in them; an initializer is evaluated, then cast
   and stored, as interp's [exec_init] does. *)
and compile_promoted_decl : type a. comp -> local -> a kind -> int -> Ast.init option -> cstmt =
 fun k lc kind r init ->
  let ty = lc.lc_ty in
  let bytes = sizeof k ty in
  let z = zero kind in
  let declare env =
    let addr = Mem.push env.e_inst.i_ctx.Interp.local bytes in
    reg_set kind env r z;
    addr
  in
  match init with
  | None -> fun env -> ignore (declare env)
  | Some (Ast.Iexpr e) ->
    let v = coerce kind ty (compile_expr k e) in
    fun env ->
      ignore (declare env);
      reg_set kind env r (v env)
  | Some (Ast.Ilist _ as init) ->
    (* rejected at run time, before any access *)
    let ci = compile_init k ty init in
    fun env -> ci env (declare env)

and compile_init k (ty : Cty.t) (init : Ast.init) : env -> Addr.t -> unit =
  match (init, ty) with
  | Ast.Iexpr e, _ -> (
    match kind_of ty with
    | Some (K kind) ->
      let v = coerce kind ty (compile_expr k e) and bytes = sizeof k ty in
      fun env addr -> store kind ty bytes env addr (v env)
    | None -> ill_typed "%s initialized from an expression" (Cty.show ty))
  | Ast.Ilist items, Cty.Array (elt, _) ->
    let esz = sizeof k elt in
    let subs = List.mapi (fun i item -> (i * esz, compile_init k elt item)) items in
    fun env addr -> List.iter (fun (off, ci) -> ci env (Addr.add addr off)) subs
  | Ast.Ilist items, Cty.Struct s ->
    let lay = Cty.lookup_layout k.k_env.Typecheck.structs s in
    let subs =
      List.mapi
        (fun i item ->
          match List.nth_opt lay.Cty.lay_fields i with
          | Some f ->
            let ci = compile_init k f.Cty.fld_ty item in
            fun env addr -> ci env (Addr.add addr f.Cty.fld_off)
          | None -> fun _ _ -> Interp.runtime_error "too many initializers for struct %s" s)
        items
    in
    fun env addr -> List.iter (fun ci -> ci env addr) subs
  | Ast.Ilist _, ty ->
    let shown = Cty.show ty in
    fun _ _ -> Interp.runtime_error "brace initializer for scalar %s" shown

(* ---------------------------------------------------------------- *)
(* Module compilation, per-launch linking, per-thread attachment      *)
(* ---------------------------------------------------------------- *)

let compile_fun k (fd : Ast.fundef) : cfun =
  k.k_escaped <- address_taken fd;
  k.k_scope <- [];
  k.k_next_slot <- 0;
  k.k_max_slots <- 0;
  k.k_ints <- 0;
  k.k_longs <- 0;
  k.k_flts <- 0;
  k.k_ptrs <- 0;
  let params =
    Array.of_list
      (List.map
         (fun (name, ty) ->
           let ty = Cty.decay ty in
           let size = sizeof k ty in
           let lc = declare_slot k name ty in
           (ty, size, lc.lc_reg))
         fd.Ast.f_params)
  in
  let cf =
    {
      cf_def = fd;
      cf_params = params;
      cf_ret = fd.Ast.f_ret;
      cf_shape = { sh_slots = 0; sh_ints = 0; sh_longs = 0; sh_flts = 0; sh_ptrs = 0 };
      cf_body = (fun _ -> ());
    }
  in
  let body = compile_stmt k fd.Ast.f_body in
  cf.cf_shape <-
    {
      sh_slots = k.k_max_slots;
      sh_ints = k.k_ints;
      sh_longs = k.k_longs;
      sh_flts = k.k_flts;
      sh_ptrs = k.k_ptrs;
    };
  cf.cf_body <- body;
  cf

let compile ~(env : Typecheck.env) ~(funcs : (string, Ast.fundef) Hashtbl.t) : compiled =
  let k =
    {
      k_env = env;
      k_compiled = Hashtbl.create (max 8 (Hashtbl.length funcs));
      k_cells = Hashtbl.create 16;
      k_ncells = 0;
      k_ncalls = 0;
      k_scope = [];
      k_escaped = [];
      k_next_slot = 0;
      k_max_slots = 0;
      k_ints = 0;
      k_longs = 0;
      k_flts = 0;
      k_ptrs = 0;
    }
  in
  (* deterministic compile order (hashtable fold order is not) *)
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) funcs [] |> List.sort compare in
  let left_out =
    List.filter_map
      (fun name ->
        let fd = Hashtbl.find funcs name in
        match compile_fun k fd with
        | cf ->
          Hashtbl.replace k.k_compiled name cf;
          None
        | exception e ->
          (* left out: it executes via the tree-walker, and [left_out]
             reports it *)
          Some (name, Printexc.to_string e))
      names
  in
  { c_funcs = k.k_compiled; c_ncells = k.k_ncells; c_ncalls = k.k_ncalls; c_left_out = left_out }

let link (c : compiled) ~(builtins : Interp.builtins) ~(funcs : (string, Ast.fundef) Hashtbl.t) :
    linked =
  { l_compiled = c; l_builtins = builtins; l_funcs = funcs; l_calls = Array.make (max 1 c.c_ncalls) Tgt_unresolved }

type instance = inst

(* Free names resolve afresh (their memo holds one run's addresses and
   function-pointer ids), and calls go through the compiled forms
   again after [Interp.reset] detached them.  Allocates nothing. *)
let rearm (inst : instance) : unit =
  Array.fill inst.i_cells 0 (Array.length inst.i_cells) Cell_unresolved;
  inst.i_ctx.Interp.dispatch <- inst.i_dispatch

let attach (l : linked) (ctx : Interp.t) : instance =
  (* call sites resolve against the shared tables, once for all threads *)
  if ctx.Interp.builtins != l.l_builtins || ctx.Interp.funcs != l.l_funcs then
    invalid_arg "Jit.attach: context does not use the linked builtin and function tables";
  let c = l.l_compiled in
  let cells = Array.make (max 1 c.c_ncells) Cell_unresolved in
  let rec inst =
    {
      i_ctx = ctx;
      i_cells = cells;
      i_calls = l.l_calls;
      i_dispatch =
        Some
          (fun ctx' fd args ->
            match Hashtbl.find_opt c.c_funcs fd.Ast.f_name with
            | Some cf when cf.cf_def == fd -> invoke inst cf args
            | _ -> Interp.tree_call_fundef ctx' fd args);
      i_entry = None;
    }
  in
  rearm inst;
  inst
