(* Closure-compiling JIT for mini-C kernel ASTs.

   The tree-walking interpreter (interp.ml) re-resolves every name and
   re-dispatches on every AST constructor for every thread at every
   step.  This module compiles a module's function bodies ONCE — at
   nvcc/module-load time — into chains of OCaml closures:

   - constructor dispatch happens once per expression, at compile time;
   - local variables are resolved to slots of a flat per-call frame
     (an [Addr.t array]), so reads and writes are array indexing
     instead of hashtable probes through a frame list;
   - call targets are resolved lazily on first execution and memoized
     once per launch ([link]): every thread of a launch shares one
     builtin table and one function table, so a call site resolves the
     same way for all of them;
   - free names (threadIdx, device globals, ...) are resolved lazily and
     memoized per thread, since their addresses differ between threads.

   Per-thread state (the interpreter context, the slot frame) is
   threaded through every closure as an explicit [env] argument, so one
   compiled form is shared by all threads of all launches of a module.

   Semantics are mirrored from interp.ml exactly — same [on_step] /
   [on_access] hook sequences, same evaluation order (including the
   right-to-left argument order OCaml gives interp's [apply_binop]
   call), same [Mem] mark/push/release sequence, and builtins still run
   through the interpreter context — so barriers/yield points,
   divergence, counters, cost model, zero-copy and fault injection all
   behave identically.  Variables still live in simulated memory (the
   frame holds their addresses), keeping addressability and access
   accounting; only the *name resolution* and *dispatch* work is
   hoisted to compile time.

   Compilation is total: constructs that the interpreter would reject
   at runtime (unlowered OpenMP pragmas, brace-initialized scalars...)
   compile to closures that raise the interpreter's exact error at
   execution time, and any unexpected compile-time failure simply
   leaves that function out of the compiled table, falling back to the
   tree-walker. *)

open Machine
open Minic

(* Control-flow exceptions private to compiled code: they never cross
   an engine boundary (invoke catches Jit_return; loops catch
   Jit_break/Jit_continue), so mixed compiled/tree execution stays
   well-bracketed. *)
exception Jit_return of Value.t
exception Jit_break
exception Jit_continue

(* Per-thread memoization cell for a free (non-local) name. *)
type cell =
  | Cell_unresolved
  | Cell_var of Cty.t * Addr.t
  | Cell_fn of Value.t (* function pointer value *)

(* Memoized resolution of one call site, shared by the threads of a launch. *)
type target =
  | Tgt_unresolved
  | Tgt_builtin of (Interp.t -> Value.t list -> Value.t)
  | Tgt_compiled of cfun
  | Tgt_tree of Ast.fundef

(* One compiled function: body closure plus the frame shape. *)
and cfun = {
  cf_def : Ast.fundef;
  cf_params : (Cty.t * int) array; (* decayed type, size; slot = index *)
  cf_ret : Cty.t;
  mutable cf_nslots : int;
  mutable cf_body : cstmt;
}

(* Per-thread instantiation of a compiled module. *)
and inst = {
  i_ctx : Interp.t;
  i_cells : cell array;
  i_calls : target array; (* the launch's [l_calls], shared *)
}

(* Execution environment threaded through every closure: the thread's
   instantiation plus the current call's slot frame (addresses of the
   locals in simulated memory). *)
and env = { e_inst : inst; e_frame : Addr.t array }

and cexpr = env -> Value.t

and cstmt = env -> unit

type compiled = {
  c_funcs : (string, cfun) Hashtbl.t;
  c_ncells : int;
  c_ncalls : int;
}

(* A compiled module linked for one launch: the call-target memo shared
   by every context attached to it, all of which use [l_builtins] and
   [l_funcs]. *)
type linked = {
  l_compiled : compiled;
  l_builtins : Interp.builtins;
  l_funcs : (string, Ast.fundef) Hashtbl.t;
  l_calls : target array;
}

let function_count c = Hashtbl.length c.c_funcs

(* ---------------------------------------------------------------- *)
(* Compile-time state                                                 *)
(* ---------------------------------------------------------------- *)

type comp = {
  k_structs : Cty.layout_env;
  k_compiled : (string, cfun) Hashtbl.t;
  k_cells : (string, int) Hashtbl.t; (* free name -> cell index *)
  mutable k_ncells : int;
  mutable k_ncalls : int;
  (* per-function scope: innermost binding first *)
  mutable k_scope : (string * (int * Cty.t)) list;
  mutable k_next_slot : int;
  mutable k_max_slots : int;
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

let declare_slot k name ty : int =
  let slot = k.k_next_slot in
  k.k_next_slot <- slot + 1;
  if k.k_next_slot > k.k_max_slots then k.k_max_slots <- k.k_next_slot;
  k.k_scope <- (name, (slot, ty)) :: k.k_scope;
  slot

(* Scope discipline mirrors the interpreter's frame pushes: [Sblock]
   and [Sfor] open a scope (slots are reused after it closes); a
   declaration anywhere else — directly in a statement list or under an
   unbraced if/while arm — extends the current scope, exactly like the
   interpreter's "declare into the innermost frame". *)

(* ---------------------------------------------------------------- *)
(* Runtime helpers                                                    *)
(* ---------------------------------------------------------------- *)

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

(* Call a compiled function: the interpreter's [tree_call_fundef]
   protocol (depth guard, one stack mark covering the parameters, the
   same per-parameter push+store sequence) with a slot frame instead of
   a hashtable frame. *)
let invoke (inst : inst) (cf : cfun) (args : Value.t list) : Value.t =
  let ctx = inst.i_ctx in
  if ctx.Interp.depth >= ctx.Interp.max_depth then
    Interp.runtime_error "call stack overflow in '%s'" cf.cf_def.Ast.f_name;
  let nparams = Array.length cf.cf_params in
  if List.length args <> nparams then
    Interp.runtime_error "'%s' expects %d arguments, got %d" cf.cf_def.Ast.f_name nparams
      (List.length args);
  ctx.Interp.depth <- ctx.Interp.depth + 1;
  let mark = Mem.mark ctx.Interp.local in
  let finally () =
    Mem.release ctx.Interp.local mark;
    ctx.Interp.depth <- ctx.Interp.depth - 1
  in
  let frame = Array.make cf.cf_nslots Addr.null in
  let env = { e_inst = inst; e_frame = frame } in
  match
    List.iteri
      (fun i v ->
        let ty, size = cf.cf_params.(i) in
        let addr = Mem.push ctx.Interp.local size in
        frame.(i) <- addr;
        Interp.store ctx addr ty v)
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
(* Expression compilation                                             *)
(* ---------------------------------------------------------------- *)

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

(* Byte size of [ty] when it is a plain scalar whose layout is known at
   compile time, so slot accesses can skip the per-access sizeof. *)
let scalar_bytes k (ty : Cty.t) : int option =
  match ty with
  | Cty.Struct _ | Cty.Void | Cty.Array _ | Cty.Func _ -> None
  | _ -> ( match Cty.sizeof k.k_structs ty with n -> Some n | exception _ -> None)

let rec compile_expr k (e : Ast.expr) : cexpr =
  match e with
  | Ast.IntLit (i, ty) ->
    let v = Value.int ~ty i in
    fun _ -> v
  | Ast.FloatLit (f, ty) ->
    let v = Value.flt ~ty f in
    fun _ -> v
  | Ast.CharLit c ->
    let v = Value.of_int (Char.code c) in
    fun _ -> v
  | Ast.StrLit s -> fun env -> Value.ptr ~ty:Cty.Char (Interp.intern_string env.e_inst.i_ctx s)
  | Ast.Ident x -> (
    match List.assoc_opt x k.k_scope with
    | Some (slot, ty) -> (
      (* bound local: the slot type is static, so array decay / struct
         handling / load specialize at compile time *)
      match ty with
      | Cty.Array (elt, _) -> fun env -> Value.ptr ~ty:elt env.e_frame.(slot)
      | Cty.Func _ -> fun _ -> Interp.runtime_error "function used as value"
      | ty -> (
        match scalar_bytes k ty with
        | Some bytes -> fun env -> Interp.load_sized env.e_inst.i_ctx env.e_frame.(slot) ty ~bytes
        | None -> fun env -> Interp.load env.e_inst.i_ctx env.e_frame.(slot) ty))
    | None ->
      let idx = cell_index k x in
      fun env -> (
        match resolve_cell env.e_inst idx x with
        | Cell_var (Cty.Array (elt, _), addr) -> Value.ptr ~ty:elt addr
        | Cell_var (Cty.Func _, _) -> Interp.runtime_error "function used as value"
        | Cell_var (ty, addr) -> Interp.load env.e_inst.i_ctx addr ty
        | Cell_fn v -> v
        | Cell_unresolved -> assert false))
  | Ast.Index (Ast.Ident x, i)
    when match List.assoc_opt x k.k_scope with
         | Some (_, Cty.Ptr elt) -> scalar_bytes k elt <> None
         | _ -> false ->
    (* [p[i]] with [p] a bound pointer-to-scalar local: the pointee type
       and both access sizes are static, and no (addr, ty) tuple is
       built.  Stores into the slot are cast to [Ptr elt], so the
       runtime pointee always equals the static one. *)
    let slot, elt =
      match List.assoc_opt x k.k_scope with
      | Some (slot, Cty.Ptr elt) -> (slot, elt)
      | _ -> assert false
    in
    let pty = Cty.Ptr elt in
    let ptrsz = Option.get (scalar_bytes k pty) in
    let eltsz = Option.get (scalar_bytes k elt) in
    let ci = compile_expr k i in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      let base = Interp.load_sized ctx env.e_frame.(slot) pty ~bytes:ptrsz in
      let idx = Value.to_int (ci env) in
      ctx.Interp.on_step Interp.St_arith;
      (match base with
      | Value.VPtr (addr, elt) -> Interp.load_sized ctx (Addr.add addr (idx * eltsz)) elt ~bytes:eltsz
      | v -> Interp.runtime_error "indexing non-pointer %s" (Value.show v))
  | Ast.Index _ | Ast.Member _ | Ast.Arrow _ | Ast.Deref _ ->
    let cl = compile_lvalue k e in
    fun env ->
      let addr, ty = cl env in
      (match ty with
      | Cty.Array (elt, _) -> Value.ptr ~ty:elt addr (* decay *)
      | Cty.Func _ -> Interp.runtime_error "function used as value"
      | _ -> Interp.load env.e_inst.i_ctx addr ty)
  | Ast.Unop (op, a) -> compile_unop k op a
  | Ast.Binop (op, a, b) -> compile_binop k op a b
  | Ast.Assign (None, Ast.Index (Ast.Ident x, i), rhs)
    when match List.assoc_opt x k.k_scope with
         | Some (_, Cty.Ptr elt) -> scalar_bytes k elt <> None
         | _ -> false ->
    (* [p[i] = e] with [p] a bound pointer-to-scalar local, fused the
       same way as the specialized [p[i]] load above *)
    let slot, elt =
      match List.assoc_opt x k.k_scope with
      | Some (slot, Cty.Ptr elt) -> (slot, elt)
      | _ -> assert false
    in
    let pty = Cty.Ptr elt in
    let ptrsz = Option.get (scalar_bytes k pty) in
    let eltsz = Option.get (scalar_bytes k elt) in
    let ci = compile_expr k i in
    let cr = compile_expr k rhs in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      let base = Interp.load_sized ctx env.e_frame.(slot) pty ~bytes:ptrsz in
      let idx = Value.to_int (ci env) in
      ctx.Interp.on_step Interp.St_arith;
      (match base with
      | Value.VPtr (addr, elt) ->
        let a = Addr.add addr (idx * eltsz) in
        let v = Value.cast elt (cr env) in
        Interp.store_sized ctx a elt ~bytes:eltsz v;
        v
      | v -> Interp.runtime_error "indexing non-pointer %s" (Value.show v))
  | Ast.Assign (None, Ast.Ident x, rhs)
    when match List.assoc_opt x k.k_scope with
         | Some (_, ty) -> scalar_bytes k ty <> None
         | None -> false ->
    (* plain store to a bound scalar local: type and size are static,
       and the slot lvalue needs no (addr, ty) tuple per evaluation *)
    let slot, ty = Option.get (List.assoc_opt x k.k_scope) in
    let bytes = Option.get (scalar_bytes k ty) in
    let cr = compile_expr k rhs in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      let v = Value.cast ty (cr env) in
      Interp.store_sized ctx env.e_frame.(slot) ty ~bytes v;
      v
  | Ast.Assign (op, lhs, rhs) -> (
    let cl = compile_lvalue k lhs in
    let cr = compile_expr k rhs in
    match op with
    | None ->
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let addr, ty = cl env in
        let v = Value.cast (Cty.decay ty) (cr env) in
        Interp.store ctx addr ty v;
        v
    | Some bop ->
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let addr, ty = cl env in
        let cur = Interp.load ctx addr ty in
        let rhs = cr env in
        let v = Value.cast (Cty.decay ty) (Interp.apply_binop ctx bop cur rhs) in
        Interp.store ctx addr ty v;
        v)
  | Ast.Call (f, args) -> compile_call k f args
  | Ast.AddrOf a ->
    let cl = compile_lvalue k a in
    fun env ->
      let addr, ty = cl env in
      Value.ptr ~ty addr
  | Ast.Cast (ty, a) ->
    let dty = Cty.decay ty in
    let ca = compile_expr k a in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
      Value.cast dty (ca env)
  | Ast.SizeofT ty -> (
    match Cty.sizeof k.k_structs ty with
    | n ->
      let v = Value.of_int ~ty:Cty.Ulong n in
      fun _ -> v
    | exception _ ->
      (* layout not known at compile time; defer like the interpreter *)
      fun env -> Value.of_int ~ty:Cty.Ulong (Interp.sizeof env.e_inst.i_ctx ty))
  | Ast.SizeofE a -> (
    (* sizeof(expr) needs the unconverted operand type *)
    match a with
    | Ast.Ident _ | Ast.Index _ | Ast.Member _ | Ast.Arrow _ | Ast.Deref _ ->
      let cl = compile_lvalue k a in
      fun env ->
        let _, ty = cl env in
        Value.of_int ~ty:Cty.Ulong (Interp.sizeof env.e_inst.i_ctx ty)
    | _ ->
      let ca = compile_expr k a in
      fun env -> Value.of_int ~ty:Cty.Ulong (Interp.sizeof env.e_inst.i_ctx (Value.ty_of (ca env))))
  | Ast.Cond (c, t, f) ->
    let cc = compile_expr k c in
    let ct = compile_expr k t in
    let cf = compile_expr k f in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
      if Value.is_true (cc env) then ct env else cf env
  | Ast.Comma (a, b) ->
    let ca = compile_expr k a in
    let cb = compile_expr k b in
    fun env ->
      ignore (ca env);
      cb env

and compile_lvalue k (e : Ast.expr) : env -> Addr.t * Cty.t =
  match e with
  | Ast.Ident x -> (
    match List.assoc_opt x k.k_scope with
    | Some (slot, ty) -> fun env -> (env.e_frame.(slot), ty)
    | None ->
      let idx = cell_index k x in
      fun env -> (
        match resolve_cell env.e_inst idx x with
        | Cell_var (ty, addr) -> (addr, ty)
        | Cell_fn _ | Cell_unresolved -> Interp.runtime_error "unbound variable '%s'" x))
  | Ast.Index (a, i) ->
    let ca = compile_expr k a in
    let ci = compile_expr k i in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      let base = ca env in
      let idx = Value.to_int (ci env) in
      ctx.Interp.on_step Interp.St_arith;
      (match base with
      | Value.VPtr (addr, elt) -> (Addr.add addr (idx * Interp.sizeof ctx elt), elt)
      | v -> Interp.runtime_error "indexing non-pointer %s" (Value.show v))
  | Ast.Deref a ->
    let ca = compile_expr k a in
    fun env -> (
      match ca env with
      | Value.VPtr (addr, elt) -> (addr, elt)
      | v -> Interp.runtime_error "dereferencing non-pointer %s" (Value.show v))
  | Ast.Member (a, fld) ->
    let cl = compile_lvalue k a in
    let memo = ref None in
    fun env ->
      let addr, ty = cl env in
      (match ty with
      | Cty.Struct s ->
        let f =
          match !memo with
          | Some (s', f) when String.equal s' s -> f
          | _ ->
            let f = Cty.find_field env.e_inst.i_ctx.Interp.structs s fld in
            memo := Some (s, f);
            f
        in
        (Addr.add addr f.Cty.fld_off, f.Cty.fld_ty)
      | ty -> Interp.runtime_error "member access on %s" (Cty.show ty))
  | Ast.Arrow (a, fld) ->
    let ca = compile_expr k a in
    let memo = ref None in
    fun env -> (
      match ca env with
      | Value.VPtr (addr, Cty.Struct s) ->
        let f =
          match !memo with
          | Some (s', f) when String.equal s' s -> f
          | _ ->
            let f = Cty.find_field env.e_inst.i_ctx.Interp.structs s fld in
            memo := Some (s, f);
            f
        in
        (Addr.add addr f.Cty.fld_off, f.Cty.fld_ty)
      | v -> Interp.runtime_error "arrow access on %s" (Value.show v))
  | e ->
    let shown = Ast.show_expr e in
    fun _ -> Interp.runtime_error "expression is not an lvalue: %s" shown

and compile_unop k (op : Ast.unop) (a : Ast.expr) : cexpr =
  match op with
  | Ast.Neg ->
    let ca = compile_expr k a in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
      (match ca env with
      | Value.VInt (i, ty) -> Value.int ~ty (Int64.neg i)
      | Value.VFlt (f, ty) -> Value.flt ~ty (-.f)
      | v -> Interp.runtime_error "negation of %s" (Value.show v))
  | Ast.Not ->
    let ca = compile_expr k a in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
      Value.bool (not (Value.is_true (ca env)))
  | Ast.BitNot ->
    let ca = compile_expr k a in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
      (match ca env with
      | Value.VInt (i, ty) -> Value.int ~ty (Int64.lognot i)
      | v -> Interp.runtime_error "bitwise not of %s" (Value.show v))
  | (Ast.PreInc | Ast.PostInc | Ast.PreDec | Ast.PostDec)
    when match a with
         | Ast.Ident x -> (
           match List.assoc_opt x k.k_scope with
           | Some (_, Cty.Int) -> true
           | _ -> false)
         | _ -> false ->
    (* [i++] on a bound int local — the loop-counter idiom.  The slot
       holds a normalised 32-bit payload, so the native-int update plus
       [Value.of_int]'s truncation matches the generic path exactly. *)
    let slot =
      match a with
      | Ast.Ident x -> fst (Option.get (List.assoc_opt x k.k_scope))
      | _ -> assert false
    in
    let post = op = Ast.PostInc || op = Ast.PostDec in
    let delta = if op = Ast.PreInc || op = Ast.PostInc then 1 else -1 in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      ctx.Interp.on_step Interp.St_arith;
      let addr = env.e_frame.(slot) in
      let old = Interp.load_sized ctx addr Cty.Int ~bytes:4 in
      let updated =
        match old with
        | Value.VInt (i, _) -> Value.of_int (Int64.to_int i + delta)
        | v -> Interp.runtime_error "increment of %s" (Value.show v)
      in
      Interp.store_sized ctx addr Cty.Int ~bytes:4 updated;
      if post then old else updated
  | Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec ->
    let cl = compile_lvalue k a in
    let post = op = Ast.PostInc || op = Ast.PostDec in
    let delta = if op = Ast.PreInc || op = Ast.PostInc then 1 else -1 in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      ctx.Interp.on_step Interp.St_arith;
      let addr, ty = cl env in
      let old = Interp.load ctx addr ty in
      let updated =
        match old with
        | Value.VInt (i, ity) -> Value.int ~ty:ity (Int64.add i (Int64.of_int delta))
        | Value.VFlt (f, fty) -> Value.flt ~ty:fty (f +. float_of_int delta)
        | Value.VPtr (p, elt) -> Value.ptr ~ty:elt (Addr.add p (delta * Interp.sizeof ctx elt))
        | Value.VVoid -> Interp.runtime_error "increment of void"
      in
      Interp.store ctx addr ty updated;
      if post then old else updated

and compile_binop k (op : Ast.binop) (a : Ast.expr) (b : Ast.expr) : cexpr =
  match op with
  | Ast.LogAnd ->
    let ca = compile_expr k a in
    let cb = compile_expr k b in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
      if Value.is_true (ca env) then Value.bool (Value.is_true (cb env)) else Value.bool false
  | Ast.LogOr ->
    let ca = compile_expr k a in
    let cb = compile_expr k b in
    fun env ->
      env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
      if Value.is_true (ca env) then Value.bool true else Value.bool (Value.is_true (cb env))
  | _ ->
    let ca = compile_expr k a in
    let cb = compile_expr k b in
    let sk =
      match op with
      | Ast.Mul -> Interp.St_mul
      | Ast.Div | Ast.Mod -> Interp.St_div
      | _ -> Interp.St_arith
    in
    fun env ->
      (* interp evaluates [apply_binop ctx op (eval a) (eval b)]:
         OCaml's right-to-left argument order runs b's effects before
         a's, and access ordering is observable (coalescing sampler
         keys on per-thread access sequence) — preserve it. *)
      let vb = cb env in
      let va = ca env in
      let ctx = env.e_inst.i_ctx in
      ctx.Interp.on_step sk;
      (* Shape-specialized paths for the two operand shapes that
         dominate kernels.  [Cty.common_arith Float Float = Float] and
         [common_arith Int Int = Int], so these reproduce the generic
         dispatch bit-for-bit; every other shape (pointers, mixed or
         wider types, div/mod with their zero checks) falls through. *)
      (match (va, vb) with
      | Value.VFlt (x, Cty.Float), Value.VFlt (y, Cty.Float) -> (
        match op with
        | Ast.Add -> Value.flt ~ty:Cty.Float (x +. y)
        | Ast.Sub -> Value.flt ~ty:Cty.Float (x -. y)
        | Ast.Mul -> Value.flt ~ty:Cty.Float (x *. y)
        | Ast.Div -> Value.flt ~ty:Cty.Float (x /. y)
        | Ast.Lt -> Value.bool (x < y)
        | Ast.Gt -> Value.bool (x > y)
        | Ast.Le -> Value.bool (x <= y)
        | Ast.Ge -> Value.bool (x >= y)
        | Ast.Eq -> Value.bool (x = y)
        | Ast.Ne -> Value.bool (x <> y)
        | _ -> Interp.apply_binop_unstepped ctx op va vb)
      | Value.VInt (x, Cty.Int), Value.VInt (y, Cty.Int) -> (
        (* [Int]-typed payloads are normalised to 32 bits, so native
           arithmetic plus [Value.of_int]'s truncation is exact: the
           low 32 bits survive the (at most one) 63-bit wrap. *)
        let xi = Int64.to_int x and yi = Int64.to_int y in
        match op with
        | Ast.Add -> Value.of_int (xi + yi)
        | Ast.Sub -> Value.of_int (xi - yi)
        | Ast.Mul -> Value.of_int (xi * yi)
        | Ast.Lt -> Value.bool (xi < yi)
        | Ast.Gt -> Value.bool (xi > yi)
        | Ast.Le -> Value.bool (xi <= yi)
        | Ast.Ge -> Value.bool (xi >= yi)
        | Ast.Eq -> Value.bool (xi = yi)
        | Ast.Ne -> Value.bool (xi <> yi)
        | _ -> Interp.apply_binop_unstepped ctx op va vb)
      | _ -> Interp.apply_binop_unstepped ctx op va vb)

and compile_call k (f : string) (args : Ast.expr list) : cexpr =
  let cargs = Array.of_list (List.map (compile_expr k) args) in
  let nargs = Array.length cargs in
  let site = call_site k in
  let compiled_tbl = k.k_compiled in
  fun env ->
    let inst = env.e_inst in
    let ctx = inst.i_ctx in
    (* argument list built left-to-right, like interp's List.map *)
    let rec build i = if i >= nargs then [] else (
      let v = cargs.(i) env in
      v :: build (i + 1)) in
    let vals = build 0 in
    ctx.Interp.on_step Interp.St_call;
    let target =
      match inst.i_calls.(site) with
      | Tgt_unresolved ->
        (* same resolution order as interp's [call]: builtins shadow
           defined functions *)
        let t =
          match Hashtbl.find_opt ctx.Interp.builtins f with
          | Some fn -> Tgt_builtin fn
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
    | Tgt_builtin fn -> fn ctx vals
    | Tgt_compiled cf -> invoke inst cf vals
    | Tgt_tree fd -> Interp.tree_call_fundef ctx fd vals
    | Tgt_unresolved -> assert false

(* ---------------------------------------------------------------- *)
(* Statement compilation                                              *)
(* ---------------------------------------------------------------- *)

(* Does this statement (or an unbraced substatement of it) declare
   directly into the enclosing scope?  If so the enclosing construct
   must bracket execution with a stack mark/release, exactly where the
   interpreter's frame push/pop would release the pushed bytes.
   [Sblock] and [Sfor] manage their own frames. *)
and open_decl (s : Ast.stmt) : bool =
  match s with
  | Ast.Sdecl _ -> true
  | Ast.Sif (_, t, e) -> open_decl t || (match e with Some e -> open_decl e | None -> false)
  | Ast.Swhile (_, b) | Ast.Sdo (b, _) -> open_decl b
  | Ast.Spragma (_, Some b) -> open_decl b
  | _ -> false

and with_mark (body : cstmt) : cstmt =
 fun env ->
  let local = env.e_inst.i_ctx.Interp.local in
  let m = Mem.mark local in
  (match body env with
  | () -> ()
  | exception e ->
    Mem.release local m;
    raise e);
  Mem.release local m

and compile_stmt k (s : Ast.stmt) : cstmt =
  match s with
  | Ast.Snop -> fun _ -> ()
  | Ast.Sexpr e ->
    let ce = compile_expr k e in
    fun env -> ignore (ce env)
  | Ast.Sdecl ds -> seq (List.map (compile_decl k) ds)
  | Ast.Sblock ss ->
    let saved_scope = k.k_scope in
    let saved_next = k.k_next_slot in
    let body = seq (List.map (compile_stmt k) ss) in
    k.k_scope <- saved_scope;
    k.k_next_slot <- saved_next;
    if List.exists open_decl ss then with_mark body else body
  | Ast.Sif (c, t, e) -> (
    let cc = compile_expr k c in
    let ct = compile_stmt k t in
    match e with
    | Some e ->
      let ce = compile_stmt k e in
      fun env ->
        env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
        if Value.is_true (cc env) then ct env else ce env
    | None ->
      fun env ->
        env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
        if Value.is_true (cc env) then ct env)
  | Ast.Swhile (c, body) ->
    let cc = compile_expr k c in
    let cb = compile_stmt k body in
    fun env -> (
      let ctx = env.e_inst.i_ctx in
      try
        while
          ctx.Interp.on_step Interp.St_branch;
          Value.is_true (cc env)
        do
          try cb env with Jit_continue -> ()
        done
      with Jit_break -> ())
  | Ast.Sdo (body, c) ->
    let cb = compile_stmt k body in
    let cc = compile_expr k c in
    fun env -> (
      let ctx = env.e_inst.i_ctx in
      try
        let continue_loop = ref true in
        while !continue_loop do
          (try cb env with Jit_continue -> ());
          ctx.Interp.on_step Interp.St_branch;
          continue_loop := Value.is_true (cc env)
        done
      with Jit_break -> ())
  | Ast.Sfor (init, cond, update, body) ->
    let saved_scope = k.k_scope in
    let saved_next = k.k_next_slot in
    let cinit = Option.map (compile_stmt k) init in
    let ccond = Option.map (compile_expr k) cond in
    let cupd = Option.map (compile_expr k) update in
    let cbody = compile_stmt k body in
    k.k_scope <- saved_scope;
    k.k_next_slot <- saved_next;
    let check =
      match ccond with
      | None ->
        fun env ->
          env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
          true
      | Some cc ->
        fun env ->
          env.e_inst.i_ctx.Interp.on_step Interp.St_branch;
          Value.is_true (cc env)
    in
    let run env =
      (match cinit with Some ci -> ci env | None -> ());
      try
        while check env do
          (try cbody env with Jit_continue -> ());
          match cupd with Some cu -> ignore (cu env) | None -> ()
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
    let ce = compile_expr k e in
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
  let slot = declare_slot k name ty in
  let init = Option.map (compile_init k ty) d.Ast.d_init in
  if d.Ast.d_shared then
    (* all threads of a block resolve to one instance via the context's
       shared-variable registry; no local-stack push *)
    fun env ->
      let ctx = env.e_inst.i_ctx in
      match ctx.Interp.shared_decl with
      | None -> Interp.runtime_error "__shared__ declaration outside device code"
      | Some f ->
        let addr = f name ty in
        env.e_frame.(slot) <- addr;
        (match init with Some ci -> ci env addr | None -> ())
  else
    let size = match Cty.sizeof k.k_structs ty with n -> Some n | exception _ -> None in
    match init with
    | None ->
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let sz = match size with Some s -> s | None -> Interp.sizeof ctx ty in
        env.e_frame.(slot) <- Mem.push ctx.Interp.local sz
    | Some ci ->
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let sz = match size with Some s -> s | None -> Interp.sizeof ctx ty in
        let addr = Mem.push ctx.Interp.local sz in
        env.e_frame.(slot) <- addr;
        ci env addr

and compile_init k (ty : Cty.t) (init : Ast.init) : env -> Addr.t -> unit =
  match (init, ty) with
  | Ast.Iexpr e, _ ->
    let ce = compile_expr k e in
    fun env addr -> Interp.store env.e_inst.i_ctx addr ty (ce env)
  | Ast.Ilist items, Cty.Array (elt, _) -> (
    match Cty.sizeof k.k_structs elt with
    | esz ->
      let subs = List.mapi (fun i item -> (i * esz, compile_init k elt item)) items in
      fun env addr -> List.iter (fun (off, ci) -> ci env (Addr.add addr off)) subs
    | exception _ -> fun env addr -> Interp.exec_init env.e_inst.i_ctx addr ty init)
  | Ast.Ilist items, Cty.Struct s -> (
    match Cty.lookup_layout k.k_structs s with
    | lay ->
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
    | exception _ ->
      (* layout not defined yet at compile time; defer to the interp *)
      fun env addr -> Interp.exec_init env.e_inst.i_ctx addr ty init)
  | Ast.Ilist _, ty ->
    let shown = Cty.show ty in
    fun _ _ -> Interp.runtime_error "brace initializer for scalar %s" shown

(* ---------------------------------------------------------------- *)
(* Module compilation, per-launch linking, per-thread attachment      *)
(* ---------------------------------------------------------------- *)

let compile_fun k (fd : Ast.fundef) : cfun =
  let params =
    Array.of_list
      (List.map
         (fun (_, ty) ->
           let ty = Cty.decay ty in
           (ty, Cty.sizeof k.k_structs ty))
         fd.Ast.f_params)
  in
  k.k_scope <-
    List.mapi (fun i (name, ty) -> (name, (i, Cty.decay ty))) fd.Ast.f_params |> List.rev;
  k.k_next_slot <- Array.length params;
  k.k_max_slots <- Array.length params;
  let cf =
    {
      cf_def = fd;
      cf_params = params;
      cf_ret = fd.Ast.f_ret;
      cf_nslots = 0;
      cf_body = (fun _ -> ());
    }
  in
  let body = compile_stmt k fd.Ast.f_body in
  cf.cf_nslots <- k.k_max_slots;
  cf.cf_body <- body;
  cf

let compile ~(structs : Cty.layout_env) ~(funcs : (string, Ast.fundef) Hashtbl.t) : compiled =
  let k =
    {
      k_structs = structs;
      k_compiled = Hashtbl.create (max 8 (Hashtbl.length funcs));
      k_cells = Hashtbl.create 16;
      k_ncells = 0;
      k_ncalls = 0;
      k_scope = [];
      k_next_slot = 0;
      k_max_slots = 0;
    }
  in
  (* deterministic compile order (hashtable fold order is not) *)
  let names = Hashtbl.fold (fun name _ acc -> name :: acc) funcs [] |> List.sort compare in
  List.iter
    (fun name ->
      let fd = Hashtbl.find funcs name in
      match compile_fun k fd with
      | cf -> Hashtbl.replace k.k_compiled name cf
      | exception _ ->
        (* compilation is best-effort: a function we cannot compile is
           simply left out and executes via the tree-walker *)
        ())
    names;
  { c_funcs = k.k_compiled; c_ncells = k.k_ncells; c_ncalls = k.k_ncalls }

let link (c : compiled) ~(builtins : Interp.builtins) ~(funcs : (string, Ast.fundef) Hashtbl.t) :
    linked =
  { l_compiled = c; l_builtins = builtins; l_funcs = funcs; l_calls = Array.make (max 1 c.c_ncalls) Tgt_unresolved }

let attach (l : linked) (ctx : Interp.t) : unit =
  (* call sites resolve against the shared tables, once for all threads *)
  if ctx.Interp.builtins != l.l_builtins || ctx.Interp.funcs != l.l_funcs then
    invalid_arg "Jit.attach: context does not use the linked builtin and function tables";
  let c = l.l_compiled in
  let inst =
    { i_ctx = ctx; i_cells = Array.make (max 1 c.c_ncells) Cell_unresolved; i_calls = l.l_calls }
  in
  ctx.Interp.dispatch <-
    Some
      (fun ctx' fd args ->
        match Hashtbl.find_opt c.c_funcs fd.Ast.f_name with
        | Some cf when cf.cf_def == fd -> invoke inst cf args
        | _ -> Interp.tree_call_fundef ctx' fd args)
