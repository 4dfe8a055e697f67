(* Closure-compiling JIT for mini-C programs: kernels and translated
   host programs alike.

   The tree-walking interpreter (interp.ml) re-resolves every name and
   re-dispatches on every AST constructor for every thread at every
   step.  This module compiles a program's function bodies ONCE — a
   kernel module at nvcc/module-load time, a host program when its
   context is built (Hostexec.make_context) — into chains of OCaml
   closures:

   - constructor dispatch happens once per expression, at compile time;
   - local variables are resolved to slots of a flat per-call frame, so
     reads and writes are array indexing instead of hashtable probes
     through a frame list;
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
   behave identically.

   Scalar locals are promoted, as a GPU compiler keeps private scalars
   in registers: a local or parameter of scalar type that is not
   [__shared__] and whose name is never the operand of [&] in its
   function holds its value in the per-call [e_vals] array instead of
   in simulated memory.  Nothing but the function's own code can reach
   such a variable, so memory never needs its bytes.  Everything the
   model observes is kept: the declaration still pushes its bytes on
   the thread's stack (so every other local keeps its address), starts
   at the zero [Mem.push] would give it, and every read and write still
   fires [on_access] at that stack address with the variable's size,
   so [local_accesses] and every other counter are unchanged.  Holding
   [Value.cast ty v] instead of the stored bytes is exact because a
   store followed by a load of any scalar type yields that same value
   (test_machine checks the identity).  Locals whose address is taken,
   arrays, structs and [__shared__] variables stay in memory and the
   frame holds their addresses.

   Compilation is total: constructs that the interpreter would reject
   at runtime (unlowered OpenMP pragmas, brace-initialized scalars...)
   compile to closures that raise the interpreter's exact error at
   execution time.  A function whose compilation fails anyway is left
   out of the compiled table and runs on the tree-walker; [left_out]
   names it, so a gap shows up as a failed test rather than as lost
   speed. *)

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
  cf_params : (Cty.t * int * bool) array; (* decayed type, size, promoted; slot = index *)
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
   instantiation plus the current call's slot frame.  [e_frame] holds
   every local's stack address; [e_vals] holds the values of the
   promoted ones (the other entries are unused). *)
and env = { e_inst : inst; e_frame : Addr.t array; e_vals : Value.t array }

and cexpr = env -> Value.t

and cstmt = env -> unit

type compiled = {
  c_funcs : (string, cfun) Hashtbl.t;
  c_ncells : int;
  c_ncalls : int;
  c_left_out : (string * string) list; (* function, why it failed to compile *)
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

let left_out c = c.c_left_out

(* ---------------------------------------------------------------- *)
(* Compile-time state                                                 *)
(* ---------------------------------------------------------------- *)

(* A local bound in the function being compiled. *)
type local = {
  lc_slot : int;
  lc_ty : Cty.t;
  lc_reg : bool; (* promoted: the value lives in [e_vals.(lc_slot)] *)
}

type comp = {
  k_structs : Cty.layout_env;
  k_compiled : (string, cfun) Hashtbl.t;
  k_cells : (string, int) Hashtbl.t; (* free name -> cell index *)
  mutable k_ncells : int;
  mutable k_ncalls : int;
  (* per-function scope: innermost binding first *)
  mutable k_scope : (string * local) list;
  mutable k_escaped : string list; (* names under [&] in the current function *)
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

(* Byte size of [ty] when it is a plain scalar whose layout is known at
   compile time, so slot accesses can skip the per-access sizeof. *)
let scalar_bytes k (ty : Cty.t) : int option =
  match ty with
  | Cty.Struct _ | Cty.Void | Cty.Array _ | Cty.Func _ -> None
  | _ -> ( match Cty.sizeof k.k_structs ty with n -> Some n | exception _ -> None)

let promotable k ~shared name ty =
  (not shared) && scalar_bytes k ty <> None && not (List.mem name k.k_escaped)

let declare_slot k ?(shared = false) name ty : local =
  let slot = k.k_next_slot in
  k.k_next_slot <- slot + 1;
  if k.k_next_slot > k.k_max_slots then k.k_max_slots <- k.k_next_slot;
  let lc = { lc_slot = slot; lc_ty = ty; lc_reg = promotable k ~shared name ty } in
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
  let vals = Array.make cf.cf_nslots Value.VVoid in
  let env = { e_inst = inst; e_frame = frame; e_vals = vals } in
  match
    List.iteri
      (fun i v ->
        let ty, size, reg = cf.cf_params.(i) in
        let addr = Mem.push ctx.Interp.local size in
        frame.(i) <- addr;
        if reg then begin
          ctx.Interp.on_access Interp.Store addr size;
          vals.(i) <- Value.cast ty v
        end
        else Interp.store ctx addr ty v)
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

(* Read and write of a bound scalar local of [bytes] bytes.  A promoted
   one touches only [e_vals], firing the access hook at its stack
   address as [Interp.load_sized]/[store_sized] would; [v] must already
   carry the local's type. *)
let[@inline] get_local env (lc : local) ~bytes : Value.t =
  let slot = lc.lc_slot in
  if lc.lc_reg then begin
    env.e_inst.i_ctx.Interp.on_access Interp.Load env.e_frame.(slot) bytes;
    env.e_vals.(slot)
  end
  else Interp.load_sized env.e_inst.i_ctx env.e_frame.(slot) lc.lc_ty ~bytes

let[@inline] set_local env (lc : local) ~bytes (v : Value.t) : unit =
  let slot = lc.lc_slot in
  if lc.lc_reg then begin
    env.e_inst.i_ctx.Interp.on_access Interp.Store env.e_frame.(slot) bytes;
    env.e_vals.(slot) <- v
  end
  else Interp.store_sized env.e_inst.i_ctx env.e_frame.(slot) lc.lc_ty ~bytes v

(* The address held by a bound pointer local, without a [VPtr]: a
   promoted slot always holds a [VPtr] (every write casts to the
   pointer type); a memory-resident one is read as a bare address. *)
let[@inline] get_ptr_local env (lc : local) : Addr.t =
  let slot = lc.lc_slot in
  if lc.lc_reg then begin
    env.e_inst.i_ctx.Interp.on_access Interp.Load env.e_frame.(slot) 8;
    Value.as_addr env.e_vals.(slot)
  end
  else Interp.load_addr env.e_inst.i_ctx env.e_frame.(slot)

let step_class (op : Ast.binop) : Interp.step =
  match op with
  | Ast.Mul -> Interp.St_mul
  | Ast.Div | Ast.Mod -> Interp.St_div
  | _ -> Interp.St_arith

(* [Interp.apply_binop_unstepped] with shape-specialized paths for the
   two operand shapes that dominate kernels.  [Cty.common_arith Float
   Float = Float] and [common_arith Int Int = Int], so these reproduce
   the generic dispatch bit-for-bit; every other shape (pointers, mixed
   or wider types, div/mod with their zero checks) falls through. *)
let[@inline] arith ctx (op : Ast.binop) (va : Value.t) (vb : Value.t) : Value.t =
  match (va, vb) with
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
       arithmetic plus [Value.of_int]'s truncation is exact: the low 32
       bits survive the (at most one) 63-bit wrap. *)
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
  | _ -> Interp.apply_binop_unstepped ctx op va vb

(* The value [++]/[--] stores, as in interp's [eval_unop]. *)
let bump ctx (delta : int) (old : Value.t) : Value.t =
  match old with
  | Value.VInt (i, ity) -> Value.int ~ty:ity (Int64.add i (Int64.of_int delta))
  | Value.VFlt (f, fty) -> Value.flt ~ty:fty (f +. float_of_int delta)
  | Value.VPtr (p, elt) -> Value.ptr ~ty:elt (Addr.add p (delta * Interp.sizeof ctx elt))
  | Value.VVoid -> Interp.runtime_error "increment of void"

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
    | Some lc -> (
      (* bound local: the slot type is static, so array decay / struct
         handling / load specialize at compile time *)
      let slot = lc.lc_slot in
      match lc.lc_ty with
      | Cty.Array (elt, _) -> fun env -> Value.ptr ~ty:elt env.e_frame.(slot)
      | Cty.Func _ -> fun _ -> Interp.runtime_error "function used as value"
      | ty -> (
        match scalar_bytes k ty with
        | Some bytes when lc.lc_reg ->
          fun env ->
            env.e_inst.i_ctx.Interp.on_access Interp.Load env.e_frame.(slot) bytes;
            env.e_vals.(slot)
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
  | Ast.Index (Ast.Ident x, i) when scalar_ptr_local k x <> None ->
    (* [p[i]] with [p] a bound pointer-to-scalar local: the pointee type
       and both access sizes are static, and no (addr, ty) tuple is
       built.  Stores into the slot are cast to [Ptr elt], so the
       runtime pointee always equals the static one. *)
    let lc, elt, eltsz = Option.get (scalar_ptr_local k x) in
    let ci = compile_expr k i in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      let base = get_ptr_local env lc in
      let idx = Value.to_int (ci env) in
      ctx.Interp.on_step Interp.St_arith;
      Interp.load_sized ctx (Addr.add base (idx * eltsz)) elt ~bytes:eltsz
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
  | Ast.Assign (op, Ast.Index (Ast.Ident x, i), rhs) when scalar_ptr_local k x <> None -> (
    (* [p[i] = e] and [p[i] op= e], fused the same way as the [p[i]]
       load above; the compound form keeps interp's order: element
       address, current value, right-hand side, then the operator's
       step *)
    let lc, elt, eltsz = Option.get (scalar_ptr_local k x) in
    let ci = compile_expr k i in
    let cr = compile_expr k rhs in
    let elem env =
      let base = get_ptr_local env lc in
      let idx = Value.to_int (ci env) in
      env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
      Addr.add base (idx * eltsz)
    in
    match op with
    | None ->
      fun env ->
        let a = elem env in
        let v = Value.cast elt (cr env) in
        Interp.store_sized env.e_inst.i_ctx a elt ~bytes:eltsz v;
        v
    | Some bop ->
      let sk = step_class bop in
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let a = elem env in
        let cur = Interp.load_sized ctx a elt ~bytes:eltsz in
        let rhs = cr env in
        ctx.Interp.on_step sk;
        let v = Value.cast elt (arith ctx bop cur rhs) in
        Interp.store_sized ctx a elt ~bytes:eltsz v;
        v)
  | Ast.Assign (op, Ast.Ident x, rhs) when scalar_local k x <> None -> (
    (* store (or read-modify-write) of a bound scalar local: type and
       size are static, and the slot needs no (addr, ty) tuple *)
    let lc, bytes = Option.get (scalar_local k x) in
    let ty = lc.lc_ty in
    let cr = compile_expr k rhs in
    match op with
    | None ->
      fun env ->
        let v = Value.cast ty (cr env) in
        set_local env lc ~bytes v;
        v
    | Some bop ->
      let sk = step_class bop in
      fun env ->
        let ctx = env.e_inst.i_ctx in
        let cur = get_local env lc ~bytes in
        let rhs = cr env in
        ctx.Interp.on_step sk;
        let v = Value.cast ty (arith ctx bop cur rhs) in
        set_local env lc ~bytes v;
        v)
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
  | Ast.SizeofE (Ast.Ident x) when List.mem_assoc x k.k_scope ->
    (* a bound local's type is static *)
    compile_expr k (Ast.SizeofT (List.assoc x k.k_scope).lc_ty)
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

(* A bound scalar local and its size. *)
and scalar_local k x : (local * int) option =
  match List.assoc_opt x k.k_scope with
  | Some lc -> Option.map (fun bytes -> (lc, bytes)) (scalar_bytes k lc.lc_ty)
  | None -> None

(* A bound pointer-to-scalar local, its pointee type and size. *)
and scalar_ptr_local k x : (local * Cty.t * int) option =
  match List.assoc_opt x k.k_scope with
  | Some ({ lc_ty = Cty.Ptr elt; _ } as lc) ->
    Option.map (fun eltsz -> (lc, elt, eltsz)) (scalar_bytes k elt)
  | _ -> None

and compile_lvalue k (e : Ast.expr) : env -> Addr.t * Cty.t =
  match e with
  | Ast.Ident x -> (
    match List.assoc_opt x k.k_scope with
    | Some lc ->
      (* The stack address.  A promoted local only gets here as the
         base of [x.f], which fails on its scalar type exactly as in the
         interpreter: its reads, writes, [++]/[--] and [sizeof] are
         compiled without an lvalue, and [&x] keeps [x] in memory. *)
      let slot = lc.lc_slot and ty = lc.lc_ty in
      fun env -> (env.e_frame.(slot), ty)
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
  | Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec -> (
    let post = op = Ast.PostInc || op = Ast.PostDec in
    let delta = if op = Ast.PreInc || op = Ast.PostInc then 1 else -1 in
    match a with
    | Ast.Ident x when scalar_local k x <> None -> (
      let lc, bytes = Option.get (scalar_local k x) in
      match lc.lc_ty with
      | Cty.Int ->
        (* [i++] on an int local — the loop-counter idiom.  The value
           is a normalised 32-bit payload, so the native-int update plus
           [Value.of_int]'s truncation matches [bump] exactly. *)
        fun env ->
          env.e_inst.i_ctx.Interp.on_step Interp.St_arith;
          let old = get_local env lc ~bytes in
          let updated =
            match old with
            | Value.VInt (i, _) -> Value.of_int (Int64.to_int i + delta)
            | v -> Interp.runtime_error "increment of %s" (Value.show v)
          in
          set_local env lc ~bytes updated;
          if post then old else updated
      | ty ->
        fun env ->
          let ctx = env.e_inst.i_ctx in
          ctx.Interp.on_step Interp.St_arith;
          let old = get_local env lc ~bytes in
          let updated = bump ctx delta old in
          set_local env lc ~bytes (Value.cast ty updated);
          if post then old else updated)
    | _ ->
      let cl = compile_lvalue k a in
      fun env ->
        let ctx = env.e_inst.i_ctx in
        ctx.Interp.on_step Interp.St_arith;
        let addr, ty = cl env in
        let old = Interp.load ctx addr ty in
        let updated = bump ctx delta old in
        Interp.store ctx addr ty updated;
        if post then old else updated)

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
    let sk = step_class op in
    fun env ->
      (* interp evaluates [apply_binop ctx op (eval a) (eval b)]:
         OCaml's right-to-left argument order runs b's effects before
         a's, and access ordering is observable (coalescing sampler
         keys on per-thread access sequence) — preserve it. *)
      let vb = cb env in
      let va = ca env in
      let ctx = env.e_inst.i_ctx in
      ctx.Interp.on_step sk;
      arith ctx op va vb

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
  let lc = declare_slot k ~shared:d.Ast.d_shared name ty in
  let slot = lc.lc_slot in
  if lc.lc_reg then compile_promoted_decl k lc d.Ast.d_init
  else if d.Ast.d_shared then
    (* all threads of a block resolve to one instance via the context's
       shared-variable registry; no local-stack push *)
    let init = Option.map (compile_init k ty) d.Ast.d_init in
    fun env ->
      let ctx = env.e_inst.i_ctx in
      match ctx.Interp.shared_decl with
      | None -> Interp.runtime_error "__shared__ declaration outside device code"
      | Some f ->
        let addr = f name ty in
        env.e_frame.(slot) <- addr;
        (match init with Some ci -> ci env addr | None -> ())
  else
    let init = Option.map (compile_init k ty) d.Ast.d_init in
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

(* A promoted declaration pushes its stack bytes like any other (the
   address is what its accesses report) and starts at the zero that
   [Mem.push] leaves in them; an initializer is stored as interp's
   [exec_init] stores it: value first, then the access, then the cast. *)
and compile_promoted_decl k (lc : local) (init : Ast.init option) : cstmt =
  let slot = lc.lc_slot and ty = lc.lc_ty in
  let bytes = Option.get (scalar_bytes k ty) in
  let zero = Value.cast ty (Value.of_int 0) in
  let declare env =
    let addr = Mem.push env.e_inst.i_ctx.Interp.local bytes in
    env.e_frame.(slot) <- addr;
    env.e_vals.(slot) <- zero;
    addr
  in
  match init with
  | None -> fun env -> ignore (declare env)
  | Some (Ast.Iexpr e) ->
    let ce = compile_expr k e in
    fun env ->
      let addr = declare env in
      let v = ce env in
      env.e_inst.i_ctx.Interp.on_access Interp.Store addr bytes;
      env.e_vals.(slot) <- Value.cast ty v
  | Some (Ast.Ilist _ as init) ->
    (* rejected at run time, before any access *)
    let ci = compile_init k ty init in
    fun env -> ci env (declare env)

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
  k.k_escaped <- address_taken fd;
  k.k_scope <- [];
  k.k_next_slot <- 0;
  k.k_max_slots <- 0;
  let params =
    Array.of_list
      (List.map
         (fun (name, ty) ->
           let ty = Cty.decay ty in
           let size = Cty.sizeof k.k_structs ty in
           let lc = declare_slot k name ty in
           (ty, size, lc.lc_reg))
         fd.Ast.f_params)
  in
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
      k_escaped = [];
      k_next_slot = 0;
      k_max_slots = 0;
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
