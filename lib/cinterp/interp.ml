(* Tree-walking interpreter for the mini-C AST.

   The same engine is used in two roles:
   - host role: executes the translated host program, with the ORT host
     runtime registered as builtins;
   - device role: one context per GPU thread, driven by the SIMT
     scheduler.  The builtin table (the cudadev device library) is built
     once per device and shared by every thread; each context carries
     only its [lane] and per-thread state.

   The performance model observes the run without touching its
   semantics: a step counts its instruction class in place in [tally]
   (a device lane's own; a host context's is its clock's), and a scalar
   load or store finds its memory through [access], which accounts it. *)

open Machine
open Minic

exception Runtime_error of string

let runtime_error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* Instruction classes for the cost model. *)
type step =
  | St_arith (* add/sub/logic/compare/convert *)
  | St_mul
  | St_div
  | St_branch
  | St_call
  | St_special (* sqrt and friends *)

(* Kind of a memory access given to [access] with the address and the
   byte count, so accounting an access allocates nothing. *)
type access = Load | Store

type frame = { vars : (string, Cty.t * Addr.t) Hashtbl.t; saved_mark : int }

type t = {
  (* The program a context runs and what it runs it with: fixed for a
     host context; re-pointed at every launch for a device lane's
     context, which lives as long as its lane. *)
  mutable structs : Cty.layout_env;
  mutable funcs : (string, Ast.fundef) Hashtbl.t;
  (* May be shared between contexts (all threads of a device): builtins
     must find their per-thread state through the context, e.g. [lane]. *)
  builtins : (string, impl) Hashtbl.t;
  lane : int; (* device role: linear thread id within the block *)
  resolve : Addr.t -> Mem.t; (* the memory an address lives in *)
  (* [resolve] for a scalar load or store of the given bytes, accounted;
     given the context, so one closure can serve many contexts *)
  access : t -> access -> Addr.t -> int -> Mem.t;
  tally : Simclock.tally; (* this context's steps, by class *)
  local : Mem.t; (* this execution context's stack *)
  mutable globals : (string, Cty.t * Addr.t) Hashtbl.t;
  (* string-literal intern cache and function-pointer ids: allocated on
     first use, since most device threads need neither *)
  mutable strings : (string, Addr.t) Hashtbl.t option;
  strings_arena : Mem.t option ref; (* where [strings] lives, read by [resolve] *)
  (* Shared-variable registry: declarations marked __shared__ resolve
     here so that all threads of a block see a single instance. *)
  shared_decl : (string -> Cty.t -> Addr.t) option;
  mutable output : Buffer.t;
  mutable fn_ptrs : (string, int) Hashtbl.t option;
  mutable frames : frame list;
  mutable depth : int;
  max_depth : int;
  (* Execution-engine hook: when set (by the closure JIT), function
     calls are routed through it instead of the tree-walker, so that
     builtin-originated calls (e.g. the device runtime invoking a
     worker function by pointer) also reach the compiled form. *)
  mutable dispatch : (t -> Ast.fundef -> Value.t list -> Value.t) option;
}

(* A builtin's implementation, by its signature's arity: it receives
   exactly the arguments its signature declares, each fixed one
   converted to its parameter type, and a variadic tail as it was
   passed. *)
and impl =
  | F0 of (t -> Value.t)
  | F1 of (t -> Value.t -> Value.t)
  | F2 of (t -> Value.t -> Value.t -> Value.t)
  | F3 of (t -> Value.t -> Value.t -> Value.t -> Value.t)
  | F4 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t)
  | F6 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t)
  | V1 of (t -> Value.t -> Value.t list -> Value.t)
  | V5 of (t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t -> Value.t list -> Value.t)

type builtins = (string, impl) Hashtbl.t

let strings_code = Addr.code_of_space Addr.Strings

let create ~structs ~funcs ~resolve ~local ?(access = fun ctx _ a _ -> ctx.resolve a)
    ?(tally = Simclock.tally ()) ?builtins ?globals ?(lane = 0) ?shared_decl
    ?(output = Buffer.create 256) () =
  (* Interned string literals live in a private arena outside any frame
     so that stack rollback cannot invalidate the intern cache; it is
     created by the first access to it. *)
  let strings_arena = ref None in
  let resolve (a : Addr.t) =
    if (a :> int) land Addr.code_mask <> strings_code then resolve a
    else
      match !strings_arena with
      | Some m -> m
      | None ->
        let m = Mem.create ~initial:1024 ~space:Addr.Strings "strings" in
        strings_arena := Some m;
        m
  in
  {
    structs;
    funcs;
    builtins = (match builtins with Some b -> b | None -> Hashtbl.create 64);
    lane;
    resolve;
    access;
    tally;
    local;
    globals = (match globals with Some g -> g | None -> Hashtbl.create 16);
    strings = None;
    strings_arena;
    shared_decl;
    output;
    fn_ptrs = None;
    frames = [];
    depth = 0;
    max_depth = 256;
    dispatch = None;
  }

(* What a run leaves in a context beyond its program, undone:
   the frames become [frames], and no call is active, no string literal
   interned, no function pointer taken and no engine attached. *)
let reset ctx ~frames =
  ctx.frames <- frames;
  ctx.depth <- 0;
  ctx.strings <- None;
  ctx.strings_arena := None;
  ctx.fn_ptrs <- None;
  ctx.dispatch <- None

(* The fixed arguments converted to their parameters' types as
   assignment converts them ([Value.cast], no step), where the type is
   arithmetic: a pointer keeps its pointee type.  Allocates nothing
   when every argument already has its type. *)
let rec convert params args =
  match (params, args) with
  | p :: ps, a :: rest ->
    let a' = if Cty.is_arith p then Value.cast p a else a and rest' = convert ps rest in
    if a' == a && rest' == rest then args else a' :: rest'
  | _ -> args

(* The parameter types a call of builtin [name] converts its fixed
   arguments to: none for the overloaded atomics, which convert their
   operands to their pointee type themselves. *)
let builtin_params name =
  match Typecheck.builtin_signature name with
  | Some s when not (Typecheck.overloaded name) -> s.params
  | _ -> []

(* A call of builtin [name]: its fixed arguments converted to [params]
   and passed to [impl], its variadic tail as it is. *)
let apply_builtin ctx name impl params args =
  match (impl, convert params args) with
  | F0 f, [] -> f ctx
  | F1 f, [ a ] -> f ctx a
  | F2 f, [ a; b ] -> f ctx a b
  | F3 f, [ a; b; c ] -> f ctx a b c
  | F4 f, [ a; b; c; d ] -> f ctx a b c d
  | F6 f, [ a; b; c; d; e; g ] -> f ctx a b c d e g
  | V1 f, a :: rest -> f ctx a rest
  | V5 f, a :: b :: c :: d :: e :: rest -> f ctx a b c d e rest
  | _ -> runtime_error "'%s' applied to the wrong number of arguments" name

(* Enter [impl] into a builtin table under [name], checked against
   [name]'s signature. *)
let register_builtin (tbl : builtins) name impl =
  let s =
    match Typecheck.builtin_signature name with
    | Some s -> s
    | None -> invalid_arg (Printf.sprintf "builtin '%s' has no signature" name)
  in
  (match (impl, List.length s.params, s.variadic) with
  | F0 _, 0, false | F1 _, 1, false | F2 _, 2, false | F3 _, 3, false | F4 _, 4, false
  | F6 _, 6, false | V1 _, 1, true | V5 _, 5, true -> ()
  | _ -> invalid_arg (Printf.sprintf "builtin '%s': arity differs from its signature's" name));
  Hashtbl.replace tbl name impl

let register_global ctx name ty addr = Hashtbl.replace ctx.globals name (ty, addr)

(* Function pointers: encoded as integer ids so that generated code can
   pass kernel-internal thread functions (e.g. thrFunc0) to the device
   runtime by name, as OMPi's master/worker scheme does. *)
let fn_ptr_tag = 0x7F00_0000_0000_0000L

let function_pointer ctx (name : string) : Value.t =
  if not (Hashtbl.mem ctx.funcs name) then runtime_error "unknown function '%s'" name;
  let fn_ptrs =
    match ctx.fn_ptrs with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 8 in
      ctx.fn_ptrs <- Some t;
      t
  in
  let id =
    match Hashtbl.find_opt fn_ptrs name with
    | Some id -> id
    | None ->
      let id = Hashtbl.length fn_ptrs in
      Hashtbl.replace fn_ptrs name id;
      id
  in
  Value.int ~ty:Cty.Long (Int64.logor fn_ptr_tag (Int64.of_int id))

let function_of_pointer ctx (v : Value.t) : Ast.fundef =
  let i = Value.as_int v in
  if Int64.logand i fn_ptr_tag <> fn_ptr_tag then
    runtime_error "value %s is not a function pointer" (Value.show v);
  let id = Int64.to_int (Int64.logand i 0xFFFFL) in
  let found =
    match ctx.fn_ptrs with
    | Some t -> Hashtbl.fold (fun name i acc -> if i = id then Some name else acc) t None
    | None -> None
  in
  match found with
  | Some name -> Hashtbl.find ctx.funcs name
  | None -> runtime_error "dangling function pointer"

(* ---------------------------------------------------------------- *)
(* Memory                                                             *)
(* ---------------------------------------------------------------- *)

let sizeof ctx ty = Cty.sizeof ctx.structs ty

let load ctx (a : Addr.t) (ty : Cty.t) : Value.t =
  let m =
    match ty with
    | Cty.Array _ | Cty.Struct _ | Cty.Func _ -> ctx.resolve a
    | _ -> ctx.access ctx Load a (sizeof ctx ty)
  in
  match ty with
  | Cty.Struct _ -> Value.ptr a (* struct rvalues are handled by address *)
  | Cty.Func _ -> runtime_error "load of function type"
  | _ -> Mem.load_scalar m ctx.structs a ty

let store ctx (a : Addr.t) (ty : Cty.t) (v : Value.t) : unit =
  let m = ctx.access ctx Store a (sizeof ctx ty) in
  Mem.store_scalar m ctx.structs a ty (Value.cast (Cty.decay ty) v)

let intern_string ctx (s : string) : Addr.t =
  let strings =
    match ctx.strings with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 16 in
      ctx.strings <- Some t;
      t
  in
  match Hashtbl.find_opt strings s with
  | Some a -> a
  | None ->
    let m = ctx.resolve (Addr.make Addr.Strings 0) in
    let a = Mem.alloc m (String.length s + 1) in
    String.iteri (fun i c -> Mem.store_scalar m ctx.structs (Addr.add a i) Cty.Uchar (Value.of_int ~ty:Cty.Uchar (Char.code c))) s;
    Hashtbl.replace strings s a;
    a

let read_c_string ctx (a : Addr.t) : string =
  let m = ctx.resolve a in
  let buf = Buffer.create 16 in
  let rec go i =
    let c = Value.to_int (Mem.load_scalar m ctx.structs (Addr.add a i) Cty.Uchar) in
    if c <> 0 then begin
      Buffer.add_char buf (Char.chr (c land 0xFF));
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

(* ---------------------------------------------------------------- *)
(* Variable binding                                                   *)
(* ---------------------------------------------------------------- *)

let push_frame ctx =
  ctx.frames <- { vars = Hashtbl.create 16; saved_mark = Mem.mark ctx.local } :: ctx.frames

let pop_frame ctx =
  match ctx.frames with
  | [] -> runtime_error "pop_frame on empty stack"
  | f :: rest ->
    Mem.release ctx.local f.saved_mark;
    ctx.frames <- rest

let declare_var ctx name ty : Addr.t =
  let addr = Mem.push ctx.local (sizeof ctx ty) in
  (match ctx.frames with
  | [] -> runtime_error "declaration outside any frame"
  | f :: _ -> Hashtbl.replace f.vars name (ty, addr));
  addr

let declare_shared_var ctx name ty : Addr.t =
  match ctx.shared_decl with
  | None -> runtime_error "__shared__ declaration outside device code"
  | Some f ->
    let addr = f name ty in
    (match ctx.frames with
    | [] -> runtime_error "declaration outside any frame"
    | fr :: _ -> Hashtbl.replace fr.vars name (ty, addr));
    addr

let lookup_var ctx name : (Cty.t * Addr.t) option =
  let rec go = function
    | [] -> Hashtbl.find_opt ctx.globals name
    | (f : frame) :: rest -> (
      match Hashtbl.find_opt f.vars name with Some x -> Some x | None -> go rest)
  in
  go ctx.frames

(* ---------------------------------------------------------------- *)
(* Expression evaluation                                              *)
(* ---------------------------------------------------------------- *)

exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

let step ctx k =
  let t = ctx.tally in
  match k with
  | St_arith -> t.arith <- t.arith + 1
  | St_mul -> t.mul <- t.mul + 1
  | St_div -> t.div <- t.div + 1
  | St_branch -> t.branch <- t.branch + 1
  | St_call -> t.call <- t.call + 1
  | St_special -> t.special <- t.special + 1

(* The value of an elaborated expression ([Typecheck.elaborate]). *)
let rec eval ctx (e : Ast.expr) : Value.t =
  match e with
  | Ast.IntLit (i, ty) -> Value.int ~ty i
  | Ast.FloatLit (f, ty) -> Value.flt ~ty f
  | Ast.CharLit c -> Value.of_int (Char.code c)
  | Ast.StrLit s -> Value.ptr ~ty:Cty.Char (intern_string ctx s)
  | Ast.Ident x when lookup_var ctx x = None && Hashtbl.mem ctx.funcs x ->
    function_pointer ctx x
  | Ast.Ident _ | Ast.Index _ | Ast.Member _ | Ast.Arrow _ | Ast.Deref _ ->
    let addr, ty = eval_lvalue ctx e in
    (match ty with
    | Cty.Array (elt, _) -> Value.ptr ~ty:elt addr (* decay *)
    | Cty.Func _ -> runtime_error "function used as value"
    | _ -> load ctx addr ty)
  | Ast.Unop (op, a) -> eval_unop ctx op a
  | Ast.Binop (op, a, b) -> eval_binop ctx op a b
  | Ast.Assign (op, lhs, rhs) ->
    let addr, ty = eval_lvalue ctx lhs in
    let v =
      match op with
      | None -> eval ctx rhs
      | Some bop ->
        let cur = load ctx addr ty in
        apply_binop ctx bop cur (eval ctx rhs)
    in
    let v = Value.cast (Cty.decay ty) v in
    store ctx addr ty v;
    v
  | Ast.Call (f, args) -> call ctx f (List.map (eval ctx) args)
  | Ast.AddrOf a ->
    let addr, ty = eval_lvalue ctx a in
    Value.ptr ~ty addr
  | Ast.Cast (ty, a) ->
    step ctx St_arith;
    Value.cast (Cty.decay ty) (eval ctx a)
  | Ast.SizeofT ty -> Value.of_int ~ty:Cty.Ulong (sizeof ctx ty)
  | Ast.SizeofE _ -> runtime_error "sizeof(expression) reached the interpreter unelaborated"
  | Ast.Cond (c, t, f) ->
    step ctx St_branch;
    if Value.is_true (eval ctx c) then eval ctx t else eval ctx f
  | Ast.Comma (a, b) ->
    ignore (eval ctx a);
    eval ctx b

and eval_lvalue ctx (e : Ast.expr) : Addr.t * Cty.t =
  match e with
  | Ast.Ident x -> (
    match lookup_var ctx x with
    | Some (ty, addr) -> (addr, ty)
    | None -> runtime_error "unbound variable '%s'" x)
  | Ast.Index (a, i) ->
    let base = eval ctx a in
    let idx = Value.to_int (eval ctx i) in
    step ctx St_arith;
    (match base with
    | Value.VPtr (addr, elt) -> (Addr.add addr (idx * sizeof ctx elt), elt)
    | v -> runtime_error "indexing non-pointer %s" (Value.show v))
  | Ast.Deref a -> (
    match eval ctx a with
    | Value.VPtr (addr, elt) -> (addr, elt)
    | v -> runtime_error "dereferencing non-pointer %s" (Value.show v))
  | Ast.Member (a, fld) ->
    let addr, ty = eval_lvalue ctx a in
    (match ty with
    | Cty.Struct s ->
      let f = Cty.find_field ctx.structs s fld in
      (Addr.add addr f.fld_off, f.fld_ty)
    | ty -> runtime_error "member access on %s" (Cty.show ty))
  | Ast.Arrow (a, fld) -> (
    match eval ctx a with
    | Value.VPtr (addr, Cty.Struct s) ->
      let f = Cty.find_field ctx.structs s fld in
      (Addr.add addr f.fld_off, f.fld_ty)
    | v -> runtime_error "arrow access on %s" (Value.show v))
  | e -> runtime_error "expression is not an lvalue: %s" (Ast.show_expr e)

and eval_unop ctx op a : Value.t =
  match op with
  | Ast.Neg ->
    step ctx St_arith;
    (match eval ctx a with
    | Value.VInt (i, ty) -> Value.int ~ty:(Cty.promote ty) (Int64.neg i)
    | Value.VFlt (f, ty) -> Value.flt ~ty (-.f)
    | v -> runtime_error "negation of %s" (Value.show v))
  | Ast.Not ->
    step ctx St_arith;
    Value.bool (not (Value.is_true (eval ctx a)))
  | Ast.BitNot ->
    step ctx St_arith;
    (match eval ctx a with
    | Value.VInt (i, ty) -> Value.int ~ty:(Cty.promote ty) (Int64.lognot i)
    | v -> runtime_error "bitwise not of %s" (Value.show v))
  | Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec ->
    step ctx St_arith;
    let addr, ty = eval_lvalue ctx a in
    let old = load ctx addr ty in
    let delta = if op = Ast.PreInc || op = Ast.PostInc then 1 else -1 in
    let updated =
      match old with
      | Value.VInt (i, ity) -> Value.int ~ty:ity (Int64.add i (Int64.of_int delta))
      | Value.VFlt (f, fty) -> Value.flt ~ty:fty (f +. float_of_int delta)
      | Value.VPtr (p, elt) -> Value.ptr ~ty:elt (Addr.add p (delta * sizeof ctx elt))
      | Value.VVoid -> runtime_error "increment of void"
    in
    store ctx addr ty updated;
    if op = Ast.PostInc || op = Ast.PostDec then old else updated

and apply_binop ctx op (va : Value.t) (vb : Value.t) : Value.t =
  (match op with
  | Ast.Mul -> step ctx St_mul
  | Ast.Div | Ast.Mod -> step ctx St_div
  | _ -> step ctx St_arith);
  match (op, va, vb) with
  (* pointer arithmetic *)
  | Ast.Add, Value.VPtr (p, elt), v -> Value.ptr ~ty:elt (Addr.add p (Value.to_int v * sizeof ctx elt))
  | Ast.Add, v, Value.VPtr (p, elt) -> Value.ptr ~ty:elt (Addr.add p (Value.to_int v * sizeof ctx elt))
  | Ast.Sub, Value.VPtr (p, elt), Value.VPtr (q, _) ->
    Value.of_int ~ty:Cty.Long (Addr.diff p q / sizeof ctx elt)
  | Ast.Sub, Value.VPtr (p, elt), v -> Value.ptr ~ty:elt (Addr.add p (-Value.to_int v * sizeof ctx elt))
  (* pointer comparison *)
  | (Ast.Eq | Ast.Ne | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge), Value.VPtr (p, _), Value.VPtr (q, _) ->
    let c = Addr.compare p q in
    Value.bool
      (match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Gt -> c > 0
      | Ast.Le -> c <= 0
      | _ -> c >= 0)
  | (Ast.Eq | Ast.Ne), Value.VPtr (p, _), Value.VInt (i, _) ->
    Value.bool (if op = Ast.Eq then Addr.to_int64 p = i || (Addr.is_null p && i = 0L) else not (Addr.is_null p && i = 0L) && Addr.to_int64 p <> i)
  | (Ast.Eq | Ast.Ne), Value.VInt (i, _), Value.VPtr (p, _) ->
    Value.bool (if op = Ast.Eq then Addr.is_null p && i = 0L else not (Addr.is_null p && i = 0L))
  | _ -> (
    let ta = Cty.decay (Value.ty_of va) in
    let common = Cty.common_arith ta (Cty.decay (Value.ty_of vb)) in
    match common with
    | Cty.Float | Cty.Double ->
      let a = Value.as_float va and b = Value.as_float vb in
      let flt f = Value.flt ~ty:common f in
      (match op with
      | Ast.Add -> flt (a +. b)
      | Ast.Sub -> flt (a -. b)
      | Ast.Mul -> flt (a *. b)
      | Ast.Div -> flt (a /. b)
      | Ast.Lt -> Value.bool (a < b)
      | Ast.Gt -> Value.bool (a > b)
      | Ast.Le -> Value.bool (a <= b)
      | Ast.Ge -> Value.bool (a >= b)
      | Ast.Eq -> Value.bool (a = b)
      | Ast.Ne -> Value.bool (a <> b)
      | Ast.LogAnd -> Value.bool (a <> 0.0 && b <> 0.0)
      | Ast.LogOr -> Value.bool (a <> 0.0 || b <> 0.0)
      | _ -> runtime_error "invalid float operation")
    | common ->
      (* a shift has its left operand's promoted type *)
      let ity = match op with Ast.Shl | Ast.Shr -> Cty.promote ta | _ -> common in
      let a = Value.as_int va and b = Value.as_int vb in
      let wrap i = Value.int ~ty:ity i in
      let unsigned = Cty.is_unsigned ity in
      let icmp = if unsigned then Int64.unsigned_compare a b else Int64.compare a b in
      (match op with
      | Ast.Add -> wrap (Int64.add a b)
      | Ast.Sub -> wrap (Int64.sub a b)
      | Ast.Mul -> wrap (Int64.mul a b)
      | Ast.Div ->
        if b = 0L then runtime_error "integer division by zero";
        wrap (if unsigned then Int64.unsigned_div a b else Int64.div a b)
      | Ast.Mod ->
        if b = 0L then runtime_error "integer modulo by zero";
        wrap (if unsigned then Int64.unsigned_rem a b else Int64.rem a b)
      | Ast.Shl -> wrap (Int64.shift_left a (Int64.to_int b land 63))
      | Ast.Shr ->
        wrap
          (if unsigned then Int64.shift_right_logical a (Int64.to_int b land 63)
           else Int64.shift_right a (Int64.to_int b land 63))
      | Ast.BitAnd -> wrap (Int64.logand a b)
      | Ast.BitOr -> wrap (Int64.logor a b)
      | Ast.BitXor -> wrap (Int64.logxor a b)
      | Ast.Lt -> Value.bool (icmp < 0)
      | Ast.Gt -> Value.bool (icmp > 0)
      | Ast.Le -> Value.bool (icmp <= 0)
      | Ast.Ge -> Value.bool (icmp >= 0)
      | Ast.Eq -> Value.bool (a = b)
      | Ast.Ne -> Value.bool (a <> b)
      | Ast.LogAnd -> Value.bool (a <> 0L && b <> 0L)
      | Ast.LogOr -> Value.bool (a <> 0L || b <> 0L)))

and eval_binop ctx op a b : Value.t =
  match op with
  (* short-circuit evaluation *)
  | Ast.LogAnd ->
    step ctx St_branch;
    if Value.is_true (eval ctx a) then Value.bool (Value.is_true (eval ctx b)) else Value.bool false
  | Ast.LogOr ->
    step ctx St_branch;
    if Value.is_true (eval ctx a) then Value.bool true else Value.bool (Value.is_true (eval ctx b))
  | _ -> apply_binop ctx op (eval ctx a) (eval ctx b)

(* ---------------------------------------------------------------- *)
(* Calls                                                              *)
(* ---------------------------------------------------------------- *)

and call ctx (f : string) (args : Value.t list) : Value.t =
  step ctx St_call;
  match Hashtbl.find_opt ctx.builtins f with
  | Some impl -> apply_builtin ctx f impl (builtin_params f) args
  | None -> (
    match Hashtbl.find_opt ctx.funcs f with
    | Some fd -> call_fundef ctx fd args
    | None -> runtime_error "call to undefined function '%s'" f)

and call_fundef ctx (fd : Ast.fundef) (args : Value.t list) : Value.t =
  match ctx.dispatch with
  | Some d -> d ctx fd args
  | None -> tree_call_fundef ctx fd args

(* The reference executor: walk the function body's AST directly. *)
and tree_call_fundef ctx (fd : Ast.fundef) (args : Value.t list) : Value.t =
  if ctx.depth >= ctx.max_depth then runtime_error "call stack overflow in '%s'" fd.f_name;
  if List.length args <> List.length fd.f_params then
    runtime_error "'%s' expects %d arguments, got %d" fd.f_name (List.length fd.f_params)
      (List.length args);
  ctx.depth <- ctx.depth + 1;
  push_frame ctx;
  let finally () =
    pop_frame ctx;
    ctx.depth <- ctx.depth - 1
  in
  Fun.protect ~finally (fun () ->
      List.iter2
        (fun (name, ty) v ->
          let ty = Cty.decay ty in
          let addr = declare_var ctx name ty in
          store ctx addr ty v)
        fd.f_params args;
      match exec ctx fd.f_body with
      | () -> Value.VVoid
      | exception Return_exc v ->
        if fd.f_ret = Cty.Void then Value.VVoid else Value.cast (Cty.decay fd.f_ret) v)

(* ---------------------------------------------------------------- *)
(* Statements                                                         *)
(* ---------------------------------------------------------------- *)

and exec_init ctx (addr : Addr.t) (ty : Cty.t) (init : Ast.init) : unit =
  match (init, ty) with
  | Ast.Iexpr e, _ -> store ctx addr ty (eval ctx e)
  | Ast.Ilist items, Cty.Array (elt, _) ->
    let esz = sizeof ctx elt in
    List.iteri (fun i item -> exec_init ctx (Addr.add addr (i * esz)) elt item) items
  | Ast.Ilist items, Cty.Struct s ->
    let lay = Cty.lookup_layout ctx.structs s in
    List.iteri
      (fun i item ->
        match List.nth_opt lay.lay_fields i with
        | Some f -> exec_init ctx (Addr.add addr f.fld_off) f.fld_ty item
        | None -> runtime_error "too many initializers for struct %s" s)
      items
  | Ast.Ilist _, ty -> runtime_error "brace initializer for scalar %s" (Cty.show ty)

and exec ctx (s : Ast.stmt) : unit =
  match s with
  | Ast.Snop -> ()
  | Ast.Sexpr e -> ignore (eval ctx e)
  | Ast.Sdecl ds ->
    List.iter
      (fun (d : Ast.decl) ->
        let addr =
          if d.d_shared then declare_shared_var ctx d.d_name d.d_ty
          else declare_var ctx d.d_name d.d_ty
        in
        match d.d_init with
        | Some init -> exec_init ctx addr d.d_ty init
        | None -> ())
      ds
  | Ast.Sblock ss ->
    push_frame ctx;
    Fun.protect ~finally:(fun () -> pop_frame ctx) (fun () -> List.iter (exec ctx) ss)
  | Ast.Sif (c, t, e) ->
    step ctx St_branch;
    if Value.is_true (eval ctx c) then exec ctx t else Option.iter (exec ctx) e
  | Ast.Swhile (c, body) -> (
    try
      while
        step ctx St_branch;
        Value.is_true (eval ctx c)
      do
        try exec ctx body with Continue_exc -> ()
      done
    with Break_exc -> ())
  | Ast.Sdo (body, c) -> (
    try
      let continue_loop = ref true in
      while !continue_loop do
        (try exec ctx body with Continue_exc -> ());
        step ctx St_branch;
        continue_loop := Value.is_true (eval ctx c)
      done
    with Break_exc -> ())
  | Ast.Sfor (init, cond, update, body) ->
    push_frame ctx;
    Fun.protect
      ~finally:(fun () -> pop_frame ctx)
      (fun () ->
        Option.iter (exec ctx) init;
        try
          while
            step ctx St_branch;
            match cond with None -> true | Some c -> Value.is_true (eval ctx c)
          do
            (try exec ctx body with Continue_exc -> ());
            Option.iter (fun u -> ignore (eval ctx u)) update
          done
        with Break_exc -> ())
  | Ast.Sreturn None -> raise (Return_exc Value.VVoid)
  | Ast.Sreturn (Some e) -> raise (Return_exc (eval ctx e))
  | Ast.Sbreak -> raise Break_exc
  | Ast.Scontinue -> raise Continue_exc
  | Ast.Spragma (Ast.Omp dir, _) ->
    runtime_error "unlowered OpenMP directive reached the interpreter: %s"
      (Format.asprintf "%a" Pretty.pp_directive dir)
  | Ast.Spragma (Ast.Raw _, body) ->
    (* Unknown non-OpenMP pragma: execute the body, ignore the pragma. *)
    Option.iter (exec ctx) body

(* ---------------------------------------------------------------- *)
(* printf                                                             *)
(* ---------------------------------------------------------------- *)

(* A small printf supporting %d %ld %u %f %g %e %c %s %p and width
   modifiers like %5d / %0.3f, enough for the benchmark programs. *)
let format_printf ctx (fmt_string : string) (args : Value.t list) : string =
  let buf = Buffer.create (String.length fmt_string) in
  let args = ref args in
  let next () =
    match !args with
    | [] -> runtime_error "printf: not enough arguments for format %S" fmt_string
    | a :: rest ->
      args := rest;
      a
  in
  let n = String.length fmt_string in
  let i = ref 0 in
  while !i < n do
    let c = fmt_string.[!i] in
    if c <> '%' then begin
      Buffer.add_char buf c;
      incr i
    end
    else begin
      (* scan the conversion spec *)
      let start = !i in
      incr i;
      while
        !i < n
        && match fmt_string.[!i] with
           | '0' .. '9' | '.' | '-' | '+' | ' ' | 'l' | 'h' -> true
           | _ -> false
      do
        incr i
      done;
      if !i >= n then Buffer.add_string buf (String.sub fmt_string start (n - start))
      else begin
        let conv = fmt_string.[!i] in
        incr i;
        let spec = String.sub fmt_string start (!i - start) in
        let clean = String.concat "" (String.split_on_char 'l' spec) in
        match conv with
        | '%' -> Buffer.add_char buf '%'
        | 'd' | 'i' ->
          let spec64 = String.sub clean 0 (String.length clean - 1) ^ "Ld" in
          Buffer.add_string buf (Printf.sprintf (Scanf.format_from_string spec64 "%Ld") (Value.as_int (next ())))
        | 'u' ->
          let spec64 = String.sub clean 0 (String.length clean - 1) ^ "Lu" in
          Buffer.add_string buf (Printf.sprintf (Scanf.format_from_string spec64 "%Lu") (Value.as_int (next ())))
        | 'x' ->
          let spec64 = String.sub clean 0 (String.length clean - 1) ^ "Lx" in
          Buffer.add_string buf (Printf.sprintf (Scanf.format_from_string spec64 "%Lx") (Value.as_int (next ())))
        | 'f' | 'g' | 'e' ->
          Buffer.add_string buf (Printf.sprintf (Scanf.format_from_string clean "%f") (Value.as_float (next ())))
        | 'c' ->
          Buffer.add_char buf (Char.chr (Value.to_int (next ()) land 0xFF))
        | 's' -> Buffer.add_string buf (read_c_string ctx (Value.as_addr (next ())))
        | 'p' -> Buffer.add_string buf (Printf.sprintf "0x%Lx" (Value.as_int (next ())))
        | c -> runtime_error "printf: unsupported conversion '%%%c'" c
      end
    end
  done;
  Buffer.contents buf

(* Default builtins shared by host and device roles. *)
let install_common_builtins (tbl : builtins) =
  let reg = register_builtin tbl in
  reg "printf" (V1 (fun ctx fmt rest ->
      let s = format_printf ctx (read_c_string ctx (Value.as_addr fmt)) rest in
      Buffer.add_string ctx.output s;
      Value.of_int (String.length s)));
  let float1 ?(ty = Cty.Double) ?(cost = St_special) name fn =
    reg name (F1 (fun ctx a ->
        step ctx cost;
        Value.flt ~ty (fn (Value.as_float a))))
  in
  float1 "sqrt" sqrt;
  float1 "fabs" abs_float ~cost:St_arith;
  float1 "exp" exp;
  float1 "log" log;
  float1 "sqrtf" sqrt ~ty:Cty.Float;
  float1 "fabsf" abs_float ~ty:Cty.Float;
  float1 "expf" exp ~ty:Cty.Float;
  reg "pow" (F2 (fun ctx a b ->
      step ctx St_special;
      Value.flt ~ty:Cty.Double (Float.pow (Value.as_float a) (Value.as_float b))));
  reg "abs" (F1 (fun ctx a ->
      step ctx St_arith;
      Value.int ~ty:Cty.Int (Int64.abs (Value.as_int a))))

(* Elaborate a program and load its function definitions and struct
   layouts into the context's tables; an ill-typed program is an
   execution error. *)
let load_program ctx (p : Ast.program) : Typecheck.env * Ast.program =
  match Typecheck.elaborate p with
  | Error errs -> runtime_error "type errors: %s" (String.concat "; " errs)
  | Ok (env, p) ->
    List.iter
      (function
        | Ast.Gfun f -> Hashtbl.replace ctx.funcs f.f_name f
        | Ast.Gstruct (name, fields) -> ignore (Cty.define_struct ctx.structs name fields)
        | Ast.Gvar _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
      p;
    (env, p)
