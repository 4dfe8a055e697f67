(* Static typing of mini-C programs, the one place a program is typed.
   The translator uses the scoped symbol table to find the types of
   variables referenced in a target region (for map sizes and kernel
   parameter structs); [elaborate] types every expression of a program
   and makes the conversions C implies explicit, and both executors run
   only its output. *)

open Machine

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type env = {
  structs : Cty.layout_env;
  funcs : (string, Cty.t * (string * Cty.t) list) Hashtbl.t;
  globals : (string, Cty.t) Hashtbl.t;
  mutable scopes : (string, Cty.t) Hashtbl.t list;
}

(* A callee's C signature: its parameter types, whether a variadic
   tail follows them, and its return type. *)
type signature = { params : Cty.t list; variadic : bool; ret : Cty.t }

(* The builtins, one C prototype each: every name the host table
   ([Interp.install_common_builtins] and [Hostexec]'s ORT entry points)
   or the device table ([Devrt.Api.install]) registers, and nothing
   else; registering a name fails without one.  A builtin shadows a
   defined function of the same name, as in both executors. *)
let builtin_signatures : (string, signature) Hashtbl.t =
  let open Cty in
  let tbl = Hashtbl.create 128 in
  let proto ?(variadic = false) ret name params =
    Hashtbl.replace tbl name { params; variadic; ret }
  in
  let vp = Ptr Void and ip = Ptr Int and str = Ptr Char in
  List.iter (fun n -> proto Int n [])
    [ "omp_get_thread_num"; "omp_get_num_threads"; "omp_get_team_num"; "omp_get_num_teams";
      "omp_get_num_devices"; "omp_get_default_device"; "omp_is_initial_device";
      "cudadev_thread_id"; "cudadev_team_id"; "cudadev_num_teams"; "cudadev_num_threads" ];
  proto Void "omp_set_default_device" [ Int ];
  proto Double "omp_get_wtime" [];
  proto ~variadic:true Int "printf" [ str ];
  proto vp "malloc" [ Ulong ];
  proto Void "free" [ vp ];
  List.iter (fun n -> proto Double n [ Double ]) [ "sqrt"; "fabs"; "exp"; "log" ];
  List.iter (fun n -> proto Float n [ Float ]) [ "sqrtf"; "fabsf"; "expf" ];
  proto Double "pow" [ Double; Double ];
  proto Int "abs" [ Int ];
  (* ORT host entry points (translated host programs); the first
     argument is the device, -1 for the default one *)
  proto vp "ort_map" [ Int; vp; Ulong; Int ];
  proto Void "ort_unmap" [ Int; vp; Int ];
  proto Void "ort_update_to" [ Int; vp; Ulong ];
  proto Void "ort_update_from" [ Int; vp; Ulong ];
  (* device, kernel file, entry, teams, threads; then the kernel's
     arguments, or its maps as (base, bytes, map type) triples *)
  proto ~variadic:true Int "ort_offload" [ Int; str; str; Int; Int ];
  proto ~variadic:true Int "ort_offload_nowait" [ Int; str; str; Int; Int ];
  proto Void "ort_taskwait" [ Int ];
  (* cudadev device-library entry points (generated code) *)
  proto Int "cudadev_in_masterwarp" [ Int ];
  proto Int "cudadev_is_masterthr" [ Int ];
  proto Void "cudadev_register_parallel" [ Ptr (Func (Void, [ vp ], false)); vp; Int ];
  proto Void "cudadev_workerfunc" [ Int ];
  proto Void "cudadev_exit_target" [];
  proto vp "cudadev_push_shmem" [ vp; Ulong ];
  proto Void "cudadev_pop_shmem" [ vp; Ulong ];
  proto vp "cudadev_getaddr" [ vp ];
  proto Void "cudadev_barrier" [ Int ];
  proto Void "cudadev_lock" [ ip ];
  proto Void "cudadev_unlock" [ ip ];
  proto Void "cudadev_get_distribute_chunk" [ ip; ip; Int; Int ];
  proto Int "cudadev_get_distribute_cyclic" [ Int; Int; Int; Int; ip; ip ];
  proto Int "cudadev_get_static_chunk" [ ip; ip; Int; Int ];
  proto Int "cudadev_get_dynamic_chunk" [ Int; Int; Int; Int; ip; ip ];
  proto Int "cudadev_get_guided_chunk" [ Int; Int; Int; Int; ip; ip ];
  proto Int "cudadev_sections_next" [ Int; Int ];
  proto Void "cudadev_ws_barrier" [ Int; Int ];
  (* reductions into the object a pointer addresses, of its type *)
  List.iter (fun op -> proto Void ("cudadev_reduce_f" ^ op) [ vp; Double ])
    [ "add"; "mul"; "max"; "min"; "land"; "lor" ];
  List.iter (fun op -> proto Void ("cudadev_reduce_i" ^ op) [ vp; Long ])
    [ "add"; "mul"; "max"; "min"; "and"; "or"; "xor"; "land" ];
  (* CUDA intrinsics for hand-written kernels; the atomics are declared
     by their int overload and typed by their pointer (see [call_type]) *)
  proto Void "__syncthreads" [];
  proto Int "atomicAdd" [ ip; Int ];
  proto Int "atomicCAS" [ ip; Int; Int ];
  proto Int "atomicExch" [ ip; Int ];
  tbl

let builtin_signature name = Hashtbl.find_opt builtin_signatures name

(* CUDA's atomics are overloaded on their pointer: their other
   arguments and their result take its pointee type. *)
let overloaded name = name = "atomicAdd" || name = "atomicCAS" || name = "atomicExch"

let create () =
  {
    structs = Cty.create_layout_env ();
    funcs = Hashtbl.create 32;
    globals = Hashtbl.create 32;
    scopes = [];
  }

let push_scope env = env.scopes <- Hashtbl.create 16 :: env.scopes

let pop_scope env =
  match env.scopes with
  | [] -> error "pop_scope on empty scope stack"
  | _ :: rest -> env.scopes <- rest

let add_var env name ty =
  match env.scopes with
  | [] -> Hashtbl.replace env.globals name ty
  | scope :: _ -> Hashtbl.replace scope name ty

let lookup_var env name : Cty.t option =
  let rec go = function
    | [] -> Hashtbl.find_opt env.globals name
    | scope :: rest -> (
      match Hashtbl.find_opt scope name with
      | Some ty -> Some ty
      | None -> go rest)
  in
  go env.scopes

let in_scope f env =
  push_scope env;
  Fun.protect ~finally:(fun () -> pop_scope env) f

(* CUDA's implicit device variables, of type [struct dim3]. *)
let cuda_globals = [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim" ]

(* Collect top-level declarations: struct layouts, function signatures,
   globals, and with [cuda] the dim3 layout and the implicit device
   variables.  Does not enter function bodies. *)
let of_program ?(cuda = false) (p : Ast.program) : env =
  let env = create () in
  List.iter
    (fun g ->
      match g with
      | Ast.Gstruct (name, fields) -> ignore (Cty.define_struct env.structs name fields)
      | Ast.Gfun f -> Hashtbl.replace env.funcs f.f_name (f.f_ret, f.f_params)
      | Ast.Gfundecl (name, ret, params) -> Hashtbl.replace env.funcs name (ret, params)
      | Ast.Gvar (d, _) -> Hashtbl.replace env.globals d.d_name d.d_ty
      | Ast.Gpragma _ -> ())
    p;
  if cuda then begin
    if not (Cty.has_layout env.structs "dim3") then
      ignore (Cty.define_struct env.structs "dim3" [ ("x", Cty.Int); ("y", Cty.Int); ("z", Cty.Int) ]);
    List.iter (fun v -> Hashtbl.replace env.globals v (Cty.Struct "dim3")) cuda_globals
  end;
  env

(* The layout queries of [Cty] raise [Cty.Type_error]; a type error of
   this module is always an [Error]. *)
let layout f = try f () with Cty.Type_error m -> raise (Error m)

let sizeof env ty = layout (fun () -> Cty.sizeof env.structs ty)

(* Over decayed types. *)
let is_ptr = function Cty.Ptr _ -> true | _ -> false

let scalar ty = Cty.is_arith ty || is_ptr ty

(* Can a value of type [src] be converted to [dst] (by assignment,
   initialization, return, cast or comparison)?  Not between a pointer
   and a floating type. *)
let convertible ~(dst : Cty.t) ~(src : Cty.t) =
  scalar dst && scalar src
  && not ((Cty.is_float dst && is_ptr src) || (is_ptr dst && Cty.is_float src))

(* ---------------------------------------------------------------- *)
(* Operator rules                                                     *)
(* ---------------------------------------------------------------- *)

(* The result types of the operators over their operands' decayed
   types, and what C forbids: the usual arithmetic conversions of both
   operands; comparisons and logical operators of type [int]; a shift
   of its left operand's promoted type (C11 6.5.7), [-] and [~] of their
   operand's promoted type (6.5.3.3), [++]/[--] of their operand's type;
   pointer arithmetic keeps the pointer's type and a pointer difference
   is a [long].  Shared with the closure JIT, which types its compiled
   expressions with them. *)
let binop_type (op : Ast.binop) (ta : Cty.t) (tb : Cty.t) : Cty.t =
  let arith = Cty.is_arith ta && Cty.is_arith tb in
  let ok =
    match op with
    | Ast.LogAnd | Ast.LogOr -> scalar ta && scalar tb
    | Ast.Eq | Ast.Ne -> convertible ~dst:ta ~src:tb
    | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> arith || (is_ptr ta && is_ptr tb)
    | Ast.Shl | Ast.Shr | Ast.Mod | Ast.BitAnd | Ast.BitOr | Ast.BitXor ->
      Cty.is_integer ta && Cty.is_integer tb
    | Ast.Mul | Ast.Div -> arith
    | Ast.Add -> arith || (is_ptr ta && Cty.is_integer tb) || (Cty.is_integer ta && is_ptr tb)
    | Ast.Sub -> arith || (is_ptr ta && (Cty.is_integer tb || is_ptr tb))
  in
  if not ok then
    error "invalid operands to binary %s (%s and %s)" (Pretty.binop_str op) (Cty.to_c_string ta)
      (Cty.to_c_string tb);
  match (op, ta, tb) with
  | (Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.LogAnd | Ast.LogOr), _, _ -> Cty.Int
  | (Ast.Shl | Ast.Shr), _, _ -> Cty.promote ta
  | Ast.Sub, Cty.Ptr _, Cty.Ptr _ -> Cty.Long
  | (Ast.Add | Ast.Sub), Cty.Ptr _, _ -> ta
  | Ast.Add, _, Cty.Ptr _ -> tb
  | _ -> Cty.common_arith ta tb

let unop_type (op : Ast.unop) (ta : Cty.t) : Cty.t =
  let ok, ty, name =
    match op with
    | Ast.Not -> (scalar ta, Cty.Int, "!")
    | Ast.Neg -> (Cty.is_arith ta, Cty.promote ta, "-")
    | Ast.BitNot -> (Cty.is_integer ta, Cty.promote ta, "~")
    | Ast.PreInc | Ast.PostInc -> (scalar ta, ta, "++")
    | Ast.PreDec | Ast.PostDec -> (scalar ta, ta, "--")
  in
  if not ok then error "invalid operand to %s (%s)" name (Cty.to_c_string ta);
  ty

(* The type of [c ? t : f] over the arms' decayed types (C11 6.5.15):
   the usual arithmetic conversions of arithmetic arms, the pointer type
   against an integer (null pointer constant) arm, [void *] for two
   different pointer types, or the arms' common type. *)
let cond_type (tt : Cty.t) (tf : Cty.t) : Cty.t =
  match (tt, tf) with
  | _ when Cty.is_arith tt && Cty.is_arith tf -> Cty.common_arith tt tf
  | _ when Cty.equal tt tf -> tt
  | Cty.Ptr _, _ when Cty.is_integer tf -> tt
  | _, Cty.Ptr _ when Cty.is_integer tt -> tf
  | Cty.Ptr _, Cty.Ptr _ -> Cty.Ptr Cty.Void
  | _ -> error "conditional arms of types %s and %s" (Cty.to_c_string tt) (Cty.to_c_string tf)

let check_convertible what ~dst ~src =
  if not (convertible ~dst ~src) then
    error "incompatible types in %s (%s from %s)" what (Cty.to_c_string dst) (Cty.to_c_string src)

(* The return type of a call to [f] with arguments of the (decayed)
   types [args], checked against the signature of the callee both
   executors pick (a builtin shadows a defined or declared function):
   the argument count, and each fixed argument converts to its
   parameter type as by assignment (a function designator as a pointer
   to it).  CUDA's atomics take their pointer's pointee type for the
   other parameters and the result. *)
let call_type env (f : string) (args : Cty.t list) : Cty.t =
  let s =
    match (builtin_signature f, Hashtbl.find_opt env.funcs f, args) with
    | Some s, _, Cty.Ptr elt :: _ when overloaded f ->
      { s with params = List.mapi (fun i p -> if i = 0 then p else elt) s.params; ret = elt }
    | Some s, _, _ -> s
    | None, Some (ret, params), _ -> { params = List.map snd params; variadic = false; ret }
    | None, None, _ -> error "call to unknown function '%s'" f
  in
  let nparams = List.length s.params and nargs = List.length args in
  if nargs < nparams || (nargs > nparams && not s.variadic) then
    error "'%s' called with %d argument(s), its signature has %s%d" f nargs
      (if s.variadic then "at least " else "") nparams;
  List.iteri
    (fun i src ->
      match List.nth_opt s.params i with
      | Some dst ->
        let src = match src with Cty.Func _ -> Cty.Ptr src | _ -> src in
        if not (convertible ~dst ~src) then
          error "incompatible types in argument %d of '%s' (%s from %s)" (i + 1) f
            (Cty.to_c_string dst) (Cty.to_c_string src)
      | None -> () (* the variadic tail *))
    args;
  s.ret

(* ---------------------------------------------------------------- *)
(* Elaboration                                                        *)
(* ---------------------------------------------------------------- *)

(* An lvalue: a variable, or an object reached through a pointer. *)
let rec is_lvalue env (e : Ast.expr) =
  match e with
  | Ast.Ident x -> Option.is_some (lookup_var env x)
  | Ast.Index _ | Ast.Deref _ | Ast.Arrow _ -> true
  | Ast.Member (a, _) -> is_lvalue env a
  | _ -> false

let need_lvalue env what (e : Ast.expr) =
  if not (is_lvalue env e) then error "%s needs an lvalue: %s" what (Format.asprintf "%a" Pretty.pp_expr e)

(* Pointer arithmetic moves by whole elements of a complete type. *)
let complete_pointee env (ty : Cty.t) =
  match ty with Cty.Ptr elt -> ignore (sizeof env elt) | _ -> ()

(* [e] with every subexpression typed, and its type.  A conditional's
   arms are converted to the conditional's type where their own differs,
   and [sizeof expr] becomes [sizeof(type)] of the unevaluated operand.
   Raises [Error] on the first ill-typed node. *)
let rec elab env (e : Ast.expr) : Ast.expr * Cty.t =
  match e with
  | Ast.IntLit (_, ty) | Ast.FloatLit (_, ty) -> (e, ty)
  | Ast.CharLit _ -> (e, Cty.Int)
  | Ast.StrLit _ -> (e, Cty.Ptr Cty.Char)
  | Ast.Ident x -> (
    match lookup_var env x with
    | Some ty -> (e, ty)
    | None -> (
      match Hashtbl.find_opt env.funcs x with
      | Some (ret, params) -> (e, Cty.Func (ret, List.map snd params, false))
      | None -> error "unbound identifier '%s'" x))
  | Ast.Unop (((Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec) as op), a) ->
    let a, ta = elab env a in
    need_lvalue env "increment" a;
    (match ta with Cty.Array _ -> error "increment of an array" | _ -> complete_pointee env ta);
    (Ast.Unop (op, a), unop_type op ta)
  | Ast.Unop (op, a) ->
    let a, ta = rvalue env a in
    (Ast.Unop (op, a), unop_type op ta)
  | Ast.Binop (op, a, b) ->
    let a, ta = rvalue env a in
    let b, tb = rvalue env b in
    let ty = binop_type op ta tb in
    if op = Ast.Add || op = Ast.Sub then begin
      complete_pointee env ta;
      complete_pointee env tb
    end;
    (Ast.Binop (op, a, b), ty)
  | Ast.Assign (op, lhs, rhs) ->
    let lhs, tl = elab env lhs in
    need_lvalue env "assignment" lhs;
    (match tl with
    | Cty.Array _ | Cty.Func _ | Cty.Void -> error "assignment to an object of type %s" (Cty.to_c_string tl)
    | _ -> ());
    let rhs, tr = rvalue env rhs in
    let src =
      match op with
      | None -> tr
      | Some bop ->
        if bop = Ast.Add || bop = Ast.Sub then complete_pointee env tl;
        binop_type bop tl tr
    in
    check_convertible "assignment" ~dst:tl ~src;
    (Ast.Assign (op, lhs, rhs), tl)
  | Ast.Call (f, args) ->
    let args, tys = List.split (List.map (rvalue env) args) in
    List.iter (fun ty -> if ty = Cty.Void then error "void value passed to '%s'" f) tys;
    (Ast.Call (f, args), call_type env f tys)
  | Ast.Index (a, i) -> (
    let a, ta = rvalue env a in
    let i, ti = rvalue env i in
    match ta with
    | Cty.Ptr elt when Cty.is_integer ti ->
      ignore (sizeof env elt);
      (Ast.Index (a, i), elt)
    | _ -> error "invalid subscript (%s[%s])" (Cty.to_c_string ta) (Cty.to_c_string ti))
  | Ast.Member (a, fld) -> (
    let a, ta = elab env a in
    need_lvalue env "member access" a;
    match ta with
    | Cty.Struct s -> (Ast.Member (a, fld), (layout (fun () -> Cty.find_field env.structs s fld)).fld_ty)
    | ty -> error "member access on non-struct type %s" (Cty.show ty))
  | Ast.Arrow (a, fld) -> (
    let a, ta = rvalue env a in
    match ta with
    | Cty.Ptr (Cty.Struct s) ->
      (Ast.Arrow (a, fld), (layout (fun () -> Cty.find_field env.structs s fld)).fld_ty)
    | ty -> error "arrow access on type %s" (Cty.show ty))
  | Ast.Deref a -> (
    let a, ta = rvalue env a in
    match ta with
    | Cty.Ptr elt -> (Ast.Deref a, elt)
    | ty -> error "dereferencing non-pointer type %s" (Cty.show ty))
  | Ast.AddrOf a ->
    let a, ta = elab env a in
    need_lvalue env "&" a;
    (Ast.AddrOf a, Cty.Ptr ta)
  | Ast.Cast (ty, a) ->
    let a, ta = rvalue env a in
    if ty <> Cty.Void then check_convertible "cast" ~dst:(Cty.decay ty) ~src:ta;
    (Ast.Cast (ty, a), ty)
  | Ast.SizeofT ty ->
    ignore (sizeof env ty);
    (e, Cty.Ulong)
  | Ast.SizeofE a ->
    let _, ta = elab env a in
    ignore (sizeof env ta);
    (Ast.SizeofT ta, Cty.Ulong)
  | Ast.Cond (c, t, f) ->
    let c = condition env c in
    let t, tt = rvalue env t in
    let f, tf = rvalue env f in
    let ty = cond_type tt tf in
    let arm a ta = if Cty.equal ta ty then a else Ast.Cast (ty, a) in
    (Ast.Cond (c, arm t tt, arm f tf), ty)
  | Ast.Comma (a, b) ->
    let a, _ = elab env a in
    let b, tb = rvalue env b in
    (Ast.Comma (a, b), tb)

(* An operand used for its value: arrays decay to pointers. *)
and rvalue env e =
  let e, ty = elab env e in
  (e, Cty.decay ty)

and condition env e =
  let e, ty = rvalue env e in
  if not (scalar ty) then error "condition of type %s" (Cty.to_c_string ty);
  e

let type_of_expr env (e : Ast.expr) : Cty.t = snd (elab env e)

(* Elaborate a program, collecting one error per ill-typed expression
   (or declaration) in source order. *)
let elaborate_with env (p : Ast.program) : (Ast.program, string list) result =
  let errors = ref [] in
  let guard f x =
    try f x
    with Error m ->
      errors := m :: !errors;
      x
  in
  let expr e = guard (fun e -> fst (elab env e)) e in
  let test = guard (condition env) in
  (* a value stored in an object of type [dst] *)
  let value what dst =
    guard (fun e ->
        let e, te = rvalue env e in
        check_convertible what ~dst ~src:te;
        e)
  in
  (* an initializer for an object of type [ty]; brace lists that do not
     fit the type are the executors' run-time errors *)
  let rec init ty (i : Ast.init) : Ast.init =
    match (i, ty) with
    | Ast.Iexpr e, _ -> Ast.Iexpr (value "initialization" ty e)
    | Ast.Ilist items, Cty.Array (elt, _) -> Ast.Ilist (List.map (init elt) items)
    | Ast.Ilist items, Cty.Struct s ->
      let fields = try (Cty.lookup_layout env.structs s).lay_fields with Cty.Type_error _ -> [] in
      Ast.Ilist
        (List.mapi
           (fun k item ->
             match List.nth_opt fields k with
             | Some f -> init f.Cty.fld_ty item
             | None -> item)
           items)
    | Ast.Ilist _, _ -> i
  in
  let decl (d : Ast.decl) : Ast.decl =
    ignore (guard (fun ty -> ignore (sizeof env ty); ty) d.d_ty);
    add_var env d.d_name d.d_ty;
    { d with d_init = Option.map (init d.d_ty) d.d_init }
  in
  let rec stmt ~ret (s : Ast.stmt) : Ast.stmt =
    let stmt = stmt ~ret in
    match s with
    | Ast.Sexpr e -> Ast.Sexpr (expr e)
    | Ast.Sdecl ds -> Ast.Sdecl (List.map decl ds)
    | Ast.Sblock ss -> in_scope (fun () -> Ast.Sblock (List.map stmt ss)) env
    | Ast.Sif (c, t, e) ->
      let c = test c in
      let t = stmt t in
      Ast.Sif (c, t, Option.map stmt e)
    | Ast.Swhile (c, b) ->
      let c = test c in
      Ast.Swhile (c, stmt b)
    | Ast.Sdo (b, c) ->
      let b = stmt b in
      Ast.Sdo (b, test c)
    | Ast.Sfor (i, c, u, b) ->
      in_scope
        (fun () ->
          let i = Option.map stmt i in
          let c = Option.map test c in
          let u = Option.map expr u in
          Ast.Sfor (i, c, u, stmt b))
        env
    | Ast.Sreturn (Some e) when ret <> Cty.Void -> Ast.Sreturn (Some (value "return" (Cty.decay ret) e))
    | Ast.Sreturn (Some e) -> Ast.Sreturn (Some (expr e))
    | Ast.Spragma (p, body) -> Ast.Spragma (p, Option.map stmt body)
    | Ast.Sreturn None | Ast.Sbreak | Ast.Scontinue | Ast.Snop -> s
  in
  let p =
    List.map
      (function
        | Ast.Gfun f ->
          let body =
            in_scope
              (fun () ->
                List.iter (fun (n, ty) -> add_var env n ty) f.f_params;
                stmt ~ret:f.f_ret f.f_body)
              env
          in
          Ast.Gfun { f with f_body = body }
        | Ast.Gvar (d, dev) -> Ast.Gvar (decl d, dev)
        | (Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gpragma _) as g -> g)
      p
  in
  match !errors with [] -> Ok p | errs -> Error (List.rev errs)

let elaborate ?cuda (p : Ast.program) : (env * Ast.program, string list) result =
  match of_program ?cuda p with
  | env -> Result.map (fun p -> (env, p)) (elaborate_with env p)
  | exception Cty.Type_error m -> Error [ m ]

let check_program ?cuda (p : Ast.program) : string list =
  match elaborate ?cuda p with Ok _ -> [] | Error errs -> errs
