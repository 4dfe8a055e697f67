(* Scoped symbol table and expression typing for the mini-C AST.  The
   translator uses it to find the types of variables referenced in a
   target region (for map sizes and kernel parameter structs); the
   interpreter uses it for struct layouts. *)

open Machine

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

type env = {
  structs : Cty.layout_env;
  funcs : (string, Cty.t * (string * Cty.t) list) Hashtbl.t;
  globals : (string, Cty.t) Hashtbl.t;
  mutable scopes : (string, Cty.t) Hashtbl.t list;
}

(* Return types of the builtin functions available inside kernels and
   host code; calls to names absent from this table and from the program
   are reported by [check_program]. *)
let builtin_return_types : (string * Cty.t) list =
  [
    ("omp_get_thread_num", Cty.Int);
    ("omp_get_num_threads", Cty.Int);
    ("omp_get_team_num", Cty.Int);
    ("omp_get_num_teams", Cty.Int);
    ("omp_get_num_devices", Cty.Int);
    ("omp_set_default_device", Cty.Void);
    ("omp_get_default_device", Cty.Int);
    ("omp_get_wtime", Cty.Double);
    ("omp_is_initial_device", Cty.Int);
    ("printf", Cty.Int);
    ("malloc", Cty.Ptr Cty.Void);
    ("free", Cty.Void);
    ("sqrt", Cty.Double);
    ("sqrtf", Cty.Float);
    ("fabs", Cty.Double);
    ("fabsf", Cty.Float);
    ("exp", Cty.Double);
    ("expf", Cty.Float);
    ("pow", Cty.Double);
    ("abs", Cty.Int);
    (* cudadev device-library entry points (generated code only) *)
    ("cudadev_in_masterwarp", Cty.Int);
    ("cudadev_is_masterthr", Cty.Int);
    ("cudadev_register_parallel", Cty.Void);
    ("cudadev_workerfunc", Cty.Void);
    ("cudadev_exit_target", Cty.Void);
    ("cudadev_push_shmem", Cty.Ptr Cty.Void);
    ("cudadev_pop_shmem", Cty.Void);
    ("cudadev_getaddr", Cty.Ptr Cty.Void);
    ("cudadev_barrier", Cty.Void);
    ("cudadev_lock", Cty.Void);
    ("cudadev_unlock", Cty.Void);
    ("cudadev_get_distribute_chunk", Cty.Void);
    ("cudadev_get_distribute_cyclic", Cty.Int);
    ("cudadev_get_static_chunk", Cty.Int);
    ("cudadev_get_dynamic_chunk", Cty.Int);
    ("cudadev_get_guided_chunk", Cty.Int);
    ("cudadev_sections_next", Cty.Int);
    ("cudadev_ws_barrier", Cty.Void);
    ("cudadev_reduce_fadd", Cty.Void);
    ("cudadev_reduce_iadd", Cty.Void);
    ("cudadev_reduce_fmul", Cty.Void);
    ("cudadev_reduce_imul", Cty.Void);
    ("cudadev_reduce_fmax", Cty.Void);
    ("cudadev_reduce_fmin", Cty.Void);
    ("cudadev_reduce_imax", Cty.Void);
    ("cudadev_reduce_imin", Cty.Void);
    ("cudadev_reduce_iand", Cty.Void);
    ("cudadev_reduce_ior", Cty.Void);
    ("cudadev_reduce_ixor", Cty.Void);
    ("cudadev_reduce_iland", Cty.Void);
    ("cudadev_reduce_fland", Cty.Void);
    ("cudadev_reduce_flor", Cty.Void);
    ("cudadev_thread_id", Cty.Int);
    (* CUDA intrinsics available to hand-written kernels *)
    ("__syncthreads", Cty.Void);
    ("atomicAdd", Cty.Int);
    ("atomicCAS", Cty.Int);
    ("atomicExch", Cty.Int);
    ("cudadev_team_id", Cty.Int);
    ("cudadev_num_teams", Cty.Int);
    ("cudadev_num_threads", Cty.Int);
  ]

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

(* Collect top-level declarations: struct layouts, function signatures,
   globals.  Does not enter function bodies. *)
let of_program (p : Ast.program) : env =
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
  env

(* The result rules of the operators, shared by [type_of_expr] and the
   closure JIT, which types its compiled expressions with them.  They
   state what both executors compute at run time: the usual arithmetic
   conversions of both operands, comparisons and logical operators of
   type [int], pointer arithmetic keeping the pointer's type; a shift
   has its left operand's promoted type (C11 6.5.7), [-] and [~] their
   operand's promoted type (6.5.3.3), and [++]/[--] keep their
   operand's type. *)
let binop_type (op : Ast.binop) (ta : Cty.t) (tb : Cty.t) : Cty.t =
  match (op, ta, tb) with
  | (Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne | Ast.LogAnd | Ast.LogOr), _, _ -> Cty.Int
  | (Ast.Shl | Ast.Shr), _, _ when Cty.is_integer ta && Cty.is_integer tb -> Cty.promote ta
  | Ast.Sub, Cty.Ptr _, Cty.Ptr _ -> Cty.Long
  | (Ast.Add | Ast.Sub), Cty.Ptr _, _ -> ta
  | (Ast.Add | Ast.Sub), _, Cty.Ptr _ -> tb
  | _ -> Cty.common_arith ta tb

let unop_type (op : Ast.unop) (ta : Cty.t) : Cty.t =
  match op with
  | Ast.Not -> Cty.Int
  | Ast.Neg | Ast.BitNot -> Cty.promote ta
  | Ast.PreInc | Ast.PreDec | Ast.PostInc | Ast.PostDec -> ta

(* [c ? t : f] yields the taken arm's value unconverted, so it has a
   type of its own only when the arms' types agree. *)
let cond_type (tt : Cty.t) (tf : Cty.t) : Cty.t option = if Cty.equal tt tf then Some tt else None

let rec type_of_expr env (e : Ast.expr) : Cty.t =
  match e with
  | Ast.IntLit (_, ty) | Ast.FloatLit (_, ty) -> ty
  | Ast.CharLit _ -> Cty.Int
  | Ast.StrLit _ -> Cty.Ptr Cty.Char
  | Ast.Ident x -> (
    match lookup_var env x with
    | Some ty -> ty
    | None -> (
      match Hashtbl.find_opt env.funcs x with
      | Some (ret, params) -> Cty.Func (ret, List.map snd params, false)
      | None -> error "unbound identifier '%s'" x))
  | Ast.Unop (op, a) -> unop_type op (Cty.decay (type_of_expr env a))
  | Ast.Binop ((Ast.Shl | Ast.Shr), a, _)
    when not (Cty.is_integer (Cty.decay (type_of_expr env a))) ->
    error "shift of non-integer"
  | Ast.Binop (op, a, b) ->
    binop_type op (Cty.decay (type_of_expr env a)) (Cty.decay (type_of_expr env b))
  | Ast.Assign (_, lhs, _) -> Cty.decay (type_of_expr env lhs)
  | Ast.Call (f, _) -> (
    match Hashtbl.find_opt env.funcs f with
    | Some (ret, _) -> ret
    | None -> (
      match List.assoc_opt f builtin_return_types with
      | Some ty -> ty
      | None -> error "call to unknown function '%s'" f))
  | Ast.Index (a, _) -> Cty.pointee (Cty.decay (type_of_expr env a))
  | Ast.Member (a, fld) -> (
    match type_of_expr env a with
    | Cty.Struct s -> (Cty.find_field env.structs s fld).fld_ty
    | ty -> error "member access on non-struct type %s" (Cty.show ty))
  | Ast.Arrow (a, fld) -> (
    match Cty.decay (type_of_expr env a) with
    | Cty.Ptr (Cty.Struct s) -> (Cty.find_field env.structs s fld).fld_ty
    | ty -> error "arrow access on type %s" (Cty.show ty))
  | Ast.Deref a -> Cty.pointee (Cty.decay (type_of_expr env a))
  | Ast.AddrOf a -> Cty.Ptr (type_of_expr env a)
  | Ast.Cast (ty, _) -> ty
  | Ast.SizeofT _ | Ast.SizeofE _ -> Cty.Ulong
  | Ast.Cond (_, t, f) -> (
    let tt = Cty.decay (type_of_expr env t) and tf = Cty.decay (type_of_expr env f) in
    match cond_type tt tf with
    | Some ty -> ty
    | None ->
      (* mixed arms: the static approximation C gives *)
      if Cty.is_arith tt && Cty.is_arith tf then Cty.common_arith tt tf else tt)
  | Ast.Comma (_, b) -> type_of_expr env b

(* Walk a statement, maintaining scopes, and run [f env stmt] at each
   node top-down.  This is the workhorse for translator analyses that
   need typing context at arbitrary program points. *)
let rec walk_stmt env ~(on_stmt : env -> Ast.stmt -> unit) (s : Ast.stmt) : unit =
  on_stmt env s;
  match s with
  | Ast.Sdecl ds -> List.iter (fun (d : Ast.decl) -> add_var env d.d_name d.d_ty) ds
  | Ast.Sblock ss -> in_scope (fun () -> List.iter (walk_stmt env ~on_stmt) ss) env
  | Ast.Sif (_, t, e) ->
    walk_stmt env ~on_stmt t;
    Option.iter (walk_stmt env ~on_stmt) e
  | Ast.Swhile (_, b) | Ast.Sdo (b, _) -> walk_stmt env ~on_stmt b
  | Ast.Sfor (init, _, _, b) ->
    in_scope
      (fun () ->
        Option.iter (walk_stmt env ~on_stmt) init;
        walk_stmt env ~on_stmt b)
      env
  | Ast.Spragma (_, body) -> Option.iter (walk_stmt env ~on_stmt) body
  | Ast.Sexpr _ | Ast.Sreturn _ | Ast.Sbreak | Ast.Scontinue | Ast.Snop -> ()

(* CUDA's implicit device variables, available when checking kernel
   files written against the simulator's CUDA dialect. *)
let cuda_globals = [ "threadIdx"; "blockIdx"; "blockDim"; "gridDim" ]

(* Whole-program check: every expression types, every called function is
   known.  Returns the list of errors (empty = well-typed). *)
let check_program ?(cuda = false) (p : Ast.program) : string list =
  let env = of_program p in
  if cuda then begin
    if not (Cty.has_layout env.structs "dim3") then
      ignore (Cty.define_struct env.structs "dim3" [ ("x", Cty.Int); ("y", Cty.Int); ("z", Cty.Int) ]);
    List.iter (fun v -> Hashtbl.replace env.globals v (Cty.Struct "dim3")) cuda_globals
  end;
  let errors = ref [] in
  let check_expr e = try ignore (type_of_expr env e) with Error m -> errors := m :: !errors in
  let check_stmt env s =
    match s with
    | Ast.Sexpr e -> check_expr e
    | Ast.Sif (c, _, _) | Ast.Swhile (c, _) | Ast.Sdo (_, c) -> check_expr c
    | Ast.Sfor (init, c, u, _) ->
      (* the condition/update may reference a variable declared in the
         init clause, which the scoped walk only adds when recursing *)
      in_scope
        (fun () ->
          (match init with
          | Some (Ast.Sdecl ds) ->
            List.iter (fun (d : Ast.decl) -> add_var env d.d_name d.d_ty) ds
          | _ -> ());
          Option.iter check_expr c;
          Option.iter check_expr u)
        env
    | Ast.Sreturn (Some e) -> check_expr e
    | Ast.Sdecl ds ->
      List.iter
        (fun (d : Ast.decl) ->
          match d.d_init with
          | Some (Ast.Iexpr e) -> check_expr e
          | Some (Ast.Ilist _) | None -> ())
        ds
    | _ -> ()
  in
  List.iter
    (function
      | Ast.Gfun f ->
        in_scope
          (fun () ->
            List.iter (fun (n, ty) -> add_var env n ty) f.f_params;
            walk_stmt env ~on_stmt:check_stmt f.f_body)
          env
      | Ast.Gvar _ | Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
    p;
  List.rev !errors
