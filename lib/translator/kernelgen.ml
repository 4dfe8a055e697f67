(* Kernel construction for target regions (paper §3).

   Two lowering strategies, as in OMPi:
   - combined constructs (target teams distribute parallel for and
     friends) map the iteration space directly onto the grid through the
     device library's chunk calculators (§3.1);
   - any other target body goes through the master/worker transformation
     (§3.2, Fig. 3): the kernel is launched with 128 threads, warp 0's
     lane 0 becomes the master executing sequential code, the other 96
     threads become workers serving parallel regions registered by the
     master. *)

open Machine
open Minic

exception Unsupported = Region.Unsupported

let unsupported = Region.unsupported

type mode = Combined | Masterworker [@@deriving show { with_path = false }, eq]

type kernel = {
  k_entry : string; (* kernel function and file name *)
  k_program : Ast.program; (* the generated kernel file *)
  k_params : Region.mapped_var list; (* in kernel-parameter order *)
  k_teams : Ast.expr; (* host-side num_teams expression *)
  k_threads : Ast.expr; (* host-side num_threads expression *)
  k_mode : mode;
}

type gen = {
  g_env : Typecheck.env; (* typing context at the target directive *)
  g_program : Ast.program; (* enclosing program, for the call graph *)
  mutable g_fresh : int;
  mutable g_aux : Ast.global list; (* thread funcs, vars structs, lock words *)
}

let fresh g =
  g.g_fresh <- g.g_fresh + 1;
  g.g_fresh

let mw_block_threads = 128 (* fixed launch size for master/worker kernels (§4.2.2) *)

(* ---------------------------------------------------------------- *)
(* Clause helpers                                                     *)
(* ---------------------------------------------------------------- *)

let clause_num_teams dir = Ast.find_clause dir (function Ast.Cnum_teams e -> Some e | _ -> None)

let clause_num_threads dir =
  Ast.find_clause dir (function Ast.Cnum_threads e -> Some e | _ -> None)

let clause_schedule dir =
  Ast.find_clause dir (function Ast.Cschedule (k, c) -> Some (k, c) | _ -> None)

let clause_collapse dir = Ast.find_clause dir (function Ast.Ccollapse n -> Some n | _ -> None)

let clause_reductions dir =
  List.concat_map
    (function Ast.Creduction (op, vars) -> List.map (fun v -> (v, op)) vars | _ -> [])
    dir.Ast.dir_clauses

let clause_privates dir =
  List.concat_map (function Ast.Cprivate vs -> vs | _ -> []) dir.Ast.dir_clauses

let clause_firstprivates dir =
  List.concat_map (function Ast.Cfirstprivate vs -> vs | _ -> []) dir.Ast.dir_clauses

let has_nowait dir = List.mem Ast.Cnowait dir.Ast.dir_clauses

(* ---------------------------------------------------------------- *)
(* Reductions                                                         *)
(* ---------------------------------------------------------------- *)

let reduction_identity (op : Ast.reduction_op) (ty : Cty.t) : Ast.expr =
  let is_f = Cty.is_float ty in
  match op with
  | Ast.Rd_add | Ast.Rd_lor | Ast.Rd_bor | Ast.Rd_bxor ->
    if is_f then Ast.FloatLit (0.0, ty) else Ast.int_lit 0
  | Ast.Rd_mul | Ast.Rd_land -> if is_f then Ast.FloatLit (1.0, ty) else Ast.int_lit 1
  | Ast.Rd_max ->
    if is_f then Ast.FloatLit (-3.0e38, ty) else Ast.IntLit (Int64.of_int32 Int32.min_int, Cty.Int)
  | Ast.Rd_min ->
    if is_f then Ast.FloatLit (3.0e38, ty) else Ast.IntLit (Int64.of_int32 Int32.max_int, Cty.Int)
  | Ast.Rd_band -> Ast.IntLit (-1L, Cty.Int)

let reduction_builtin (op : Ast.reduction_op) (ty : Cty.t) : string =
  let f = Cty.is_float ty in
  match op with
  | Ast.Rd_add -> if f then "cudadev_reduce_fadd" else "cudadev_reduce_iadd"
  | Ast.Rd_mul -> if f then "cudadev_reduce_fmul" else "cudadev_reduce_imul"
  | Ast.Rd_max -> if f then "cudadev_reduce_fmax" else "cudadev_reduce_imax"
  | Ast.Rd_min -> if f then "cudadev_reduce_fmin" else "cudadev_reduce_imin"
  | Ast.Rd_band -> "cudadev_reduce_iand"
  | Ast.Rd_bor -> "cudadev_reduce_ior"
  | Ast.Rd_lor -> if f then "cudadev_reduce_flor" else "cudadev_reduce_ior"
  | Ast.Rd_bxor -> "cudadev_reduce_ixor"
  | Ast.Rd_land -> if f then "cudadev_reduce_fland" else "cudadev_reduce_iland"

(* One pairwise combining step of the shared-memory tree. *)
let reduction_combine (op : Ast.reduction_op) (a : Ast.expr) (b : Ast.expr) : Ast.expr =
  match op with
  | Ast.Rd_add -> Ast.add a b
  | Ast.Rd_mul -> Ast.mul a b
  | Ast.Rd_max -> Ast.Cond (Ast.lt a b, b, a)
  | Ast.Rd_min -> Ast.Cond (Ast.lt b a, b, a)
  | Ast.Rd_band -> Ast.Binop (Ast.BitAnd, a, b)
  | Ast.Rd_bor -> Ast.Binop (Ast.BitOr, a, b)
  | Ast.Rd_bxor -> Ast.Binop (Ast.BitXor, a, b)
  | Ast.Rd_land -> Ast.Binop (Ast.LogAnd, a, b)
  | Ast.Rd_lor -> Ast.Binop (Ast.LogOr, a, b)

(* ---------------------------------------------------------------- *)
(* Worksharing-loop lowering                                          *)
(* ---------------------------------------------------------------- *)

let decl_int ?init name = Ast.Sdecl [ Ast.mk_decl ?init name Cty.Int ]

let addr_of name = Ast.AddrOf (Ast.Ident name)

(* ---------------------------------------------------------------- *)
(* Shared-memory tree reduction                                       *)
(* ---------------------------------------------------------------- *)

(* Static size of the per-team slot arrays; covers any block size the
   device spec admits (max_threads_per_block = 1024 on the Nano). *)
let reduce_slots = 1024

(* The classic CUDA log-step reduce, emitted once per construct that
   carries reduction clauses: every thread parks its private
   accumulator [_red_v] in its team-shared slot, the team combines
   slots pairwise — stride halving from the next power of two, a team
   barrier between levels, the [tid + s < n] guard covering
   non-power-of-two team sizes — and thread 0 alone publishes the
   team's partial value into the reduction target with a single
   atomic.  All reduction variables of the construct ride the same
   barrier ladder.  [target_of] yields the device pointer the combined
   value is published to; [uniq] keeps slot arrays of distinct
   parallel regions in one kernel apart. *)
let tree_reduce ?(uniq = "") (reductions : (string * Ast.reduction_op) list)
    ~(ty_of : string -> Cty.t) ~(target_of : string -> Ast.expr) : Ast.stmt list =
  if reductions = [] then []
  else begin
    let tid = "_rtid" ^ uniq and num = "_rnum" ^ uniq and s = "_rs" ^ uniq in
    let sh name = Printf.sprintf "_redsh%s_%s" uniq name in
    let slot name i = Ast.Index (Ast.ident (sh name), i) in
    let barrier = Ast.expr_stmt (Ast.call "cudadev_barrier" [ Ast.int_lit 0 ]) in
    let half e = Ast.Sexpr (Ast.assign e (Ast.Binop (Ast.Div, e, Ast.int_lit 2))) in
    List.map
      (fun (name, _) ->
        Ast.Sdecl [ Ast.mk_decl ~shared:true (sh name) (Cty.Array (ty_of name, Some reduce_slots)) ])
      reductions
    @ [
        decl_int ~init:(Ast.Iexpr (Ast.call "omp_get_thread_num" [])) tid;
        decl_int ~init:(Ast.Iexpr (Ast.call "omp_get_num_threads" [])) num;
      ]
    @ List.map
        (fun (name, _) ->
          Ast.expr_stmt (Ast.assign (slot name (Ast.ident tid)) (Ast.ident ("_red_" ^ name))))
        reductions
    @ [
        barrier;
        (* s = next power of two >= num, then halve into the first stride *)
        decl_int ~init:(Ast.Iexpr (Ast.int_lit 1)) s;
        Ast.Swhile
          ( Ast.lt (Ast.ident s) (Ast.ident num),
            Ast.Sexpr (Ast.assign (Ast.ident s) (Ast.mul (Ast.ident s) (Ast.int_lit 2))) );
        half (Ast.ident s);
        Ast.Swhile
          ( Ast.Binop (Ast.Gt, Ast.ident s, Ast.int_lit 0),
            Ast.Sblock
              [
                Ast.Sif
                  ( Ast.Binop
                      ( Ast.LogAnd,
                        Ast.lt (Ast.ident tid) (Ast.ident s),
                        Ast.lt (Ast.add (Ast.ident tid) (Ast.ident s)) (Ast.ident num) ),
                    Ast.Sblock
                      (List.map
                         (fun (name, op) ->
                           Ast.expr_stmt
                             (Ast.assign
                                (slot name (Ast.ident tid))
                                (reduction_combine op
                                   (slot name (Ast.ident tid))
                                   (slot name (Ast.add (Ast.ident tid) (Ast.ident s))))))
                         reductions),
                    None );
                barrier;
                half (Ast.ident s);
              ] );
        Ast.Sif
          ( Ast.Binop (Ast.Eq, Ast.ident tid, Ast.int_lit 0),
            Ast.Sblock
              (List.map
                 (fun (name, op) ->
                   Ast.expr_stmt
                     (Ast.call (reduction_builtin op (ty_of name))
                        [ target_of name; slot name (Ast.int_lit 0) ]))
                 reductions),
            None );
      ]
  end

(* Hoist non-trivial loop bounds and per-dimension extents into local
   variables: the common-subexpression elimination a production compiler
   performs, which keeps the per-thread cost of the chunk machinery
   small.  Returns the declarations, the rewritten nest and the extent
   expressions to reuse. *)
let hoist_nest g (loops : Loops.canon list) : Ast.stmt list * Loops.canon list * Ast.expr list =
  let id = fresh g in
  let decls = ref [] in
  let simple = function Ast.IntLit _ | Ast.Ident _ -> true | _ -> false in
  let hoist tag i e =
    if simple e then e
    else begin
      let name = Printf.sprintf "_%s%d_%d" tag id i in
      decls := !decls @ [ decl_int ~init:(Ast.Iexpr e) name ];
      Ast.ident name
    end
  in
  let loops =
    List.mapi
      (fun i (c : Loops.canon) ->
        {
          c with
          Loops.cl_lb = hoist "lb" i c.Loops.cl_lb;
          cl_ub = hoist "ub" i c.Loops.cl_ub;
          cl_step = hoist "st" i c.Loops.cl_step;
        })
      loops
  in
  let extents = List.mapi (fun i c -> hoist "ext" i (Loops.extent c)) loops in
  (!decls, loops, extents)

(* Emit the statements executing iterations [lo, hi) of the flattened
   nest, distributed over the current team's threads according to the
   schedule.  [recover body] wraps the loop body with the original index
   declarations. *)
let lower_thread_loop g ~(sched : Ast.sched_kind * Ast.expr option) ~(loops : Loops.canon list)
    ?(extents : Ast.expr list option) ~(body : Ast.stmt) ~(lo : Ast.expr) ~(hi : Ast.expr) () :
    Ast.stmt list * int option =
  let id = fresh g in
  let it = Printf.sprintf "_it%d" id in
  (* Iterations of a contiguous chunk: recover the original loop indices
     from the flat start with div/mod once, then maintain them by a
     carry chain in the loop update (strength reduction a production
     compiler performs for collapsed nests). *)
  let inner_for lo hi =
    let inits, carry = Loops.incremental_recovery ?extents loops ~flat_start:lo in
    let update =
      match carry with
      | Some c -> Ast.Comma (Ast.Unop (Ast.PostInc, Ast.ident it), c)
      | None -> Ast.Unop (Ast.PostInc, Ast.ident it)
    in
    (* the guard protects the div/mod recovery from empty chunks *)
    Ast.Sif
      ( Ast.lt lo hi,
        Ast.Sblock
          (inits
          @ [
              Ast.Sfor
                ( Some (decl_int ~init:(Ast.Iexpr lo) it),
                  Some (Ast.lt (Ast.ident it) hi),
                  Some update,
                  body );
            ]),
        None )
  in
  match sched with
  | Ast.Sch_static, None | Ast.Sch_auto, None | Ast.Sch_runtime, None ->
    let tlb = Printf.sprintf "_tlb%d" id and tub = Printf.sprintf "_tub%d" id in
    ( [
        decl_int tlb;
        decl_int tub;
        Ast.expr_stmt (Ast.call "cudadev_get_static_chunk" [ addr_of tlb; addr_of tub; lo; hi ]);
        inner_for (Ast.ident tlb) (Ast.ident tub);
      ],
      None )
  | (Ast.Sch_static | Ast.Sch_auto | Ast.Sch_runtime), Some chunk ->
    let k = Printf.sprintf "_k%d" id and clb = Printf.sprintf "_clb%d" id and cub = Printf.sprintf "_cub%d" id in
    ( [
        Ast.Sfor
          ( Some (decl_int ~init:(Ast.Iexpr (Ast.int_lit 0)) k),
            None,
            Some (Ast.Unop (Ast.PostInc, Ast.ident k)),
            Ast.Sblock
              [
                decl_int
                  ~init:
                    (Ast.Iexpr
                       (Ast.add lo
                          (Ast.mul
                             (Ast.add
                                (Ast.mul (Ast.ident k) (Ast.call "omp_get_num_threads" []))
                                (Ast.call "omp_get_thread_num" []))
                             chunk)))
                  clb;
                Ast.Sif (Ast.Binop (Ast.Ge, Ast.ident clb, hi), Ast.Sbreak, None);
                decl_int ~init:(Ast.Iexpr (Ast.add (Ast.ident clb) chunk)) cub;
                Ast.Sif
                  (Ast.Binop (Ast.Gt, Ast.ident cub, hi), Ast.Sexpr (Ast.assign (Ast.ident cub) hi), None);
                inner_for (Ast.ident clb) (Ast.ident cub);
              ] );
      ],
      None )
  | Ast.Sch_dynamic, chunk ->
    let chunk = Option.value chunk ~default:(Ast.int_lit 1) in
    let clb = Printf.sprintf "_clb%d" id and cub = Printf.sprintf "_cub%d" id in
    ( [
        decl_int clb;
        decl_int cub;
        Ast.Swhile
          ( Ast.call "cudadev_get_dynamic_chunk"
              [ Ast.int_lit id; chunk; lo; hi; addr_of clb; addr_of cub ],
            Ast.Sblock [ inner_for (Ast.ident clb) (Ast.ident cub) ] );
      ],
      Some id )
  | Ast.Sch_guided, chunk ->
    let chunk = Option.value chunk ~default:(Ast.int_lit 1) in
    let clb = Printf.sprintf "_clb%d" id and cub = Printf.sprintf "_cub%d" id in
    ( [
        decl_int clb;
        decl_int cub;
        Ast.Swhile
          ( Ast.call "cudadev_get_guided_chunk"
              [ Ast.int_lit id; chunk; lo; hi; addr_of clb; addr_of cub ],
            Ast.Sblock [ inner_for (Ast.ident clb) (Ast.ident cub) ] );
      ],
      Some id )

(* ---------------------------------------------------------------- *)
(* Scalar-parameter substitution                                      *)
(* ---------------------------------------------------------------- *)

(* Region references to mapped scalars become dereferences of the kernel
   parameter; reduction variables instead use a thread-private
   accumulator.  Read-only scalars (map(to:), which includes all
   implicit scalars) are pre-loaded into a local copy at region entry so
   that hot loops do not re-read them from device global memory — the
   register promotion a real compiler performs. *)
let scalar_subst (params : Region.mapped_var list) (reductions : (string * Ast.reduction_op) list) :
    (string * Ast.expr) list * Ast.stmt list =
  let subst = ref [] and prologue = ref [] in
  List.iter
    (fun (mv : Region.mapped_var) ->
      let name = mv.Region.mv_name in
      if List.mem_assoc name reductions then subst := (name, Ast.ident ("_red_" ^ name)) :: !subst
      else if mv.Region.mv_scalar then
        match mv.Region.mv_map with
        | Ast.Map_to | Ast.Map_alloc ->
          let local = "_loc_" ^ name in
          subst := (name, Ast.ident local) :: !subst;
          prologue :=
            Ast.Sdecl
              [ Ast.mk_decl ~init:(Ast.Iexpr (Ast.Deref (Ast.ident name))) local mv.Region.mv_host_ty ]
            :: !prologue
        | Ast.Map_from | Ast.Map_tofrom ->
          subst := (name, Ast.Deref (Ast.ident name)) :: !subst)
    params;
  (List.rev !subst, List.rev !prologue)

let reduction_prologue_epilogue (params : Region.mapped_var list)
    (reductions : (string * Ast.reduction_op) list) : Ast.stmt list * Ast.stmt list =
  let ty_of name =
    match List.find_opt (fun mv -> mv.Region.mv_name = name) params with
    | Some mv when mv.Region.mv_scalar -> mv.Region.mv_host_ty
    | Some _ -> unsupported "reduction variable '%s' must be a scalar" name
    | None -> unsupported "reduction variable '%s' is not mapped into the region" name
  in
  let pro =
    List.map
      (fun (name, op) ->
        let ty = ty_of name in
        Ast.Sdecl [ Ast.mk_decl ~init:(Ast.Iexpr (reduction_identity op ty)) ("_red_" ^ name) ty ])
      reductions
  in
  (* the reduction variable's kernel parameter is the device pointer *)
  let epi = tree_reduce reductions ~ty_of ~target_of:(fun name -> Ast.ident name) in
  (pro, epi)

(* ---------------------------------------------------------------- *)
(* Call graph (paper §3: inject called functions into the kernel file) *)
(* ---------------------------------------------------------------- *)

let calls_in_stmt (s : Ast.stmt) : string list =
  let acc = ref [] in
  Ast.iter_stmt
    ~on_expr:(function
      | Ast.Call (f, _) -> if not (List.mem f !acc) then acc := f :: !acc
      | _ -> ())
    ~on_stmt:(fun _ -> ())
    s;
  List.rev !acc

let calls_in_fundef (f : Ast.fundef) = calls_in_stmt f.Ast.f_body

(* Transitive closure of functions called from the kernel code that are
   defined in the host program. *)
let callgraph_functions (g : gen) (roots : Ast.stmt list) : Ast.fundef list =
  let defined = Hashtbl.create 16 in
  List.iter
    (function Ast.Gfun f -> Hashtbl.replace defined f.Ast.f_name f | _ -> ())
    g.g_program;
  let included = ref [] in
  let rec visit name =
    if
      (not (List.exists (fun f -> f.Ast.f_name = name) !included))
      && Typecheck.builtin_signature name = None
    then
      match Hashtbl.find_opt defined name with
      | Some f ->
        included := f :: !included;
        List.iter visit (calls_in_fundef f)
      | None -> unsupported "function '%s' called inside a target region has no visible definition" name
  in
  List.iter (fun s -> List.iter visit (calls_in_stmt s)) roots;
  List.rev !included

(* ---------------------------------------------------------------- *)
(* Combined-construct kernels (§3.1)                                  *)
(* ---------------------------------------------------------------- *)

(* Default number of threads per block when no num_threads clause is
   given; 128 matches the core count of the Nano's SM. *)
let default_threads = 128

let build_combined g ~(name : string) (dir : Ast.directive) (loop_stmt : Ast.stmt) ~(with_teams : bool)
    ~(with_parallel_for : bool)
    ~(lower_nested : (string * Ast.expr) list -> Ast.stmt -> Ast.stmt) : kernel =
  let collapse = Option.value (clause_collapse dir) ~default:1 in
  let loops, body = Loops.analyze_nest collapse loop_stmt in
  let loop_vars = List.map (fun (c : Loops.canon) -> c.Loops.cl_var) loops in
  let referenced =
    List.filter (fun v -> not (List.mem v loop_vars)) (Subst.free_vars (Ast.Sblock [ loop_stmt ]))
  in
  let params = Region.plan g.g_env dir ~referenced in
  let reductions = clause_reductions dir in
  let subst, scalar_prologue = scalar_subst params reductions in
  let sub_e e = Subst.subst_expr_assoc subst e in
  let body = lower_nested subst (Subst.subst_assoc subst body) in
  let loops =
    List.map
      (fun (c : Loops.canon) ->
        { c with Loops.cl_lb = sub_e c.Loops.cl_lb; cl_ub = sub_e c.Loops.cl_ub; cl_step = sub_e c.Loops.cl_step })
      loops
  in
  let hoist_decls, loops, extents = hoist_nest g loops in
  let total = Loops.total_extent ~extents loops in
  let red_pro, red_epi = reduction_prologue_epilogue params reductions in
  let sched = Option.value (clause_schedule dir) ~default:(Ast.Sch_static, None) in
  let dist_schedule =
    Ast.find_clause dir (function Ast.Cdist_schedule (k, c) -> Some (k, c) | _ -> None)
  in
  (match (dist_schedule, sched) with
  | Some (_, Some _), ((Ast.Sch_dynamic | Ast.Sch_guided), _) ->
    unsupported "dist_schedule(static, c) combined with a dynamic/guided schedule is not supported"
  | _ -> ());
  let kernel_stmts =
    if with_parallel_for then begin
      if with_teams then begin
        let dlb = "_dlb" and dub = "_dub" in
        let loop_stmts, _rid =
          lower_thread_loop g ~sched ~loops ~extents ~body ~lo:(Ast.ident dlb) ~hi:(Ast.ident dub) ()
        in
        match dist_schedule with
        | Some (Ast.Sch_static, Some chunk) ->
          (* dist_schedule(static, c): the team walks its block-cyclic
             chunks; the thread-level schedule applies within each.  The
             reduction accumulator lives outside the chunk loop — one
             tree combine per team, not one per chunk — which is safe
             because every thread of the team sees the same chunk
             sequence (the cyclic walk depends only on the team id). *)
          let dk = "_dk" in
          hoist_decls
          @ [ decl_int dlb; decl_int dub ]
          @ red_pro
          @ [
              Ast.Sfor
                ( Some (decl_int ~init:(Ast.Iexpr (Ast.int_lit 0)) dk),
                  Some
                    (Ast.call "cudadev_get_distribute_cyclic"
                       [ Ast.ident dk; chunk; Ast.int_lit 0; total; addr_of dlb; addr_of dub ]),
                  Some (Ast.Unop (Ast.PostInc, Ast.ident dk)),
                  Ast.Sblock loop_stmts );
            ]
          @ red_epi
        | Some _ | None ->
          hoist_decls
          @ [
              decl_int dlb;
              decl_int dub;
              Ast.expr_stmt
                (Ast.call "cudadev_get_distribute_chunk" [ addr_of dlb; addr_of dub; Ast.int_lit 0; total ]);
            ]
          @ red_pro @ loop_stmts @ red_epi
      end
      else begin
        let loop_stmts, _rid =
          lower_thread_loop g ~sched ~loops ~extents ~body ~lo:(Ast.int_lit 0) ~hi:total ()
        in
        hoist_decls @ red_pro @ loop_stmts @ red_epi
      end
    end
    else begin
      (* target teams distribute: the team master alone runs its chunk *)
      let dlb = "_dlb" and dub = "_dub" in
      let it = "_it" in
      let inits, carry = Loops.incremental_recovery ~extents loops ~flat_start:(Ast.ident dlb) in
      let update =
        match carry with
        | Some c -> Ast.Comma (Ast.Unop (Ast.PostInc, Ast.ident it), c)
        | None -> Ast.Unop (Ast.PostInc, Ast.ident it)
      in
      hoist_decls
      @ [
          decl_int dlb;
          decl_int dub;
          Ast.expr_stmt
            (Ast.call "cudadev_get_distribute_chunk" [ addr_of dlb; addr_of dub; Ast.int_lit 0; total ]);
        ]
      @ red_pro
      @ [
          Ast.Sif
            ( Ast.lt (Ast.ident dlb) (Ast.ident dub),
              Ast.Sblock
                (inits
                @ [
                    Ast.Sfor
                      ( Some (decl_int ~init:(Ast.Iexpr (Ast.ident dlb)) it),
                        Some (Ast.lt (Ast.ident it) (Ast.ident dub)),
                        Some update,
                        body );
                  ]),
              None );
        ]
      @ red_epi
    end
  in
  let entry_params =
    List.map (fun (mv : Region.mapped_var) -> (mv.Region.mv_name, mv.Region.mv_param_ty)) params
  in
  let entry =
    {
      Ast.f_name = name;
      f_ret = Cty.Void;
      f_params = entry_params;
      f_body = Ast.Sblock (scalar_prologue @ kernel_stmts);
      f_static = false;
      f_device = true;
    }
  in
  let aux_fns = callgraph_functions g [ entry.Ast.f_body ] in
  let structs = List.filter (function Ast.Gstruct _ -> true | _ -> false) g.g_program in
  let program = structs @ g.g_aux @ List.map (fun f -> Ast.Gfun f) aux_fns @ [ Ast.Gfun entry ] in
  (* host-side geometry *)
  let threads =
    match clause_num_threads dir with
    | Some e -> e
    | None -> Ast.int_lit default_threads
  in
  (* thread_limit caps the team size at run time *)
  let threads =
    match Ast.find_clause dir (function Ast.Cthread_limit e -> Some e | _ -> None) with
    | Some limit -> Ast.Cond (Ast.lt threads limit, threads, limit)
    | None -> threads
  in
  let teams =
    if not with_teams then Ast.int_lit 1
    else
      match clause_num_teams dir with
      | Some e -> e
      | None ->
        (* one iteration per thread by default: ceil(total / threads) *)
        let total_host = Loops.total_extent (List.map (fun c -> c) loops) in
        (* careful: [loops] bounds were substituted for the kernel; the
           host needs the original expressions.  Re-analyze. *)
        ignore total_host;
        let orig_loops, _ = Loops.analyze_nest collapse loop_stmt in
        let t = Loops.total_extent orig_loops in
        Ast.Binop (Ast.Div, Ast.sub (Ast.add t threads) (Ast.int_lit 1), threads)
  in
  (* target teams distribute without parallel for: only the team master
     executes, so launch one thread per team instead of a full block of
     threads redundantly running the same chunk (which would also
     multiply reduction contributions). *)
  let threads = if with_parallel_for then threads else Ast.int_lit 1 in
  {
    k_entry = name;
    k_program = program;
    k_params = params;
    k_teams = teams;
    k_threads = threads;
    k_mode = Combined;
  }

(* ---------------------------------------------------------------- *)
(* Master/worker kernels (§3.2, Fig. 3)                               *)
(* ---------------------------------------------------------------- *)

(* Classification of a variable shared with a parallel region. *)
type shared_kind =
  | Sh_param of Region.mapped_var (* kernel parameter: pointer copied by value *)
  | Sh_local of Cty.t (* master-local variable: staged through shared memory *)

let find_param params name = List.find_opt (fun mv -> mv.Region.mv_name = name) params

let lock_global_name tag = "_ompi_lock_" ^ tag

let ensure_lock_global g tag =
  let name = lock_global_name tag in
  let exists =
    List.exists (function Ast.Gvar (d, _) -> d.Ast.d_name = name | _ -> false) g.g_aux
  in
  if not exists then g.g_aux <- g.g_aux @ [ Ast.Gvar (Ast.mk_decl name Cty.Int, true) ];
  name

(* Lower worksharing constructs appearing inside a parallel region body
   (executed by the region's threads). *)
let rec lower_parallel_body g (subst : (string * Ast.expr) list) (s : Ast.stmt) : Ast.stmt =
  match s with
  | Ast.Spragma (Ast.Omp dir, body) -> lower_ws_directive g subst dir body
  | Ast.Sblock ss -> Ast.Sblock (List.map (lower_parallel_body g subst) ss)
  | Ast.Sif (c, t, e) ->
    Ast.Sif (c, lower_parallel_body g subst t, Option.map (lower_parallel_body g subst) e)
  | Ast.Swhile (c, b) -> Ast.Swhile (c, lower_parallel_body g subst b)
  | Ast.Sdo (b, c) -> Ast.Sdo (lower_parallel_body g subst b, c)
  | Ast.Sfor (i, c, u, b) -> Ast.Sfor (i, c, u, lower_parallel_body g subst b)
  | s -> s

and lower_ws_directive g subst (dir : Ast.directive) (body : Ast.stmt option) : Ast.stmt =
  let sub_clause_e e = Subst.subst_expr_assoc subst e in
  match (dir.Ast.dir_constructs, body) with
  | [ Ast.C_barrier ], None -> Ast.expr_stmt (Ast.call "cudadev_barrier" [ Ast.int_lit 0 ])
  | [ Ast.C_atomic ], Some body -> (
    (* atomic update: x op= e becomes a hardware atomic where the device
       runtime has one; other statements fall back to the CAS lock *)
    match body with
    | Ast.Sexpr (Ast.Assign (Some Ast.Add, lhs, rhs)) ->
      Ast.expr_stmt (Ast.call "atomicAdd" [ Ast.AddrOf lhs; rhs ])
    | Ast.Sexpr (Ast.Assign (Some Ast.Sub, lhs, rhs)) ->
      Ast.expr_stmt (Ast.call "atomicAdd" [ Ast.AddrOf lhs; Ast.Unop (Ast.Neg, rhs) ])
    | body ->
      let lock = ensure_lock_global g "atomic" in
      Ast.Sblock
        [
          Ast.expr_stmt (Ast.call "cudadev_lock" [ addr_of lock ]);
          body;
          Ast.expr_stmt (Ast.call "cudadev_unlock" [ addr_of lock ]);
        ])
  | [ Ast.C_for ], Some loop_stmt ->
    let collapse = Option.value (clause_collapse dir) ~default:1 in
    let loops, lbody = Loops.analyze_nest collapse loop_stmt in
    let lbody = lower_parallel_body g subst lbody in
    let sched = Option.value (clause_schedule dir) ~default:(Ast.Sch_static, None) in
    let sched = (fst sched, Option.map sub_clause_e (snd sched)) in
    let hoist_decls, loops, extents = hoist_nest g loops in
    let total = Loops.total_extent ~extents loops in
    let stmts, rid =
      lower_thread_loop g ~sched ~loops ~extents ~body:lbody ~lo:(Ast.int_lit 0) ~hi:total ()
    in
    let stmts = hoist_decls @ stmts in
    let closing =
      if has_nowait dir then []
      else
        match rid with
        | Some rid -> [ Ast.expr_stmt (Ast.call "cudadev_ws_barrier" [ Ast.int_lit rid; Ast.int_lit 0 ]) ]
        | None -> [ Ast.expr_stmt (Ast.call "cudadev_barrier" [ Ast.int_lit 0 ]) ]
    in
    Ast.Sblock (stmts @ closing)
  | [ Ast.C_sections ], Some body ->
    let sections =
      match body with
      | Ast.Sblock ss ->
        List.map
          (function
            | Ast.Spragma (Ast.Omp { Ast.dir_constructs = [ Ast.C_section ]; _ }, Some b) ->
              lower_parallel_body g subst b
            | s -> lower_parallel_body g subst s)
          ss
      | s -> [ lower_parallel_body g subst s ]
    in
    let rid = fresh g in
    let sv = Printf.sprintf "_sec%d" rid in
    let dispatch =
      List.mapi (fun i s -> (i, s)) sections
      |> List.rev
      |> List.fold_left
           (fun acc (i, s) ->
             Some
               (Ast.Sif (Ast.Binop (Ast.Eq, Ast.ident sv, Ast.int_lit i), s, acc)))
           None
      |> Option.value ~default:Ast.Snop
    in
    let loop =
      Ast.Swhile
        ( Ast.Binop
            ( Ast.Ge,
              Ast.assign (Ast.ident sv)
                (Ast.call "cudadev_sections_next" [ Ast.int_lit rid; Ast.int_lit (List.length sections) ]),
              Ast.int_lit 0 ),
          Ast.Sblock [ dispatch ] )
    in
    let closing =
      if has_nowait dir then []
      else [ Ast.expr_stmt (Ast.call "cudadev_ws_barrier" [ Ast.int_lit rid; Ast.int_lit 0 ]) ]
    in
    Ast.Sblock ((decl_int sv :: [ loop ]) @ closing)
  | [ Ast.C_single ], Some body ->
    let body = lower_parallel_body g subst body in
    let guarded =
      Ast.Sif (Ast.Binop (Ast.Eq, Ast.call "omp_get_thread_num" [], Ast.int_lit 0), body, None)
    in
    if has_nowait dir then guarded
    else Ast.Sblock [ guarded; Ast.expr_stmt (Ast.call "cudadev_barrier" [ Ast.int_lit 0 ]) ]
  | [ Ast.C_master ], Some body ->
    Ast.Sif
      ( Ast.Binop (Ast.Eq, Ast.call "omp_get_thread_num" [], Ast.int_lit 0),
        lower_parallel_body g subst body,
        None )
  | [ Ast.C_critical name ], Some body ->
    let tag = match name with Some n -> n | None -> "default" in
    let lock = ensure_lock_global g tag in
    Ast.Sblock
      [
        Ast.expr_stmt (Ast.call "cudadev_lock" [ addr_of lock ]);
        lower_parallel_body g subst body;
        Ast.expr_stmt (Ast.call "cudadev_unlock" [ addr_of lock ]);
      ]
  | constructs, _ when List.mem Ast.C_parallel constructs ->
    unsupported "nested parallel regions inside a device parallel region are not supported"
  | constructs, _ ->
    unsupported "construct '%s' is not supported inside a device parallel region"
      (String.concat " " (List.map Pretty.construct_str constructs))

(* Generate the master-side code and the thread function for one
   standalone parallel region (Fig. 3b). *)
let gen_parallel g (params : Region.mapped_var list) (locals : (string * Cty.t) list)
    (scalar_sub : (string * Ast.expr) list) (dir : Ast.directive) (pbody : Ast.stmt) : Ast.stmt =
  let id = fresh g in
  let struct_name = Printf.sprintf "_vars_st%d" id in
  let thr_name = Printf.sprintf "_thrFunc%d" id in
  let vars = "_vars" in
  let privates = clause_privates dir in
  let firstprivates = clause_firstprivates dir in
  let reductions = clause_reductions dir in
  let red_names = List.map fst reductions in
  (* The region body may itself be a combined parallel-for. *)
  let is_parallel_for = List.mem Ast.C_for dir.Ast.dir_constructs in
  let loop_vars =
    if is_parallel_for then begin
      let collapse = Option.value (clause_collapse dir) ~default:1 in
      let loops, _ = Loops.analyze_nest collapse pbody in
      List.map (fun (c : Loops.canon) -> c.Loops.cl_var) loops
    end
    else []
  in
  let free = Subst.free_vars pbody in
  let shared =
    List.filter
      (fun v ->
        (not (List.mem v privates)) && (not (List.mem v firstprivates)) && (not (List.mem v loop_vars))
        && not (List.mem v red_names))
      free
  in
  let var_ty v =
    match (find_param params v, List.assoc_opt v locals) with
    | Some mv, _ -> Some (`Param mv)
    | None, Some ty -> Some (`Local ty)
    | None, None -> None
  in
  let classified =
    List.filter_map
      (fun v ->
        match var_ty v with
        | Some (`Param mv) -> Some (v, Sh_param mv)
        | Some (`Local ty) -> Some (v, Sh_local ty)
        | None -> None (* device global or function: accessible directly *))
      shared
  in
  (* struct fields *)
  let fields =
    List.map
      (fun (v, kind) ->
        match kind with
        | Sh_param mv -> (v, mv.Region.mv_param_ty)
        | Sh_local ty -> (v, Cty.Ptr ty))
      classified
    @ List.filter_map
        (fun v ->
          match var_ty v with
          | Some (`Param mv) when mv.Region.mv_scalar -> Some (v, mv.Region.mv_host_ty)
          | Some (`Local ty) -> Some (v, ty)
          | Some (`Param _) -> unsupported "firstprivate on aggregate '%s' is not supported" v
          | None -> unsupported "firstprivate variable '%s' not found" v)
        firstprivates
    @ List.filter_map
        (fun v ->
          (* reduction targets travel as pointers *)
          match var_ty v with
          | Some (`Param mv) when mv.Region.mv_scalar -> Some (v, Cty.Ptr mv.Region.mv_host_ty)
          | Some (`Local ty) -> Some (v, Cty.Ptr ty)
          | _ -> unsupported "reduction variable '%s' not found" v)
        red_names
  in
  g.g_aux <- g.g_aux @ [ Ast.Gstruct (struct_name, fields) ];
  (* master-side field initialisation *)
  let inits, pops =
    List.split
      (List.map
         (fun (v, kind) ->
           match kind with
           | Sh_param _ ->
             ( Ast.expr_stmt
                 (Ast.assign (Ast.Member (Ast.ident vars, v)) (Ast.call "cudadev_getaddr" [ Ast.ident v ])),
               [] )
           | Sh_local ty ->
             ( Ast.expr_stmt
                 (Ast.assign
                    (Ast.Member (Ast.ident vars, v))
                    (Ast.Cast (Cty.Ptr ty, Ast.call "cudadev_push_shmem" [ addr_of v; Ast.SizeofE (Ast.ident v) ]))),
               [ Ast.expr_stmt (Ast.call "cudadev_pop_shmem" [ addr_of v; Ast.SizeofE (Ast.ident v) ]) ] ))
         classified)
  in
  let fp_inits =
    List.map
      (fun v ->
        let value =
          match var_ty v with
          | Some (`Param mv) when mv.Region.mv_scalar -> Ast.Deref (Ast.ident v)
          | _ -> Ast.ident v
        in
        Ast.expr_stmt (Ast.assign (Ast.Member (Ast.ident vars, v)) value))
      firstprivates
  in
  let red_inits =
    List.map
      (fun v ->
        let ptr =
          match var_ty v with
          | Some (`Param _) -> Ast.ident v (* already a pointer parameter *)
          | Some (`Local _) ->
            Ast.Cast
              ( Cty.Ptr Cty.Void,
                Ast.call "cudadev_push_shmem" [ addr_of v; Ast.SizeofE (Ast.ident v) ] )
          | None -> unsupported "reduction variable '%s' not found" v
        in
        Ast.expr_stmt (Ast.assign (Ast.Member (Ast.ident vars, v)) ptr))
      red_names
  in
  let red_pops =
    List.filter_map
      (fun v ->
        match var_ty v with
        | Some (`Local _) ->
          Some (Ast.expr_stmt (Ast.call "cudadev_pop_shmem" [ addr_of v; Ast.SizeofE (Ast.ident v) ]))
        | _ -> None)
      red_names
  in
  let nthreads =
    match clause_num_threads dir with
    | Some e -> Subst.subst_expr_assoc scalar_sub e
    | None -> Ast.int_lit 0 (* 0 = all available workers *)
  in
  (* thread-function body *)
  let thr_subst =
    List.map
      (fun (v, kind) ->
        match kind with
        | Sh_param _ -> (v, Ast.Arrow (Ast.ident vars, v))
        | Sh_local _ -> (v, Ast.Deref (Ast.Arrow (Ast.ident vars, v))))
      classified
    @ List.map (fun (v, _) -> (v, Ast.ident ("_red_" ^ v))) reductions
  in
  let thr_prologue =
    List.map
      (fun v ->
        let ty =
          match var_ty v with
          | Some (`Param mv) -> mv.Region.mv_host_ty
          | Some (`Local ty) -> ty
          | None -> unsupported "private variable '%s' not found" v
        in
        Ast.Sdecl [ Ast.mk_decl v ty ])
      privates
    @ List.map
        (fun v ->
          let ty =
            match var_ty v with
            | Some (`Param mv) -> mv.Region.mv_host_ty
            | Some (`Local ty) -> ty
            | None -> unsupported "firstprivate variable '%s' not found" v
          in
          Ast.Sdecl [ Ast.mk_decl ~init:(Ast.Iexpr (Ast.Arrow (Ast.ident vars, v))) v ty ])
        firstprivates
    @ List.map
        (fun (v, op) ->
          let ty =
            match var_ty v with
            | Some (`Param mv) -> mv.Region.mv_host_ty
            | Some (`Local ty) -> ty
            | None -> unsupported "reduction variable '%s' not found" v
          in
          Ast.Sdecl [ Ast.mk_decl ~init:(Ast.Iexpr (reduction_identity op ty)) ("_red_" ^ v) ty ])
        reductions
  in
  let thr_epilogue =
    let ty_of v =
      match var_ty v with
      | Some (`Param mv) -> mv.Region.mv_host_ty
      | Some (`Local ty) -> ty
      | None -> assert false
    in
    tree_reduce ~uniq:(string_of_int id) reductions ~ty_of
      ~target_of:(fun v -> Ast.Arrow (Ast.ident vars, v))
  in
  let thr_core =
    if is_parallel_for then begin
      let collapse = Option.value (clause_collapse dir) ~default:1 in
      let loops, lbody = Loops.analyze_nest collapse pbody in
      let lbody = Subst.subst_assoc thr_subst (lower_parallel_body g thr_subst lbody) in
      let loops =
        List.map
          (fun (c : Loops.canon) ->
            {
              c with
              Loops.cl_lb = Subst.subst_expr_assoc thr_subst c.Loops.cl_lb;
              cl_ub = Subst.subst_expr_assoc thr_subst c.Loops.cl_ub;
              cl_step = Subst.subst_expr_assoc thr_subst c.Loops.cl_step;
            })
          loops
      in
      let sched = Option.value (clause_schedule dir) ~default:(Ast.Sch_static, None) in
      let hoist_decls, loops, extents = hoist_nest g loops in
      let total = Loops.total_extent ~extents loops in
      let stmts, _rid =
        lower_thread_loop g ~sched ~loops ~extents ~body:lbody ~lo:(Ast.int_lit 0) ~hi:total ()
      in
      hoist_decls @ stmts
    end
    else [ Subst.subst_assoc thr_subst (lower_parallel_body g thr_subst pbody) ]
  in
  let thr_fn =
    {
      Ast.f_name = thr_name;
      f_ret = Cty.Void;
      f_params = [ (vars, Cty.Ptr (Cty.Struct struct_name)) ];
      f_body = Ast.Sblock (thr_prologue @ thr_core @ thr_epilogue);
      f_static = false;
      f_device = true;
    }
  in
  g.g_aux <- g.g_aux @ [ Ast.Gfun thr_fn ];
  (* master-side block *)
  Ast.Sblock
    ([ Ast.Sdecl [ Ast.mk_decl ~shared:true vars (Cty.Struct struct_name) ] ]
    @ inits @ fp_inits @ red_inits
    @ [
        Ast.expr_stmt
          (Ast.call "cudadev_register_parallel" [ Ast.ident thr_name; addr_of vars; nthreads ]);
      ]
    @ List.concat (List.rev pops)
    @ red_pops)

(* Transform the sequential (master) part of a target body: standalone
   parallel regions become register_parallel blocks; orphaned
   worksharing executes on the master alone. *)
let rec xform_master g params scalar_sub (locals : (string * Cty.t) list) (s : Ast.stmt) :
    Ast.stmt * (string * Cty.t) list =
  match s with
  | Ast.Sdecl ds ->
    let locals = List.fold_left (fun acc (d : Ast.decl) -> (d.Ast.d_name, d.Ast.d_ty) :: acc) locals ds in
    (s, locals)
  | Ast.Sblock ss ->
    let ss', _ =
      List.fold_left
        (fun (acc, locals) s ->
          let s', locals' = xform_master g params scalar_sub locals s in
          (s' :: acc, locals'))
        ([], locals) ss
    in
    (Ast.Sblock (List.rev ss'), locals)
  | Ast.Sif (c, t, e) ->
    let t', _ = xform_master g params scalar_sub locals t in
    let e' = Option.map (fun e -> fst (xform_master g params scalar_sub locals e)) e in
    (Ast.Sif (c, t', e'), locals)
  | Ast.Swhile (c, b) ->
    let b', _ = xform_master g params scalar_sub locals b in
    (Ast.Swhile (c, b'), locals)
  | Ast.Sdo (b, c) ->
    let b', _ = xform_master g params scalar_sub locals b in
    (Ast.Sdo (b', c), locals)
  | Ast.Sfor (init, c, u, b) ->
    let locals' =
      match init with
      | Some (Ast.Sdecl ds) ->
        List.fold_left (fun acc (d : Ast.decl) -> (d.Ast.d_name, d.Ast.d_ty) :: acc) locals ds
      | _ -> locals
    in
    let b', _ = xform_master g params scalar_sub locals' b in
    (Ast.Sfor (init, c, u, b'), locals)
  | Ast.Spragma (Ast.Omp dir, body) -> (xform_master_directive g params scalar_sub locals dir body, locals)
  | s -> (s, locals)

and xform_master_directive g params scalar_sub locals (dir : Ast.directive) (body : Ast.stmt option)
    : Ast.stmt =
  match (dir.Ast.dir_constructs, body) with
  | constructs, Some pbody when List.hd constructs = Ast.C_parallel ->
    gen_parallel g params locals scalar_sub dir pbody
  | [ Ast.C_barrier ], None -> Ast.Snop (* master alone: no-op *)
  | ([ Ast.C_for ] | [ Ast.C_single ] | [ Ast.C_master ] | [ Ast.C_critical _ ] | [ Ast.C_atomic ]), Some b
    ->
    fst (xform_master g params scalar_sub locals b)
  | [ Ast.C_sections ], Some b -> fst (xform_master g params scalar_sub locals (Strip.strip_sections b))
  | constructs, _ ->
    unsupported "construct '%s' is not supported inside a target region"
      (String.concat " " (List.map Pretty.construct_str constructs))

let build_masterworker g ~(name : string) (dir : Ast.directive) (body : Ast.stmt) : kernel =
  let referenced = Subst.free_vars body in
  let params = Region.plan g.g_env dir ~referenced in
  let scalar_sub, scalar_prologue = scalar_subst params [] in
  let body = Subst.subst_assoc scalar_sub body in
  (* hoisted scalar copies are master locals, so parallel regions stage
     them through the shared-memory stack like any other local *)
  let hoisted_locals =
    List.filter_map
      (fun (mv : Region.mapped_var) ->
        match (mv.Region.mv_scalar, mv.Region.mv_map) with
        | true, (Ast.Map_to | Ast.Map_alloc) -> Some ("_loc_" ^ mv.Region.mv_name, mv.Region.mv_host_ty)
        | _ -> None)
      params
  in
  let body', _ = xform_master g params scalar_sub hoisted_locals body in
  let body' = Ast.Sblock (scalar_prologue @ [ body' ]) in
  let thrid = "_mw_thrid" in
  let entry_body =
    Ast.Sblock
      [
        decl_int ~init:(Ast.Iexpr (Ast.call "cudadev_thread_id" [])) thrid;
        Ast.Sif
          ( Ast.call "cudadev_in_masterwarp" [ Ast.ident thrid ],
            Ast.Sblock
              [
                Ast.Sif
                  ( Ast.Unop (Ast.Not, Ast.call "cudadev_is_masterthr" [ Ast.ident thrid ]),
                    Ast.Sreturn None,
                    None );
                body';
                Ast.expr_stmt (Ast.call "cudadev_exit_target" []);
              ],
            Some (Ast.Sblock [ Ast.expr_stmt (Ast.call "cudadev_workerfunc" [ Ast.ident thrid ]) ]) );
      ]
  in
  let entry_params =
    List.map (fun (mv : Region.mapped_var) -> (mv.Region.mv_name, mv.Region.mv_param_ty)) params
  in
  let entry =
    {
      Ast.f_name = name;
      f_ret = Cty.Void;
      f_params = entry_params;
      f_body = entry_body;
      f_static = false;
      f_device = true;
    }
  in
  let aux_bodies =
    List.filter_map (function Ast.Gfun f -> Some f.Ast.f_body | _ -> None) g.g_aux
  in
  let aux_fns = callgraph_functions g (entry.Ast.f_body :: aux_bodies) in
  let structs = List.filter (function Ast.Gstruct _ -> true | _ -> false) g.g_program in
  let program = structs @ g.g_aux @ List.map (fun f -> Ast.Gfun f) aux_fns @ [ Ast.Gfun entry ] in
  {
    k_entry = name;
    k_program = program;
    k_params = params;
    k_teams = Ast.int_lit 1;
    k_threads = Ast.int_lit mw_block_threads;
    k_mode = Masterworker;
  }

(* ---------------------------------------------------------------- *)
(* Dispatch                                                           *)
(* ---------------------------------------------------------------- *)

(* Build the kernel for a directive whose constructs start with target. *)
let build ~(env : Typecheck.env) ~(program : Ast.program) ~(name : string) (dir : Ast.directive)
    (body : Ast.stmt) : kernel =
  let g = { g_env = env; g_program = program; g_fresh = 0; g_aux = [] } in
  let has c = Ast.has_construct dir c in
  if has Ast.C_for && has Ast.C_parallel then begin
    (* target [teams distribute] parallel for *)
    let loop_stmt =
      match body with
      | Ast.Sfor _ -> body
      | Ast.Sblock [ (Ast.Sfor _ as f) ] -> f
      | _ -> unsupported "combined loop construct must be applied to a for loop"
    in
    build_combined g ~name dir loop_stmt ~with_teams:(has Ast.C_teams) ~with_parallel_for:true
      ~lower_nested:(fun subst stmt -> lower_parallel_body g subst stmt)
  end
  else if has Ast.C_distribute then begin
    let loop_stmt =
      match body with
      | Ast.Sfor _ -> body
      | Ast.Sblock [ (Ast.Sfor _ as f) ] -> f
      | _ -> unsupported "distribute must be applied to a for loop"
    in
    build_combined g ~name dir loop_stmt ~with_teams:true ~with_parallel_for:false
      ~lower_nested:(fun subst stmt -> lower_parallel_body g subst stmt)
  end
  else begin
    (* general target (possibly target teams / target parallel): the
       master/worker scheme handles arbitrary inner structure *)
    let body =
      if has Ast.C_parallel then
        (* target parallel { B } == target { parallel { B } } *)
        Ast.Sblock
          [
            Ast.Spragma
              ( Ast.Omp { Ast.dir_constructs = [ Ast.C_parallel ]; dir_clauses = dir.Ast.dir_clauses },
                Some body );
          ]
      else body
    in
    build_masterworker g ~name dir body
  end
