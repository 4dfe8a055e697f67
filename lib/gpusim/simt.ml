(* SIMT execution engine.

   Each GPU thread is a coroutine (OCaml effect handler fiber) running
   one mini-C interpreter context over the kernel AST.  The device
   builtin table (common builtins plus the device runtime) is built once
   per launch and shared by every thread: a builtin finds its block
   through the launch's current-block accessor and its thread as
   [bs_threads.(ctx.lane)], so per-thread setup is only the context, its
   stack frame and the four dim3 bindings.  Per-lane local memory is a
   device resource the driver owns ([device_memories.dm_local]): each
   launch resets the lanes it uses once, so it sees nothing of an
   earlier launch, and its blocks then share them stale, each block
   only unwinding a lane's stack to its base.  Blocks execute
   sequentially; threads within a block are interleaved cooperatively.
   Named barriers (PTX bar.sync) suspend threads until the expected
   number of participants arrive — the mechanism behind the paper's B1/B2
   master/worker protocol.  Divergence, locks and atomics are modelled at
   scheduling points (Yield) rather than in instruction lockstep; cost is
   reconstructed per warp from per-thread instruction counts. *)

open Machine
open Minic

exception Simt_error of string

let simt_error fmt = Format.kasprintf (fun s -> raise (Simt_error s)) fmt

type dim3 = { x : int; y : int; z : int } [@@deriving show { with_path = false }, eq]

let dim3 ?(y = 1) ?(z = 1) x = { x; y; z }

let dim3_total d = d.x * d.y * d.z

type _ Effect.t += Bar_sync : int * int -> unit Effect.t (* barrier id, expected arrivals *)
type _ Effect.t += Yield : unit Effect.t

let bar_sync id expected = Effect.perform (Bar_sync (id, expected))

let yield () = Effect.perform Yield

type barrier = {
  mutable arrived : int;
  mutable expected : int; (* -1 when idle *)
  mutable live_count : bool; (* __syncthreads semantics: all live threads *)
  mutable waiting : (unit -> unit) list;
}

type thread_state = {
  ts_lin : int; (* linear id within block *)
  ts_tid : dim3;
  (* OpenMP thread id / team size (omp_get_thread_num/num_threads): every
     thread of the block by default, as in the combined target teams
     distribute parallel for mode; the master/worker engine overrides
     them for the duration of a parallel region. *)
  mutable ts_omp_id : int;
  mutable ts_omp_num : int;
  (* per-allocation access counter, only needed in sampled blocks *)
  mutable ts_alloc_seq : (int, int ref) Hashtbl.t option;
}

let alloc_seq ts =
  match ts.ts_alloc_seq with
  | Some t -> t
  | None ->
    let t = Hashtbl.create 4 in
    ts.ts_alloc_seq <- Some t;
    t

(* Master/worker region descriptor registered by the master thread
   (cudadev_register_parallel) and consumed by the workers. *)
type parallel_region = { pr_fn : string; pr_args : Value.t list; pr_nthreads : int }

type block_state = {
  bs_block_idx : dim3;
  bs_block_dim : dim3;
  bs_grid_dim : dim3;
  bs_block_lin : int;
  bs_shared : Mem.t;
  bs_shared_vars : (string, Addr.t) Hashtbl.t;
  bs_threads : thread_state array; (* indexed by lane (linear thread id) *)
  bs_barriers : barrier array;
  bs_runq : (unit -> unit) Queue.t;
  mutable bs_live : int;
  (* device-runtime scratch *)
  mutable bs_region : parallel_region option;
  mutable bs_target_done : bool;
  bs_dyn_counters : (int, int ref) Hashtbl.t; (* dynamic/guided schedule state *)
  bs_dyn_drained : (int, int ref) Hashtbl.t; (* threads that saw a region run dry *)
  bs_section_counters : (int, int ref) Hashtbl.t;
  bs_ws_done : (int, int ref) Hashtbl.t; (* end-of-worksharing bookkeeping *)
  bs_shmem_stack : (Addr.t * Addr.t * int * int) Stack.t; (* shared addr, origin, size, mark *)
  bs_counters : Counters.t;
  bs_spec : Spec.t;
}

type kernel_source = {
  ks_structs : Cty.layout_env;
  ks_funcs : (string, Ast.fundef) Hashtbl.t;
  (* device globals, filled at module load; every thread's context uses
     this table as its (read-only) globals *)
  ks_globals : (string, Cty.t * Addr.t) Hashtbl.t;
}

let kernel_source_of_program ?(alloc_global : (int -> Addr.t) option) (p : Ast.program) :
    kernel_source =
  let ks =
    { ks_structs = Cty.create_layout_env (); ks_funcs = Hashtbl.create 16; ks_globals = Hashtbl.create 8 }
  in
  (* structs first so that global variables of struct type can be sized *)
  List.iter
    (function
      | Ast.Gstruct (name, fields) -> ignore (Cty.define_struct ks.ks_structs name fields)
      | Ast.Gfun _ | Ast.Gvar _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
    p;
  List.iter
    (function
      | Ast.Gfun f -> Hashtbl.replace ks.ks_funcs f.f_name f
      | Ast.Gvar (d, _) -> (
        match alloc_global with
        | Some alloc ->
          Hashtbl.replace ks.ks_globals d.Ast.d_name
            (d.Ast.d_ty, alloc (Cty.sizeof ks.ks_structs d.Ast.d_ty))
        | None -> ())
      | Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
    p;
  ks

(* The dim3 struct used for threadIdx/blockIdx/blockDim/gridDim. *)
let ensure_dim3 structs =
  if not (Cty.has_layout structs "dim3") then
    ignore (Cty.define_struct structs "dim3" [ ("x", Cty.Int); ("y", Cty.Int); ("z", Cty.Int) ])

type launch_config = {
  lc_grid : dim3;
  lc_block : dim3;
  lc_entry : string;
  lc_args : Value.t list;
  (* simulate only blocks whose linear id passes the filter; counters are
     scaled back up by the caller via [Counters.block_scale]. *)
  lc_block_filter : (int -> bool) option;
}

(* [dm_host] is the host memory image as seen from the device: present
   only when the driver has pinned (zero-copy) host ranges registered, so
   plain host addresses still fault with a helpful message.  [dm_local]
   is the device's per-lane local memory (entry i in space [Local i]);
   a launch of n threads per block resets and uses the first n. *)
type device_memories = { dm_global : Mem.t; dm_host : Mem.t option; dm_local : Mem.t array }

let local_bytes = 8192

(* Fills a launch's shared builtin table; builtins reach the running
   block through the accessor. *)
type installer = (unit -> block_state) -> Cinterp.Interp.builtins -> unit

(* Write a dim3 value into thread-local memory, bound in the thread's
   base frame. *)
let bind_dim3 (ctx : Cinterp.Interp.t) name (d : dim3) =
  let addr = Cinterp.Interp.declare_var ctx name (Cty.Struct "dim3") in
  let store off v =
    Mem.store_scalar ctx.Cinterp.Interp.local ctx.Cinterp.Interp.structs (Addr.add addr off) Cty.Int
      (Value.of_int v)
  in
  store 0 d.x;
  store 4 d.y;
  store 8 d.z

(* Execute one block to completion, making it the launch's current
   block for the shared builtins. *)
let run_block ~(spec : Spec.t) ~(mem : device_memories) ~(source : kernel_source)
    ~(builtins : Cinterp.Interp.builtins) ~(linked : Cinterp.Jit.linked option)
    ~(current : block_state option ref) ~(counters : Counters.t) ~(output : Buffer.t)
    ~(config : launch_config) ~(block_idx : dim3) ~(block_lin : int) : unit =
  let n_threads = dim3_total config.lc_block in
  let thread lin =
    {
      ts_lin = lin;
      ts_tid =
        {
          x = lin mod config.lc_block.x;
          y = lin / config.lc_block.x mod config.lc_block.y;
          z = lin / (config.lc_block.x * config.lc_block.y);
        };
      ts_omp_id = lin;
      ts_omp_num = n_threads;
      ts_alloc_seq = None;
    }
  in
  let bs =
    {
      bs_block_idx = block_idx;
      bs_block_dim = config.lc_block;
      bs_grid_dim = config.lc_grid;
      bs_block_lin = block_lin;
      bs_shared = Mem.create ~initial:4096 ~limit:spec.Spec.shared_mem_per_block ~space:(Addr.Shared block_lin) "shared";
      bs_shared_vars = Hashtbl.create 8;
      bs_threads = Array.init n_threads thread;
      bs_barriers =
        Array.init spec.Spec.max_named_barriers (fun _ ->
            { arrived = 0; expected = -1; live_count = false; waiting = [] });
      bs_runq = Queue.create ();
      bs_live = n_threads;
      bs_region = None;
      bs_target_done = false;
      bs_dyn_counters = Hashtbl.create 8;
      bs_dyn_drained = Hashtbl.create 8;
      bs_section_counters = Hashtbl.create 8;
      bs_ws_done = Hashtbl.create 8;
      bs_shmem_stack = Stack.create ();
      bs_counters = counters;
      bs_spec = spec;
    }
  in
  current := Some bs;
  Counters.begin_block counters n_threads;
  let entry_fn =
    match Hashtbl.find_opt source.ks_funcs config.lc_entry with
    | Some f -> f
    | None -> simt_error "kernel entry '%s' not found in kernel source" config.lc_entry
  in
  let resolve = function
    | Addr.Global -> mem.dm_global
    | Addr.Shared b when b = block_lin -> bs.bs_shared
    | Addr.Shared b -> simt_error "access to shared memory of another block (%d)" b
    | Addr.Local i when i < n_threads -> mem.dm_local.(i)
    | Addr.Local i -> simt_error "access to foreign local memory %d" i
    | Addr.Host -> (
      match mem.dm_host with
      | Some m -> m
      | None -> simt_error "device code accessed host memory (missing map clause?)")
    | Addr.Strings -> simt_error "unreachable: string arena is resolved inside the interpreter"
  in
  let shared_decl name ty =
    match Hashtbl.find_opt bs.bs_shared_vars name with
    | Some a -> a
    | None ->
      let a = Mem.push bs.bs_shared (Cty.sizeof source.ks_structs ty) in
      Hashtbl.replace bs.bs_shared_vars name a;
      a
  in
  (* Per-thread setup: a context over the launch's shared builtin table
     and the module's globals, plus this thread's stack and hooks. *)
  let make_thread_body lin =
    let ts = bs.bs_threads.(lin) in
    let local = mem.dm_local.(lin) in
    Mem.release local 16;
    let ctx =
      Cinterp.Interp.create ~structs:source.ks_structs ~funcs:source.ks_funcs ~resolve ~local
        ~builtins ~globals:source.ks_globals ~lane:lin ~shared_decl ~output ()
    in
    ctx.Cinterp.Interp.on_step <- (fun k -> Counters.on_step counters lin k);
    let seq () = alloc_seq ts in
    ctx.Cinterp.Interp.on_access <-
      (fun kind a bytes ->
        match a.Addr.space with
        | Addr.Global -> Counters.on_global_access counters ~lin ~seq kind a bytes
        | Addr.Shared _ -> counters.Counters.shared_accesses <- counters.Counters.shared_accesses + 1
        | Addr.Host -> (
          (* only pinned (zero-copy) ranges are reachable: dm_host is None
             otherwise and [resolve] has already faulted *)
          match Counters.find_pinned counters a.Addr.off with
          | Some pin -> Counters.on_zerocopy_access counters ~pin kind
          | None ->
            simt_error "device code accessed unpinned host memory at %d (missing map clause?)"
              a.Addr.off)
        | Addr.Local _ | Addr.Strings ->
          counters.Counters.local_accesses <- counters.Counters.local_accesses + 1);
    (* base frame for the implicit thread context (threadIdx etc.) *)
    Cinterp.Interp.push_frame ctx;
    bind_dim3 ctx "threadIdx" ts.ts_tid;
    bind_dim3 ctx "blockIdx" block_idx;
    bind_dim3 ctx "blockDim" config.lc_block;
    bind_dim3 ctx "gridDim" config.lc_grid;
    (* Route this thread's calls through the module's closure-compiled
       form (if any); builtins and the effects-based yield points are
       untouched, so scheduling semantics do not change. *)
    (match linked with Some l -> Cinterp.Jit.attach l ctx | None -> ());
    fun () -> ignore (Cinterp.Interp.call_fundef ctx entry_fn config.lc_args)
  in
  (* Spawn all threads as fibers. *)
  let open Effect.Deep in
  (* A live-count barrier (__syncthreads) can become satisfied when a
     non-participating thread retires. *)
  let trip_barrier (b : barrier) =
    counters.Counters.barrier_warp_arrivals <-
      counters.Counters.barrier_warp_arrivals + (Spec.barrier_round spec b.expected / spec.Spec.warp_size);
    let ws = b.waiting in
    b.waiting <- [];
    b.arrived <- 0;
    b.expected <- -1;
    b.live_count <- false;
    List.iter (fun w -> Queue.add w bs.bs_runq) ws
  in
  let recheck_live_barriers () =
    Array.iter
      (fun b -> if b.live_count && b.waiting <> [] && b.arrived >= bs.bs_live then trip_barrier b)
      bs.bs_barriers
  in
  let spawn body =
    Queue.add
      (fun () ->
        match_with body ()
          {
            retc =
              (fun () ->
                bs.bs_live <- bs.bs_live - 1;
                recheck_live_barriers ());
            exnc = raise;
            effc =
              (fun (type a) (eff : a Effect.t) ->
                match eff with
                | Bar_sync (id, expected) ->
                  Some
                    (fun (k : (a, _) continuation) ->
                      if id < 0 || id >= Array.length bs.bs_barriers then
                        simt_error "bar.sync id %d out of range" id;
                      let b = bs.bs_barriers.(id) in
                      (* expected <= 0 means "all currently live threads"
                         (__syncthreads semantics): refreshed on every
                         arrival and whenever a thread retires. *)
                      if expected <= 0 then begin
                        b.expected <- bs.bs_live;
                        b.live_count <- true
                      end
                      else if b.expected = -1 then b.expected <- expected
                      else if b.expected <> expected then
                        simt_error "barrier %d: mismatched participant counts (%d vs %d)" id
                          b.expected expected;
                      b.arrived <- b.arrived + 1;
                      if b.arrived >= b.expected then begin
                        b.waiting <- (fun () -> continue k ()) :: b.waiting;
                        trip_barrier b
                      end
                      else b.waiting <- (fun () -> continue k ()) :: b.waiting)
                | Yield ->
                  Some (fun (k : (a, _) continuation) -> Queue.add (fun () -> continue k ()) bs.bs_runq)
                | _ -> None);
          })
      bs.bs_runq
  in
  for lin = 0 to n_threads - 1 do
    spawn (make_thread_body lin)
  done;
  (* Scheduler loop. *)
  while not (Queue.is_empty bs.bs_runq) do
    let job = Queue.pop bs.bs_runq in
    job ()
  done;
  if bs.bs_live > 0 then begin
    let stuck =
      Array.to_list bs.bs_barriers
      |> List.mapi (fun i b -> (i, b))
      |> List.filter (fun (_, b) -> b.waiting <> [])
      |> List.map (fun (i, b) -> Printf.sprintf "barrier %d: %d/%d arrived" i b.arrived b.expected)
    in
    simt_error "deadlock in block (%d,%d,%d): %d threads never finished (%s)" block_idx.x
      block_idx.y block_idx.z bs.bs_live
      (if stuck = [] then "no barrier waiters; thread starved?" else String.concat "; " stuck)
  end;
  Counters.retire_block counters n_threads

(* Launch a kernel over the whole grid (subject to the block filter). *)
let launch ~(spec : Spec.t) ~(mem : device_memories) ~(source : kernel_source)
    ?(compiled : Cinterp.Jit.compiled option) ~(counters : Counters.t)
    ~(install_builtins : installer) ~(output : Buffer.t) (config : launch_config) : unit =
  ensure_dim3 source.ks_structs;
  let n_threads = dim3_total config.lc_block in
  if n_threads > spec.Spec.max_threads_per_block then
    simt_error "block of %d threads exceeds device limit %d" n_threads spec.Spec.max_threads_per_block;
  if n_threads = 0 then simt_error "empty thread block";
  for i = 0 to n_threads - 1 do
    Mem.reset mem.dm_local.(i) ~initial:local_bytes
  done;
  (* one builtin table (and one JIT call-target memo) for every thread
     of every block *)
  let current = ref None in
  let builtins = Hashtbl.create 64 in
  Cinterp.Interp.install_common_builtins builtins;
  install_builtins
    (fun () ->
      match !current with Some bs -> bs | None -> simt_error "device builtin called outside a block")
    builtins;
  let linked = Option.map (fun c -> Cinterp.Jit.link c ~builtins ~funcs:source.ks_funcs) compiled in
  let total_blocks = dim3_total config.lc_grid in
  counters.Counters.blocks_total <- counters.Counters.blocks_total + total_blocks;
  let sampled_blocks = ref 0 in
  for bz = 0 to config.lc_grid.z - 1 do
    for by = 0 to config.lc_grid.y - 1 do
      for bx = 0 to config.lc_grid.x - 1 do
        let block_lin = bx + (config.lc_grid.x * (by + (config.lc_grid.y * bz))) in
        let simulate =
          match config.lc_block_filter with None -> true | Some f -> f block_lin
        in
        if simulate then begin
          (* sample warp 0 of the first blocks that actually touch
             global memory (fully guarded-out warps teach us nothing) *)
          if !sampled_blocks < counters.Counters.max_sample_blocks then begin
            counters.Counters.sample_block_seq <- !sampled_blocks;
            counters.Counters.block_contributed <- false
          end
          else counters.Counters.sample_block_seq <- -1;
          run_block ~spec ~mem ~source ~builtins ~linked ~current ~counters ~output
            ~config ~block_idx:{ x = bx; y = by; z = bz } ~block_lin;
          if counters.Counters.sample_block_seq >= 0 && counters.Counters.block_contributed then
            incr sampled_blocks
        end
      done
    done
  done;
  current := None;
  counters.Counters.sample_block_seq <- -1
