(* SIMT execution engine.

   Each GPU thread is a coroutine (OCaml effect handler fiber) running
   its lane's mini-C interpreter context over the kernel AST.  The
   device builtin table (common builtins plus the device runtime) is
   built once per launch and shared by every thread: a builtin finds its
   block through the launch's current-block accessor and its thread as
   [bs_threads.(ctx.lane)].  Lanes are a device resource the driver
   owns ([pool]): lane i's local memory and the context its threads run
   in, built once and kept, so per-thread setup is only a reset of the
   context and the block's dim3 values.  Each launch resets the lanes
   it uses once, so it sees nothing of an earlier launch, and its blocks
   then share them stale, each block only unwinding a lane's stack to
   its base.  Blocks execute
   sequentially; threads within a block are interleaved cooperatively.
   Named barriers (PTX bar.sync) suspend threads until the expected
   number of participants arrive — the mechanism behind the paper's B1/B2
   master/worker protocol.  Divergence, locks and atomics are modelled at
   scheduling points (Yield) rather than in instruction lockstep; cost is
   reconstructed per warp from per-thread instruction counts, which a
   thread's lane context tallies in place. *)

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
}

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
  ks_env : Typecheck.env; (* the elaborated module's static environment *)
  ks_funcs : (string, Ast.fundef) Hashtbl.t;
  (* device globals, filled at module load; every thread's context uses
     this table as its (read-only) globals *)
  ks_globals : (string, Cty.t * Addr.t) Hashtbl.t;
}

let kernel_source_of_program ?(alloc_global : (int -> Addr.t) option) (p : Ast.program) :
    kernel_source =
  match Typecheck.elaborate ~cuda:true p with
  | Error errs -> Cinterp.Interp.runtime_error "type errors: %s" (String.concat "; " errs)
  | Ok (env, p) ->
    let ks = { ks_env = env; ks_funcs = Hashtbl.create 16; ks_globals = Hashtbl.create 8 } in
    List.iter
      (function
        | Ast.Gfun f -> Hashtbl.replace ks.ks_funcs f.f_name f
        | Ast.Gvar (d, _) -> (
          match alloc_global with
          | Some alloc ->
            Hashtbl.replace ks.ks_globals d.Ast.d_name
              (d.Ast.d_ty, alloc (Cty.sizeof env.Typecheck.structs d.Ast.d_ty))
          | None -> ())
        | Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
      p;
    ks

type launch_config = {
  lc_grid : dim3;
  lc_block : dim3;
  lc_entry : string;
  lc_args : Value.t list;
  (* simulate only blocks whose linear id passes the filter; counters are
     scaled back up by the caller via [Counters.block_scale]. *)
  lc_block_filter : (int -> bool) option;
}

(* One lane of the device: its local memory (space [Local i]) and the
   interpreter context its threads run in.  The context is built by the
   first launch that uses the lane and kept, with its base frame binding
   the four dim3 builtins at the bottom of the lane's stack; a launch
   re-points it at its module and builtins, and each block
   resets it and rewrites the dim3 values. *)
type lane = {
  ln_local : Mem.t;
  mutable ln_ctx : Cinterp.Interp.t option;
  mutable ln_base : Cinterp.Interp.frame list; (* the base frame *)
  mutable ln_top : int; (* the stack mark just above it *)
  mutable ln_dim3 : Addr.t array; (* threadIdx..gridDim: x, y, z, padding *)
}

(* The device's lanes, their contexts' accounted resolver, and what
   those resolve against while a launch runs: its memories and
   counters, block size, current block and structs. *)
and pool = {
  mutable lanes : lane array;
  access : Cinterp.Interp.t -> Cinterp.Interp.access -> Addr.t -> int -> Mem.t;
  mutable run_mem : device_memories option;
  mutable run_counters : Counters.t option;
  mutable run_threads : int;
  mutable run_block : block_state option;
  mutable run_structs : Cty.layout_env;
}

(* [dm_host] is the host memory image as seen from the device: present
   only when the driver has pinned (zero-copy) host ranges registered, so
   plain host addresses still fault with a helpful message.  [dm_lanes]
   is the device's lane pool (entry i in space [Local i]); a launch of n
   threads per block resets and uses the first n. *)
and device_memories = { dm_global : Mem.t; dm_host : Mem.t option; dm_lanes : pool }

let local_bytes = 8192

let ensure_lanes (pool : pool) (n : int) =
  let have = Array.length pool.lanes in
  if n > have then
    pool.lanes <-
      Array.append pool.lanes
        (Array.init (n - have) (fun i ->
             {
               ln_local = Mem.create ~initial:local_bytes ~space:(Addr.Local (have + i)) "local";
               ln_ctx = None;
               ln_base = [];
               ln_top = 0;
               ln_dim3 = [||];
             }))

(* Fills a launch's shared builtin table; builtins reach the running
   block through the accessor. *)
type installer = (unit -> block_state) -> Cinterp.Interp.builtins -> unit

let global_code = Addr.code_of_space Addr.Global

let shared_code0 = Addr.code_of_space (Addr.Shared 0)

let local_code0 = Addr.code_of_space (Addr.Local 0)

(* The memory behind an address, for the pool's running block, found by
   the address's space code (decoded inline: see [Addr.t]). *)
let resolve (pool : pool) (a : Addr.t) : Mem.t =
  let c = (a :> int) land Addr.code_mask in
  if c = global_code then
    match pool.run_mem with
    | Some m -> m.dm_global
    | None -> simt_error "device memory accessed outside a launch"
  else if c >= local_code0 && c - local_code0 < pool.run_threads then
    pool.lanes.(c - local_code0).ln_local
  else
    match pool.run_block with
    | Some bs when c = (bs.bs_shared.Mem.base :> int) -> bs.bs_shared
    | _ -> (
      match Addr.space a with
      | Addr.Shared b -> simt_error "access to shared memory of another block (%d)" b
      | Addr.Local i -> simt_error "access to foreign local memory %d" i
      | Addr.Host -> (
        match pool.run_mem with
        | Some { dm_host = Some m; _ } -> m
        | _ -> simt_error "device code accessed host memory (missing map clause?)")
      | Addr.Global | Addr.Strings ->
        simt_error "unreachable: global is resolved above, strings inside the interpreter")

(* The accounted resolver of lane context [ctx]: the space code decoded
   once, a global, shared or zero-copy access counted in the running
   launch's counters. *)
let device_access (pool : pool) (ctx : Cinterp.Interp.t) kind (a : Addr.t) bytes : Mem.t =
  let c = (a :> int) land Addr.code_mask in
  let lin = ctx.Cinterp.Interp.lane in
  if c = global_code then
    match (pool.run_mem, pool.run_counters) with
    | Some m, Some counters ->
      Counters.on_global_access counters ~lin kind a bytes;
      m.dm_global
    | _ -> simt_error "device memory accessed outside a launch"
  else if c = local_code0 + lin then ctx.Cinterp.Interp.local
  else if c >= local_code0 then
    (* another lane's stack or the string literals: not counted *)
    ctx.Cinterp.Interp.resolve a
  else
    let m = ctx.Cinterp.Interp.resolve a in
    match pool.run_counters with
    | None -> simt_error "device memory accessed outside a launch"
    | Some counters when c >= shared_code0 ->
      counters.Counters.shared_accesses <- counters.Counters.shared_accesses + 1;
      m
    | Some counters ->
      (* [Host]: only pinned (zero-copy) ranges are reachable, dm_host
         is None otherwise and [resolve] has already faulted *)
      if not (Counters.on_zerocopy_access counters kind (Addr.off a)) then
        simt_error "device code accessed unpinned host memory at %d (missing map clause?)"
          (Addr.off a);
      m

(* One accounted resolver for every lane context of the pool. *)
let create_pool () =
  let rec pool =
    {
      lanes = [||];
      access = (fun ctx kind a bytes -> device_access pool ctx kind a bytes);
      run_mem = None;
      run_counters = None;
      run_threads = 0;
      run_block = None;
      run_structs = Cty.create_layout_env ();
    }
  in
  pool

let shared_decl (pool : pool) name ty =
  match pool.run_block with
  | None -> simt_error "__shared__ declaration outside a block"
  | Some bs -> (
    match Hashtbl.find_opt bs.bs_shared_vars name with
    | Some a -> a
    | None ->
      let a = Mem.push bs.bs_shared (Cty.sizeof pool.run_structs ty) in
      Hashtbl.replace bs.bs_shared_vars name a;
      a)

(* Lane [i]'s context, built on its first use: right after the launch's
   reset of the lane, so its base frame binds the dim3 builtins at the
   bottom of the stack (16 bytes each, from offset 16), where every
   block finds them.  It keeps its own tally. *)
let lane_context (pool : pool) (i : int) ~structs ~funcs ~builtins ~globals ~output :
    Cinterp.Interp.t =
  let lane = pool.lanes.(i) in
  match lane.ln_ctx with
  | Some ctx -> ctx
  | None ->
    let ctx =
      Cinterp.Interp.create ~structs ~funcs ~resolve:(resolve pool) ~local:lane.ln_local
        ~access:pool.access ~builtins ~globals ~lane:i ~shared_decl:(shared_decl pool)
        ~output ()
    in
    Cinterp.Interp.push_frame ctx;
    lane.ln_dim3 <-
      Array.concat
        (List.map
           (fun name ->
             let a = Cinterp.Interp.declare_var ctx name (Cty.Struct "dim3") in
             Array.init 4 (fun k -> Addr.add a (4 * k)))
           Typecheck.cuda_globals);
    lane.ln_base <- ctx.Cinterp.Interp.frames;
    lane.ln_top <- Mem.mark lane.ln_local;
    lane.ln_ctx <- Some ctx;
    ctx

(* The [k]-th dim3 builtin of the lane's base frame (in
   [Typecheck.cuda_globals] order) holds [d], its padding word zero. *)
let write_dim3 (lane : lane) (k : int) (d : dim3) =
  let m = lane.ln_local and a = lane.ln_dim3 in
  Mem.store_narrow m a.(4 * k) Cty.Int d.x;
  Mem.store_narrow m a.((4 * k) + 1) Cty.Int d.y;
  Mem.store_narrow m a.((4 * k) + 2) Cty.Int d.z;
  Mem.store_narrow m a.((4 * k) + 3) Cty.Int 0

(* Execute one block to completion, making it the pool's running block
   for the lanes' contexts and the shared builtins. *)
let run_block ~(spec : Spec.t) ~(pool : pool) ~(source : kernel_source)
    ~(linked : Cinterp.Jit.linked option) ~(counters : Counters.t) ~(config : launch_config)
    ~(block_idx : dim3) ~(block_lin : int) : unit =
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
  pool.run_block <- Some bs;
  Counters.begin_block counters n_threads;
  let entry_fn =
    match Hashtbl.find_opt source.ks_funcs config.lc_entry with
    | Some f -> f
    | None -> simt_error "kernel entry '%s' not found in kernel source" config.lc_entry
  in
  (* Per-thread setup: the lane's context back to its base frame with a
     zero tally, the lane's stack unwound to just above it and the dim3
     values written there, as binding them afresh would leave them. *)
  let make_thread_body lin =
    let lane = pool.lanes.(lin) in
    let ctx = Option.get lane.ln_ctx in
    Cinterp.Interp.reset ctx ~frames:lane.ln_base;
    Counters.clear_classes ctx.Cinterp.Interp.tally;
    Mem.release lane.ln_local lane.ln_top;
    write_dim3 lane 0 bs.bs_threads.(lin).ts_tid;
    write_dim3 lane 1 block_idx;
    write_dim3 lane 2 config.lc_block;
    write_dim3 lane 3 config.lc_grid;
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
  (* one handler for every fiber of the block *)
  let handler =
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
          }
  in
  let spawn body = Queue.add (fun () -> match_with body () handler) bs.bs_runq in
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
  for lin = 0 to n_threads - 1 do
    Counters.add_thread counters lin (Option.get pool.lanes.(lin).ln_ctx).Cinterp.Interp.tally
  done;
  Counters.retire_block counters n_threads

(* Launch a kernel over the whole grid (subject to the block filter). *)
let launch ~(spec : Spec.t) ~(mem : device_memories) ~(source : kernel_source)
    ?(compiled : Cinterp.Jit.compiled option) ~(counters : Counters.t)
    ~(install_builtins : installer) ~(output : Buffer.t) (config : launch_config) : unit =
  let n_threads = dim3_total config.lc_block in
  if n_threads > spec.Spec.max_threads_per_block then
    simt_error "block of %d threads exceeds device limit %d" n_threads spec.Spec.max_threads_per_block;
  if n_threads = 0 then simt_error "empty thread block";
  let pool = mem.dm_lanes in
  ensure_lanes pool n_threads;
  for i = 0 to n_threads - 1 do
    Mem.reset pool.lanes.(i).ln_local ~initial:local_bytes
  done;
  (* one builtin table (and one JIT call-target memo) for every thread
     of every block *)
  let builtins = Hashtbl.create 64 in
  Cinterp.Interp.install_common_builtins builtins;
  install_builtins
    (fun () ->
      match pool.run_block with
      | Some bs -> bs
      | None -> simt_error "device builtin called outside a block")
    builtins;
  let linked = Option.map (fun c -> Cinterp.Jit.link c ~builtins ~funcs:source.ks_funcs) compiled in
  pool.run_mem <- Some mem;
  pool.run_counters <- Some counters;
  pool.run_threads <- n_threads;
  pool.run_structs <- source.ks_env.Typecheck.structs;
  (* the lanes' contexts: this launch's module and builtins *)
  for lin = 0 to n_threads - 1 do
    let ctx =
      lane_context pool lin ~structs:source.ks_env.Typecheck.structs ~funcs:source.ks_funcs ~builtins
        ~globals:source.ks_globals ~output
    in
    ctx.Cinterp.Interp.structs <- source.ks_env.Typecheck.structs;
    ctx.Cinterp.Interp.funcs <- source.ks_funcs;
    ctx.Cinterp.Interp.builtins <- builtins;
    ctx.Cinterp.Interp.globals <- source.ks_globals;
    ctx.Cinterp.Interp.output <- output
  done;
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
          (* sample every warp of the first blocks that actually touch
             global memory (fully guarded-out blocks teach us nothing) *)
          if !sampled_blocks < Counters.max_sample_blocks then begin
            counters.Counters.sample_block_seq <- !sampled_blocks;
            counters.Counters.block_contributed <- false
          end
          else counters.Counters.sample_block_seq <- -1;
          run_block ~spec ~pool ~source ~linked ~counters ~config
            ~block_idx:{ x = bx; y = by; z = bz } ~block_lin;
          if counters.Counters.sample_block_seq >= 0 && counters.Counters.block_contributed then
            incr sampled_blocks
        end
      done
    done
  done;
  pool.run_block <- None;
  pool.run_mem <- None;
  pool.run_counters <- None;
  counters.Counters.sample_block_seq <- -1
