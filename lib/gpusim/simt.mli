(** SIMT execution engine.

    Each GPU thread is a coroutine (OCaml effect-handler fiber) running
    one mini-C interpreter context over the kernel AST.  The device
    builtin table belongs to the device, as its lanes do (see {!pool}):
    it is built once, when the pool is created, and shared by every
    thread of every launch.  A builtin finds its block through the
    pool's current-block accessor and its thread as
    [bs_threads.(ctx.lane)].  Blocks execute
    sequentially; threads within a block are interleaved cooperatively.
    Named barriers (PTX bar.sync) suspend threads until the expected
    number of participants arrive — the mechanism behind the paper's
    B1/B2 master/worker protocol.  Divergence, locks and atomics are
    modelled at scheduling points ({!yield}) rather than in instruction
    lockstep; cost is reconstructed per warp from per-thread instruction
    counts. *)

open Machine
open Minic

exception Simt_error of string

val simt_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

type dim3 = { x : int; y : int; z : int }

val pp_dim3 : Format.formatter -> dim3 -> unit

val show_dim3 : dim3 -> string

val equal_dim3 : dim3 -> dim3 -> bool

val dim3 : ?y:int -> ?z:int -> int -> dim3

val dim3_total : dim3 -> int

(** {1 Scheduling effects} (performed by device-runtime builtins) *)

(** Arrive at named barrier [id], expecting [n] arrivals; [n <= 0] means
    "all currently live threads" (__syncthreads semantics, re-evaluated
    when threads retire). *)
val bar_sync : int -> int -> unit

(** Let other threads of the block run (spin locks, chunk grabs). *)
val yield : unit -> unit

type barrier = {
  mutable arrived : int;
  mutable expected : int;
  mutable live_count : bool;
  mutable waiting : (unit -> unit) list;
}

type thread_state = {
  ts_lin : int;  (** linear id within the block *)
  ts_tid : dim3;
  mutable ts_omp_id : int;
      (** [omp_get_thread_num]: [ts_lin] by default; the master/worker
          engine overrides it for the duration of a parallel region *)
  mutable ts_omp_num : int;  (** [omp_get_num_threads]: the block size by default *)
}

(** Master/worker region descriptor registered by the master thread
    (cudadev_register_parallel) and consumed by the workers. *)
type parallel_region = { pr_fn : string; pr_args : Value.t list; pr_nthreads : int }

type block_state = {
  bs_block_idx : dim3;
  bs_block_dim : dim3;
  bs_grid_dim : dim3;
  bs_block_lin : int;
  bs_shared : Mem.t;
  bs_shared_vars : (string, Addr.t) Hashtbl.t;
  bs_threads : thread_state array;  (** indexed by lane (linear thread id) *)
  bs_barriers : barrier array;
  bs_runq : (unit -> unit) Queue.t;
  mutable bs_live : int;
  mutable bs_region : parallel_region option;
  mutable bs_target_done : bool;
  bs_dyn_counters : (int, int ref) Hashtbl.t;
  bs_dyn_drained : (int, int ref) Hashtbl.t;
  bs_section_counters : (int, int ref) Hashtbl.t;
  bs_ws_done : (int, int ref) Hashtbl.t;
  bs_shmem_stack : (Addr.t * Addr.t * int * int) Stack.t;
  bs_counters : Counters.t;
  bs_spec : Spec.t;
}

type kernel_source = {
  ks_env : Typecheck.env;
  ks_funcs : (string, Ast.fundef) Hashtbl.t;
  ks_globals : (string, Cty.t * Addr.t) Hashtbl.t;
}

(** Build the executable kernel source of a module: the module
    elaborated as CUDA code ({!Minic.Typecheck.elaborate} [~cuda:true]),
    its static environment and its functions; [alloc_global] places
    device globals (lock words etc.) in global memory.  Raises
    [Cinterp.Interp.Runtime_error] ("type errors: ...") on an ill-typed
    module. *)
val kernel_source_of_program : ?alloc_global:(int -> Addr.t) -> Ast.program -> kernel_source

type launch_config = {
  lc_grid : dim3;
  lc_block : dim3;
  lc_entry : string;
  lc_args : Value.t list;
  lc_block_filter : (int -> bool) option;
}

(** The device's lanes: a device resource, not a launch's (the driver
    owns one pool, as a CUDA context owns its local memory).  Lane [i]
    holds its local memory, in space [Addr.Local i] with {!local_bytes}
    of storage, and the interpreter context its threads run in, which
    is built by the first launch that uses the lane and then kept,
    with its attachment to the launch's JIT link
    ({!Cinterp.Jit.attach}), kept for the next launch of that link and
    re-armed for each thread.  Every context shares the pool's builtin
    table.

    A launch of [n] threads per block uses the first [n] lanes (the
    pool grows to the widest block launched).  It resets each lane's
    memory once with {!Machine.Mem.reset}, so a launch never sees a
    byte, a growth or a frame of an earlier one, and an access to
    [Local i] with [i >= n] is a foreign-lane error; it re-points each
    context at its module and counters.  Each block resets
    the context ({!Cinterp.Interp.reset}) and writes its dim3 values
    into the base frame at the bottom of the lane's stack.  Between the
    blocks of one launch the memories are only unwound to that base, as
    on the hardware: a block's frames are zeroed when pushed, but bytes
    above the stack top stay as the previous block left them. *)
type pool

(** Fills a device's shared builtin table (once, at {!create_pool}).
    Builtins must not capture per-launch, per-block or per-thread
    state: they reach the running block through the accessor and their
    thread through the calling context's {!Cinterp.Interp.t.lane}. *)
type installer = (unit -> block_state) -> Cinterp.Interp.builtins -> unit

(** An empty pool and its builtin table: the common builtins
    ({!Cinterp.Interp.install_common_builtins}), then the installer's. *)
val create_pool : installer -> pool

(** A module's closure-compiled form linked against the pool's builtin
    table; build it once per loaded module and pass it to every
    {!launch} of that module on this pool. *)
val link : pool -> kernel_source -> Cinterp.Jit.compiled -> Cinterp.Jit.linked

(** The memories a launch runs against.  [dm_host] is the host memory
    image as seen from the device — present only when pinned (zero-copy)
    host ranges are registered. *)
type device_memories = { dm_global : Mem.t; dm_host : Mem.t option; dm_lanes : pool }

(** Storage of one lane's local memory at the start of a launch. *)
val local_bytes : int

(** Launch a kernel over the grid (subject to the block filter),
    detecting barrier deadlocks and illegal memory-space accesses.  It
    builds no builtin table: its threads use the pool's.  With
    [?linked] ({!link} of the module on [mem]'s pool), each thread
    executes the module's closure-compiled form instead of tree-walking
    the AST (identical semantics, accounting and yield points; see
    {!Cinterp.Jit}). *)
val launch :
  spec:Spec.t ->
  mem:device_memories ->
  source:kernel_source ->
  ?linked:Cinterp.Jit.linked ->
  counters:Counters.t ->
  output:Buffer.t ->
  launch_config ->
  unit
