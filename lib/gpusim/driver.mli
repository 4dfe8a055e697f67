(** CUDA-driver-style API over the simulated device: contexts, module
    loading, memory management, transfers and kernel launches.  This is
    the layer the paper's cudadev host module calls into (cuMemAlloc,
    cuMemcpyHtoD/DtoH, cuModuleLoad, cuLaunchKernel — paper 4.2.1). *)

open Machine
open Minic

exception Cuda_error of string

type loaded_module = {
  lm_artifact : Nvcc.artifact;
  lm_source : Simt.kernel_source;
  lm_compiled : Cinterp.Jit.compiled option;
      (** closure-compiled form of the module's functions, produced once
          at load time ([None] when the closure JIT is disabled) *)
}

type launch_stats = {
  st_entry : string;
  st_grid : Simt.dim3;
  st_block : Simt.dim3;
  st_breakdown : Costmodel.breakdown;
  st_blocks_simulated : int;
  st_blocks_total : int;
  st_counters : Counters.t;  (** raw dynamic statistics of the launch *)
}

(** One allocation's log of written byte intervals (relative to the
    allocation base, most recent first, tagged with a monotonically
    increasing sequence number). *)
type store_log = {
  mutable sl_seq : int;
  mutable sl_items : (int * int * int) list;  (** seq, lo, hi (exclusive) *)
}

(** A device stream: a work queue with its own timeline on the shared
    simulated clock.  Enqueues advance only [str_done_ns]; the global
    clock catches up at synchronization points. *)
type stream = {
  str_id : int;  (** trace timeline ("tid"): 0 is the host and the null stream *)
  mutable str_done_ns : float;  (** absolute sim time when the queue drains *)
}

type t = {
  spec : Spec.t;
  clock : Simclock.t;
  ordinal : int;  (** position in a multi-device farm; 0 is the default *)
  tid_base : int;
      (** trace-timeline offset ([ordinal * 1000]) so no two devices share
          a tid: device d's stream s completes on tid [d*1000 + s] *)
  global : Mem.t;  (** device global memory *)
  lanes : Simt.pool;
      (** the device's lanes: local memory and thread contexts
          ({!Simt.pool}), grown to the widest block launched and reset
          per launch *)
  jit_cache : (string, unit) Hashtbl.t;  (** the on-disk JIT cache (survives contexts) *)
  mutable initialized : bool;
  mutable context_alive : bool;
  modules : (string, loaded_module) Hashtbl.t;
  mutable allocs : (int * int * int) list;
  mutable next_alloc_id : int;
  output : Buffer.t;  (** device-side printf *)
  mutable launches : launch_stats list;  (** most recent first *)
  mutable kernels_launched : int;
  mutable trace : Perf.Trace.t option;  (** launch-phase tracing, off by default *)
  mutable inject : (string -> unit) option;  (** fault-injection hook, off by default *)
  null_stream : stream;  (** what calls without a stream run on; survives {!reset} *)
  mutable streams : stream list;  (** created streams, in creation order *)
  mutable next_stream_id : int;
  mutable copy_busy : (float * float) list;
      (** single copy engine, shared by every stream (the null stream
          included): busy intervals (start_ns, end_ns), sorted by
          start.  Placement is work-conserving first-fit: the hardware
          channels feed the engine with whichever queued op is ready. *)
  mutable compute_busy : (float * float) list;  (** single compute engine, same scheme *)
  mutable pinned : (int * int * int) list;
      (** zero-copy: pinned host ranges (off, len, id) kernels may address in place *)
  mutable pinned_host : Mem.t option;  (** the host image, [Some] iff [pinned <> []] *)
  mutable next_pin_id : int;
  mutable zerocopy_total : int;  (** zero-copy kernel accesses across launches *)
  dev_stores : (int, int) Hashtbl.t;  (** cumulative kernel stores per allocation id *)
  dev_loads : (int, int) Hashtbl.t;  (** cumulative kernel loads per allocation id *)
  store_intervals : (int, store_log) Hashtbl.t;
      (** per-allocation log of written byte intervals; see [store_mark] *)
  pin_loads : (int, int) Hashtbl.t;  (** cumulative zero-copy loads per pin id *)
  pin_stores : (int, int) Hashtbl.t;  (** cumulative zero-copy stores per pin id *)
  mutable write_epoch : int;
      (** bumped whenever store counts may be incomplete (block-sampled
          launches, context reset): elision must not trust older counts *)
  mutable closure_jit : bool;
      (** compile kernel ASTs to OCaml closures at module load (default
          true); the tree-walker remains the reference executor *)
}

val create : ?spec:Spec.t -> ?ordinal:int -> Simclock.t -> t

(** Attach (or detach, with [None]) a trace ring; the driver then emits
    init/mem/transfer/load/jit/kernel events into it. *)
val set_trace : t -> Perf.Trace.t option -> unit

(** Enable/disable the closure JIT.  Affects subsequent module loads
    (whether a compiled form is built, with a cat:"jit"
    "closure_compile" instant whose [left_out] argument names the
    functions that did not compile) and subsequent launches of
    already-loaded modules (whether their compiled form is used).
    Simulated times are identical either way — compilation is host-side
    simulator work, not a modelled device cost. *)
val set_jit : t -> bool -> unit

(** Attach (or detach, with [None]) a fault-injection hook.  It is
    called with a site name ("alloc", "h2d", "d2h", "module_load",
    "jit_cache", "jit_compile", "launch") at the entry of each fallible
    operation — before any clock advance or memory mutation — and may
    raise to make the operation fail. *)
val set_inject : t -> (string -> unit) option -> unit

(** Lazy device initialisation (paper 4.2.1): the first real use pays
    for cuInit + primary-context creation. *)
val ensure_initialized : t -> unit

val properties : t -> Spec.t

(** {1 Memory management} *)

val mem_alloc : t -> int -> Addr.t

val mem_free : t -> Addr.t -> unit

(** cuMemcpyHtoD on [stream], or on the null stream without one (see
    "Streams" below). *)
val memcpy_h2d : ?stream:stream -> t -> host:Mem.t -> src:Addr.t -> dst:Addr.t -> len:int -> unit

val memcpy_d2h : ?stream:stream -> t -> host:Mem.t -> src:Addr.t -> dst:Addr.t -> len:int -> unit

val memset_d : t -> dst:Addr.t -> len:int -> unit

(** cuMemHostRegister: pin a host range so kernels address it in place
    (the Nano's CPU and GPU share the same LPDDR4).  Charges the
    page-locking cost; emits a cat:"mem" "host_register" instant. *)
val host_register : t -> host:Mem.t -> addr:Addr.t -> bytes:int -> unit

val host_unregister : t -> Addr.t -> unit

(** {1 Transfer-elision accessors (Hostrt.Dataenv)} *)

(** Allocation id owning a device address, if any. *)
val alloc_id_of : t -> Addr.t -> int option

(** Cumulative kernel stores recorded against an allocation id. *)
val alloc_stores : t -> int -> int

(** Cumulative kernel loads recorded against an allocation id. *)
val alloc_loads : t -> int -> int

(** Current position in an allocation's store-interval log.  Snapshot at
    a sync point; [stores_since] then yields the byte intervals
    (relative to the allocation base, hi exclusive) written after that
    mark.  The log is capped: when it overflows it collapses to one
    full-extent interval, so stale marks read as "everything dirty" —
    conservative, never unsound. *)
val store_mark : t -> int -> int

val stores_since : t -> int -> int -> (int * int) list

(** Record device-side writes that bypassed a kernel (tests, salvage).
    No byte interval is known, so the full extent is logged as dirty. *)
val note_stores : t -> int -> int -> unit

(** Cumulative zero-copy (loads, stores) recorded against a pin id. *)
val pin_traffic : t -> int -> int * int

(** Pin id owning a pinned host address, if any. *)
val pin_id_of : t -> Addr.t -> int option

(** {1 Modules and launch} *)

(** The memories a launch runs against: global memory, [host] as the
    device-visible host image, and the device's lane pool (which the
    launch grows to its block size). *)
val device_memories : t -> host:Mem.t option -> Simt.device_memories

(** Loading phase: charge the artifact's load cost (JIT on a PTX cache
    miss) and build the executable kernel source; cached per context. *)
val load_module : t -> Nvcc.artifact -> loaded_module

val get_function : loaded_module -> string -> Ast.fundef

(** Launch phase: run the grid on the SIMT engine (its memory effects
    happen at the call), convert the measured counts to time, charge
    the host the launch-issue overhead and place the kernel on
    [stream]'s timeline behind the compute engine — on the null stream
    without one.  [logical_blocks] is the number of blocks this device
    owns in a sharded launch (default: the whole grid). *)
val launch_kernel :
  t ->
  ?stream:stream ->
  modul:loaded_module ->
  entry:string ->
  grid:Simt.dim3 ->
  block:Simt.dim3 ->
  args:Value.t list ->
  install_builtins:Simt.installer ->
  ?block_filter:(int -> bool) ->
  ?logical_blocks:int ->
  unit ->
  launch_stats

(** {1 Streams}

    One stream model serves every transfer and launch.  A call's memory
    effect happens eagerly, in call (= host program) order; only its
    {e time} is modelled, on its stream's timeline behind the device's
    single copy engine and single compute engine (the Nano has one of
    each, so only transfer/compute overlap is possible).  Any enqueue
    order the dependency tracker admits therefore replays to the same
    memory image as the synchronous schedule.

    A call without [?stream] runs on the device's null stream (id 0,
    the host timeline), built by {!create}, and syncs it before
    returning: it charges no {!async_api_overhead_us}, waits for the
    engine like any stream's op, and lands the clock on the op's end.
    It is traced as a cat:"transfer" or cat:"kernel" B/E span, with no
    cat:"async" event.  A call on a created stream charges the host the
    issue overhead only and is traced as a cat:"async" Complete event
    on the stream's timeline.  Only the engines are modelled: the
    legacy default stream's device-wide barrier is not, so a null-stream
    call does not wait for other streams' work on the other engine.

    Every engine interval that has not drained constrains every op, so
    no two copies (and no two kernels) overlap, whichever streams they
    run on. *)

(** CPU-side cost (µs) of issuing one copy on a created stream, charged
    to the global clock at enqueue. *)
val async_api_overhead_us : float

val stream_create : t -> stream

(** Is there enqueued work on this stream that completes after the
    current simulated time? *)
val stream_busy : t -> stream -> bool

(** cuStreamWaitEvent: the stream will not start new work before the
    given absolute time (pure timeline arithmetic, no trace event). *)
val stream_wait_until : stream -> float -> unit

(** cuStreamSynchronize: advance the global clock to the stream's
    completion timestamp.  Emits a cat:"async" "stream_sync" instant. *)
val stream_sync : t -> stream -> unit

(** cuCtxSynchronize: advance the global clock past every stream. *)
val device_sync : t -> unit

(** Last-ditch device-to-host copy used when declaring the device dead:
    bypasses fault injection (simulated global memory stays readable
    after compute faults) so live mappings can be rescued before host
    fallback.  Emits a cat:"fault" "salvage" instant. *)
val salvage_d2h : t -> host:Mem.t -> src:Addr.t -> dst:Addr.t -> len:int -> unit

(** Drain the device-side printf buffer. *)
val take_output : t -> string

val reset : t -> unit
