(** The ORT-style host runtime: device registry with lazy
    initialisation, kernel-file registry (OMPi locates kernels as
    separate files next to the executable, paper 3.3), and the glue the
    three-phase launch builds on (paper 4.2.1). *)

open Machine
open Gpusim

exception Ort_error of string

val ort_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Steady-state launch cache (one slot per device): the last
    (kernel file, entry) launched keeps its artifact/module handles and
    a preallocated parameter buffer, so repeated launches of the same
    kernel skip the loading and parameter-preparation phases.  Residency
    is validated against the driver's module table before every reuse. *)
type launch_cache = {
  lc_file : string;
  lc_entry : string;
  lc_artifact : Nvcc.artifact;
  lc_modul : Driver.loaded_module;
  mutable lc_params : Value.t array;
  mutable lc_hits : int;
}

type device = {
  dev_id : int;
  dev_driver : Driver.t;
  dev_dataenv : Dataenv.t;
  dev_async : Async.t;  (** stream pool + dependency tracker for nowait regions *)
  dev_kernels : (string, Nvcc.artifact) Hashtbl.t;  (** the "kernel files on disk" *)
  mutable dev_launch_cache : launch_cache option;
  mutable dev_shard_stream : Driver.stream option;
      (** dedicated stream for sharded sub-launches (lazily created) *)
}

type t = {
  clock : Simclock.t;
  host_mem : Mem.t;
  cpu : Spec.cpu;
  devices : device array;
  mutable default_device : int;
  binary_mode : Nvcc.binary_mode;
  mutable translated_kernel_penalty : int -> float;
      (** occupancy penalty for translated kernels as a function of the
          total block count; the stand-in for the unexplained gemm@2048
          gap (EXPERIMENTS.md, deviation D2) *)
  mutable sample_max_blocks : int option;
      (** when set, launches simulate at most this many blocks (evenly
          spaced) and scale the measured counts to the full grid *)
  mutable trace : Perf.Trace.t option;
      (** launch-phase tracing; set via {!set_trace} *)
  mutable faults : Faults.t option;
      (** fault injection; set via {!set_faults} *)
  mutable fault_policy : Resilience.policy;
      (** retry/backoff policy; set via {!set_fault_policy} *)
  mutable shard : bool;
      (** shard [distribute] grids across all devices; defaults to true
          when the runtime was created with more than one device *)
}

val default_penalty : int -> float

(** [create ~devices:n ~specs ()] builds a farm of [n] simultaneously
    live devices sharing one simulated clock and host memory, each with
    its own driver (spec, global memory, allocation table, engine
    timelines), data environment (present table, resident cache) and
    stream pool.  [specs] overrides the shared [spec] position by
    position for heterogeneous farms. *)
val create :
  ?binary_mode:Nvcc.binary_mode ->
  ?spec:Spec.t ->
  ?streams:int ->
  ?devices:int ->
  ?specs:Spec.t list ->
  unit ->
  t

(** Attach (or detach, with [None]) a trace ring, propagating it to
    every device driver so host- and device-side events interleave on
    one timeline. *)
val set_trace : t -> Perf.Trace.t option -> unit

(** Arm (or disarm, with [None]) fault injection by installing the
    injector's hook into every device driver. *)
val set_faults : t -> Faults.t option -> unit

(** Set the retry/backoff policy, propagating it to every device's data
    environment. *)
val set_fault_policy : t -> Resilience.policy -> unit

(** Resize every device's stream pool (the [--streams N] CLI knob).
    @raise Invalid_argument if non-positive or tasks are in flight *)
val set_streams : t -> int -> unit

(** Select the memory mode on every device (the [--mem-policy] CLI
    knob; see {!Dataenv.set_mem_mode}): [Auto] decides per buffer via
    {!Mempolicy}, with each device keeping its own buffer histories;
    [Forced m] puts every buffer in mode [m]. *)
val set_mem_mode : t -> Mempolicy.sel -> unit

(** The one executor switch (the [--no-jit] CLI escape hatch): enable
    or disable the closure JIT for device and host code together.
    Every device driver closure-compiles the kernels it loads from now
    on (see {!Gpusim.Driver.set_jit}), and every host context
    {!Hostexec.make_context} builds from now on closure-compiles its
    host program.  With [false], both run on the reference tree-walker.
    A host context built earlier keeps the executor it was built
    with. *)
val set_jit : t -> bool -> unit

(** The executor {!set_jit} last selected ([true] = closure JIT; the
    default). *)
val jit : t -> bool

val device : t -> int -> device

val default_dev : t -> device

val num_devices : t -> int

(** omp_set_default_device.  @raise Ort_error on an out-of-range id *)
val set_default_device : t -> int -> unit

(** omp_get_default_device *)
val get_default_device : t -> int

(** Enable/disable sharding of [distribute] grids across devices. *)
val set_shard : t -> bool -> unit

(** Devices whose context has not been declared dead. *)
val live_devices : t -> device list

val register_kernel : t -> dev:int -> Nvcc.artifact -> unit

val find_kernel : t -> dev:int -> string -> Nvcc.artifact

(** Map num_teams / num_threads onto CUDA grid/block dimensions; team
    counts beyond 65535 fold into two grid dimensions (paper section 5:
    "ompi maps these values to two dimensions"). *)
val geometry : num_teams:int -> num_threads:int -> Simt.dim3 * Simt.dim3

(** Evenly-spaced block-sampling filter, offset by half a stride so that
    boundary blocks are not over-represented. *)
val sampling_filter : total_blocks:int -> int option -> (int -> bool) option

val host_step_cost_ns : t -> float

val now_s : t -> float
