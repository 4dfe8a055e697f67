(** The ORT-style host runtime: device registry with lazy
    initialisation, kernel-file registry (OMPi locates kernels as
    separate files next to the executable, paper 3.3), and the glue the
    three-phase launch builds on (paper 4.2.1). *)

open Machine
open Gpusim

exception Ort_error of string

val ort_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** Steady-state launch cache (one slot per device): the last
    (kernel file, entry) launched keeps its artifact/module handles, so
    repeated launches of the same kernel skip the loading phase and the
    parameter-preparation span.  Residency is validated against the
    driver's module table before every reuse. *)
type launch_cache = {
  lc_file : string;
  lc_entry : string;
  lc_artifact : Nvcc.artifact;
  lc_modul : Driver.loaded_module;
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

(** The one run configuration.  Every setting a run fixes up front is a
    field here, declared once: the CLIs build one, [Ompi.config] and
    [Serve.config] carry one, [Harness.create] and {!create} take one,
    and {!create} applies it to every device. *)
type config = {
  binary_mode : Nvcc.binary_mode;  (** CUBIN is OMPi's default (paper 3.3) *)
  spec : Spec.t;
  specs : Spec.t list;
      (** per-device spec overrides (position [i] configures device
          [i]); positions beyond the list fall back to [spec] —
          heterogeneous farms get weight-proportional shards *)
  devices : int;
      (** number of simultaneously-live device instances; with more than
          one, default-device [distribute] launches shard across the
          farm (see {!Multidev}); default 1 *)
  streams : int;
      (** stream-pool size used by [target ... nowait] regions (default
          {!Async.default_streams}) *)
  mem_policy : Mempolicy.sel;
      (** memory mode (the [--mem-policy] CLI option; see
          {!Dataenv.set_mem_mode}): [Forced m] maps every buffer by
          copy, elision or pinned zero-copy — the Nano's CPU and GPU
          share DRAM; [Auto] classifies each buffer from its observed
          history (see {!Mempolicy}).  Default [Forced Copy]. *)
  jit : bool;
      (** run the host program and the kernels on the closure JIT (see
          {!Cinterp.Jit}): the host program is compiled when its context
          is built ({!Hostexec.make_context}), each kernel module when it
          loads.  Default on; [--no-jit] runs both on the reference
          tree-walking interpreter *)
  faults : Faults.rule list;
      (** deterministic fault-injection plan armed on every driver;
          [[]] = off *)
  fault_seed : int;  (** seed for probabilistic fault rules (default 42) *)
  max_retries : int option;
      (** override the retry policy's bounded-retry count; [None] keeps
          {!Resilience.default_policy} *)
}

val default_config : config

type t = {
  clock : Simclock.t;
  host_mem : Mem.t;
  cpu : Spec.cpu;
  devices : device array;
  mutable default_device : int;
  binary_mode : Nvcc.binary_mode;
  mutable sample_max_blocks : int option;
      (** when set, launches simulate at most this many blocks (evenly
          spaced) and scale the measured counts to the full grid *)
  mutable trace : Perf.Trace.t option;
      (** launch-phase tracing; set via {!set_trace} *)
  faults : Faults.t option;
      (** the injector armed on every driver from [config.faults]
          ([None] when the plan is empty) *)
  fault_policy : Resilience.policy;
      (** retry/backoff policy of every data environment, from
          [config.max_retries] *)
}

(** [create ~config ()] builds a farm of [config.devices]
    simultaneously live devices sharing one simulated clock and host
    memory, each with its own driver (spec, global memory, allocation
    table, engine timelines), data environment (present table, resident
    cache) and stream pool, and applies [config] once: the executor
    switch and the fault hook to every driver, the memory mode and the
    retry policy to every data environment, the stream count to every
    pool.
    @raise Invalid_argument if [devices] or [streams] is below 1 *)
val create : ?config:config -> unit -> t

(** Attach (or detach, with [None]) a trace ring, propagating it to
    every device driver so host- and device-side events interleave on
    one timeline. *)
val set_trace : t -> Perf.Trace.t option -> unit

(** The executor [config.jit] selected ([true] = closure JIT). *)
val jit : t -> bool

val device : t -> int -> device

val default_dev : t -> device

val num_devices : t -> int

(** omp_set_default_device.  @raise Ort_error on an out-of-range id *)
val set_default_device : t -> int -> unit

(** omp_get_default_device *)
val get_default_device : t -> int

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
