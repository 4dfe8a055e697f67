(** The cudadev host module's central operation: kernel launch in three
    phases (paper 4.2.1):
    + loading — locate the kernel file, load (JIT if PTX) the module;
    + parameter preparation — translate each host argument to its device
      image through the data environment;
    + launch — set grid/block dimensions and call the driver's
      launch_kernel. *)

open Machine
open Gpusim

type arg =
  | Mapped of Addr.t  (** host address of a mapped variable: passed as its device pointer *)
  | Scalar of Value.t  (** passed by value *)

type result = { r_stats : Driver.launch_stats; r_output : string }

(** Both launch entry points are fault-aware: the load and launch phases
    retry under the runtime's {!Resilience.policy} (invalidating the JIT
    cache entry on corrupt-cache faults so the retry recompiles), and
    {!Resilience.Device_dead} is raised immediately when the target
    device has already been declared dead, or when a fatal fault /
    retry exhaustion kills it — the caller then degrades to the host
    path. *)

(** The path the generated ort_offload calls take.  Arguments are
    coerced against the kernel entry's declared parameter types
    ({!coerce_args}). *)
val launch :
  Rt.t -> dev:int -> kernel_file:string -> entry:string -> num_teams:int -> num_threads:int ->
  args:arg list -> result

(** {1 Launch building blocks (shared with {!Multidev})} *)

(** Run [f] as a cat:"launch" span named [name] when the runtime
    traces. *)
val phase : Rt.t -> ?args:(string * Perf.Trace.value) list -> string -> (unit -> 'a) -> 'a

(** @raise Resilience.Device_dead when the device was declared dead. *)
val check_alive : Rt.device -> unit

(** Retry-wrap a fallible phase on [device] under the runtime's
    policy; a corrupt-cache fault drops [artifact]'s JIT cache entry
    and resident module before the retry. *)
val resilient :
  Rt.t -> Rt.device -> artifact:Nvcc.artifact -> label:string -> (unit -> 'a) -> 'a

(** Bind launch arguments to [entry]'s declared parameters: a scalar is
    cast to its parameter type, a mapped argument becomes a pointer to
    the parameter's element type at [address host_addr].
    @raise Rt.Ort_error on an arity mismatch or a mapped argument bound
    to a non-pointer parameter *)
val coerce_args :
  Driver.loaded_module -> entry:string -> address:(Addr.t -> Addr.t) -> arg list -> Value.t list

(** {1 Asynchronous launch ([target ... nowait])} *)

(** A nowait region's mapped operand: the region owns its whole
    map/launch/unmap sequence, so the maps travel with the launch. *)
type async_map = {
  am_base : Addr.t;
  am_bytes : int;
  am_map : Dataenv.map_type;
  am_always : bool;  (** the [always] modifier, for the map and the unmap alike *)
}

(** Submit the region to the device's stream tracker: serialized behind
    conflicting in-flight regions (read/write intersection on host
    ranges), overlapped with independent ones.  The submitted work maps
    the operands, launches, and unmaps — all on one stream.  Returns the
    device-side printf output (available immediately: memory effects are
    eager).  Raises {!Resilience.Device_dead} like the sync path. *)
val launch_nowait :
  Rt.t -> dev:int -> kernel_file:string -> entry:string -> num_teams:int -> num_threads:int ->
  maps:async_map list -> string

(** Barrier over every queued nowait region of [dev] (ort_taskwait and
    the end-of-data-environment barrier). *)
val taskwait : Rt.t -> dev:int -> unit

(** Device died with regions queued: drop the queue on a coherent
    timeline before running the host fallback. *)
val quiesce : Rt.t -> dev:int -> unit
