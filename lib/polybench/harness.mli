(** Shared machinery for the Unibench/Polybench reproduction (paper
    section 5).

    Each application exists in three forms: a sequential OCaml reference
    (ground truth), a hand-written "pure CUDA" version (mini-C kernels
    using threadIdx/blockIdx, launched through the driver API), and an
    OpenMP version compiled by the translator whose host side runs
    interpreted.  Array initialisation happens directly on host memory
    from OCaml — the paper measures kernel time plus required memory
    operations, not initialisation — and the measured phase runs
    map + kernels + unmap. *)

open Machine
open Gpusim

type ctx = private {
  rt : Hostrt.Rt.t;
  mutable cuda_modules : (string * Driver.loaded_module) list;
  mutable translated_penalty : int -> float;  (** see {!set_translated_penalty} *)
  charged : Driver.launch_stats list array;
      (** per device, its launch log as of {!measure}'s last penalty charge *)
  mutable cuda_launches : Driver.launch_stats list;
      (** the {!launch_cuda} launches since the last penalty charge *)
}

type variant =
  | Cuda  (** hand-written mini-C kernels through the driver API *)
  | Ompi_cudadev  (** translator output offloaded through cudadev *)
  | Host_interp  (** directives stripped, run sequentially on the host *)

val pp_variant : Format.formatter -> variant -> unit

val show_variant : variant -> string

val equal_variant : variant -> variant -> bool

val variant_label : variant -> string

(** Fresh runtime built from [config] (default
    {!Hostrt.Rt.default_config}; see {!Hostrt.Rt.create}) with the
    device initialisation cost already paid.  [config.devices] > 1
    builds a farm (default-device [distribute] launches then shard
    across it). *)
val create : ?config:Hostrt.Rt.config -> unit -> ctx

(** Attach a fresh {!Perf.Trace} ring to this harness's runtime (and its
    device drivers) so every subsequent run records launch-phase
    events. *)
val enable_trace : ctx -> Perf.Trace.t

val driver : ctx -> Driver.t

val dataenv : ctx -> Hostrt.Dataenv.t

(** Elision/zero-copy counters for device 0's data environment. *)
val mem_stats : ctx -> Hostrt.Dataenv.stats

val set_sampling : ctx -> int option -> unit

(** Occupancy penalty of translated kernels, as a factor of a launch's
    block count: {!measure} charges it.  The stand-in for the
    unexplained gemm@2048 gap (EXPERIMENTS.md, deviation D2); default
    none. *)
val set_translated_penalty : ctx -> (int -> float) -> unit

(** {1 Host float32 arrays} *)

val alloc_f32 : ctx -> int -> Addr.t

val set_f32 : ctx -> Addr.t -> int -> float -> unit

val get_f32 : ctx -> Addr.t -> int -> float

(** [fill_f32 ctx a n f] stores [f i] at element [i] for [i < n].  The
    bulk helpers raise [Invalid_argument] on an element outside the
    memory's storage. *)
val fill_f32 : ctx -> Addr.t -> int -> (int -> float) -> unit

val read_f32_array : ctx -> Addr.t -> int -> float array

(** [copy_f32 ctx ~src ~dst n] copies [n] elements bit for bit. *)
val copy_f32 : ctx -> src:Addr.t -> dst:Addr.t -> int -> unit

(** {1 Host int32 arrays} *)

val alloc_i32 : ctx -> int -> Addr.t

val set_i32 : ctx -> Addr.t -> int -> int -> unit

val get_i32 : ctx -> Addr.t -> int -> int

val fill_i32 : ctx -> Addr.t -> int -> (int -> int) -> unit

val read_i32_array : ctx -> Addr.t -> int -> int array

val checksum : ctx -> Addr.t -> int -> float

val max_rel_error : float array -> float array -> float

(** {1 CUDA-variant helpers} *)

val cuda_module : ctx -> name:string -> source:string -> Driver.loaded_module

val launch_cuda :
  ctx -> Driver.loaded_module -> entry:string -> grid:Simt.dim3 -> block:Simt.dim3 ->
  Value.t list -> Driver.launch_stats

val dev_alloc : ctx -> int -> Addr.t

val h2d : ctx -> src:Addr.t -> dst:Addr.t -> bytes:int -> unit

val d2h : ctx -> src:Addr.t -> dst:Addr.t -> bytes:int -> unit

val dev_free : ctx -> Addr.t -> unit

(** {1 OpenMP-variant helpers} *)

type omp_program = {
  op_compiled : Ompi.compiled option;  (** [None] for the host-interpreter lowering *)
  op_ctx : Cinterp.Interp.t;
}

(** Compile an OpenMP source, register its kernels with this runtime and
    prepare the translated host program for interpretation.  With
    [~host_interp:true] the directives are stripped instead and the
    program runs sequentially on the host (no device involved) — the
    reference lowering used by the differential tests. *)
val prepare_omp : ?host_interp:bool -> ctx -> name:string -> string -> omp_program

(** Call a function of the translated host program with OCaml-prepared
    arguments (host-memory pointers and scalars). *)
val call_omp : omp_program -> string -> Value.t list -> unit

val fptr : Addr.t -> Value.t

val vint : int -> Value.t

val vf32 : float -> Value.t

(** Simulated seconds spent inside [f].  Every translated launch (one
    that did not come through {!launch_cuda}) recorded in the window
    adds [(p blocks - 1) * bd_time_ns] for the penalty [p] set by
    {!set_translated_penalty}; when that sum is positive the clock
    advances by it and, under tracing, a cat:"launch"
    "occupancy_penalty" instant records it. *)
val measure : ctx -> (unit -> unit) -> float

type result = {
  r_app : string;
  r_variant : variant;
  r_n : int;
  r_time_s : float;
  r_verified : bool option;
}
