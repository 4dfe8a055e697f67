(** Public facade of the OpenMP offloading infrastructure for the
    (simulated) Jetson Nano platform.

    Typical use:
    {[
      let result = Ompi.compile_and_run ~name:"saxpy" source in
      print_string result.Ompi.run_output
    ]}

    which performs the full paper pipeline: OMPi-style source-to-source
    translation (host C + one CUDA kernel file per target region), nvcc
    "compilation" of the kernel files (PTX or CUBIN mode), and execution
    of the host program on a simulated quad-core A57 host driving a
    simulated 128-core Maxwell GPU. *)

open Gpusim

type config = {
  binary_mode : Nvcc.binary_mode;  (** CUBIN is OMPi's default (paper 3.3) *)
  spec : Spec.t;
  faults : Hostrt.Faults.rule list;
      (** deterministic fault-injection plan armed at [load]; [[]] = off *)
  fault_seed : int;  (** seed for probabilistic fault rules *)
  max_retries : int option;
      (** override the retry policy's bounded-retry count; [None] keeps
          {!Hostrt.Resilience.default_policy} *)
  streams : int;
      (** stream-pool size used by [target ... nowait] regions (default
          {!Hostrt.Async.default_streams}) *)
  mem_policy : Hostrt.Mempolicy.sel;
      (** memory mode (the [--mem-policy] CLI knob; see
          {!Hostrt.Dataenv.set_mem_mode}): [Forced m] maps every buffer
          by copy, elision or pinned zero-copy — the Nano's CPU and GPU
          share DRAM; [Auto] classifies each buffer from its observed
          history (see {!Hostrt.Mempolicy}).  Default [Forced Copy]. *)
  jit : bool;
      (** run the host program and the kernels on the closure JIT (see
          {!Cinterp.Jit}): the host program is compiled when it starts,
          each kernel module when it loads.  Default on; [--no-jit]
          runs both on the reference tree-walking interpreter *)
  devices : int;
      (** number of simultaneously-live device instances; with more than
          one, default-device [distribute] launches shard across the
          farm (see {!Hostrt.Multidev}); default 1 *)
  specs : Spec.t list;
      (** per-device spec overrides (position [i] configures device
          [i]); positions beyond the list fall back to [spec] —
          heterogeneous farms get weight-proportional shards *)
}

val default_config : config

(** Result of source-to-source compilation (what [ompicc] emits). *)
type compiled = Translator.Pipeline.compiled = {
  c_source_name : string;
  c_host : Minic.Ast.program;  (** translated host program (ort_* calls) *)
  c_kernels : Translator.Kernelgen.kernel list;
  c_host_text : string;
  c_kernel_texts : (string * string) list;  (** kernel file name -> CUDA C *)
}

(** Parse, validate, typecheck and translate.  Raises
    {!Translator.Pipeline.Translate_error} (or the front end's errors)
    on invalid input. *)
val compile : ?config:config -> name:string -> string -> compiled

(** A ready-to-run instance: translated program plus a runtime with all
    kernel files compiled and registered. *)
type instance = {
  i_compiled : compiled;
  i_rt : Hostrt.Rt.t;
  i_artifacts : Nvcc.artifact list;
  i_trace : Perf.Trace.t option;  (** present when loaded with [~trace:true] *)
}

(** [load ?trace compiled] builds a runtime with all kernel files
    compiled and registered; [~trace:true] attaches a {!Perf.Trace}
    ring that records compilation, init, transfer and launch events. *)
val load : ?config:config -> ?trace:bool -> compiled -> instance

type run_result = {
  run_output : string;  (** everything the program printed *)
  run_exit : int;
  run_time_s : float;  (** simulated seconds *)
  run_kernel_launches : int;
}

val run : instance -> ?entry:string -> unit -> run_result

val compile_and_run : ?config:config -> ?entry:string -> name:string -> string -> run_result

(** Write the translated host file and the kernel [.cu] files into
    [dir], the artefact layout OMPi produces; returns the paths. *)
val emit_files : compiled -> dir:string -> string list
