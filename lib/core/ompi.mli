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

(** The run configuration: the runtime's one record (see
    {!Hostrt.Rt.config} for each field), re-exported here. *)
type config = Hostrt.Rt.config = {
  binary_mode : Nvcc.binary_mode;
  spec : Spec.t;
  specs : Spec.t list;
  devices : int;
  streams : int;
  mem_policy : Hostrt.Mempolicy.sel;
  jit : bool;
  faults : Hostrt.Faults.rule list;
  fault_seed : int;
  max_retries : int option;
}

(** {!Hostrt.Rt.default_config}. *)
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
val compile : name:string -> string -> compiled

(** A ready-to-run instance: translated program plus a runtime with all
    kernel files compiled and registered. *)
type instance = {
  i_compiled : compiled;
  i_rt : Hostrt.Rt.t;
  i_artifacts : Nvcc.artifact list;
  i_trace : Perf.Trace.t option;  (** present when loaded with [~trace:true] *)
}

(** [load ?config ?trace compiled] builds a runtime from [config] (see
    {!Hostrt.Rt.create}) with all kernel files compiled and registered
    on every device; [~trace:true] attaches a {!Perf.Trace} ring that
    records compilation, init, transfer and launch events. *)
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
