(* Public facade of the OpenMP offloading infrastructure for the
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

(* The run configuration is the runtime's own (one record, declared in
   Hostrt.Rt); re-exported so [{ Ompi.default_config with ... }] reads
   naturally at this layer. *)
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

let default_config = Hostrt.Rt.default_config

type compiled = Translator.Pipeline.compiled = {
  c_source_name : string;
  c_host : Minic.Ast.program;
  c_kernels : Translator.Kernelgen.kernel list;
  c_host_text : string;
  c_kernel_texts : (string * string) list;
}

(* Source-to-source compilation only (what `ompicc` does). *)
let compile ~(name : string) (source : string) : compiled =
  Translator.Pipeline.compile_source ~name source

(* A ready-to-run instance: translated program + runtime with all kernel
   files compiled and registered. *)
type instance = {
  i_compiled : compiled;
  i_rt : Hostrt.Rt.t;
  i_artifacts : Nvcc.artifact list;
  i_trace : Perf.Trace.t option;
}

let load ?(config = default_config) ?(trace = false) (compiled : compiled) : instance =
  let rt = Hostrt.Rt.create ~config () in
  let tr = if trace then Some (Perf.Trace.create rt.Hostrt.Rt.clock) else None in
  Hostrt.Rt.set_trace rt tr;
  let artifacts =
    List.map
      (fun (k : Translator.Kernelgen.kernel) ->
        let artifact =
          Nvcc.compile ?trace:tr ~mode:config.binary_mode ~name:k.Translator.Kernelgen.k_entry
            k.Translator.Kernelgen.k_program
        in
        (* every device gets its own copy of the kernel file, so sharded
           sub-launches (and explicit device(n) regions) find it locally *)
        for d = 0 to Hostrt.Rt.num_devices rt - 1 do
          Hostrt.Rt.register_kernel rt ~dev:d artifact
        done;
        artifact)
      compiled.c_kernels
  in
  { i_compiled = compiled; i_rt = rt; i_artifacts = artifacts; i_trace = tr }

type run_result = {
  run_output : string;
  run_exit : int;
  run_time_s : float; (* simulated seconds *)
  run_kernel_launches : int;
}

let run (instance : instance) ?(entry = "main") () : run_result =
  let r = Hostrt.Hostexec.run instance.i_rt instance.i_compiled.c_host ~entry () in
  {
    run_output = r.Hostrt.Hostexec.rr_output;
    run_exit = r.Hostrt.Hostexec.rr_exit;
    run_time_s = r.Hostrt.Hostexec.rr_time_s;
    run_kernel_launches = (Hostrt.Run_report.of_rt instance.i_rt).Hostrt.Run_report.r_launches;
  }

let compile_and_run ?(config = default_config) ?(entry = "main") ~(name : string) (source : string)
    : run_result =
  let compiled = compile ~name source in
  let instance = load ~config compiled in
  run instance ~entry ()

(* Convenience: emit all translated outputs to a directory, the way
   ompicc leaves the host file and the kernel files next to each other. *)
let emit_files (compiled : compiled) ~(dir : string) : string list =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let host_path = Filename.concat dir (compiled.c_source_name ^ "_host.c") in
  let write path text =
    let oc = open_out path in
    output_string oc text;
    close_out oc;
    path
  in
  write host_path compiled.c_host_text
  :: List.map
       (fun (kname, text) -> write (Filename.concat dir (kname ^ ".cu")) text)
       compiled.c_kernel_texts
