(** Executes a translated host program (mini-C) on the closure JIT
    ({!Cinterp.Jit}, the executor the kernels use) or, in a runtime
    configured with [jit = false], on the reference tree-walker, with
    the ORT runtime entry points installed as builtins.  This is the execution
    half of [ompirun]: the translator turns target constructs into
    ort_* calls, and those calls land here, driving the data
    environment and the simulated device. *)

open Minic

exception Host_error of string

type run_result = {
  rr_output : string;  (** everything printf produced (host and device) *)
  rr_exit : int;
  rr_time_s : float;  (** simulated seconds *)
}

(** Build an interpreter context over the translated program: ort_* and
    omp_* builtins installed, globals allocated and initialised, host
    execution charged to the runtime's simulated clock.  When
    {!Rt.jit} holds, the program is closure-compiled here, once, and
    every call through {!Cinterp.Interp.call_fundef} runs the compiled
    form; the choice is fixed when the context is built. *)
val make_context : Rt.t -> Ast.program -> Cinterp.Interp.t

(** Run [entry] (default ["main"]). *)
val run :
  Rt.t -> Ast.program -> ?entry:string -> ?args:Machine.Value.t list -> unit -> run_result
