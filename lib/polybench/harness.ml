(* Shared machinery for the Unibench/Polybench reproduction (paper §5).

   Each application exists in three forms:
   - a sequential OCaml reference (ground truth for validation);
   - a hand-written "pure CUDA" version: mini-C kernels using
     threadIdx/blockIdx, launched through the driver API;
   - an OpenMP version: C source with target constructs, compiled by the
     translator; its host side is the interpreted translated code.

   Array initialisation is performed directly on host memory from OCaml
   (the paper measures kernel time plus required memory operations, not
   initialisation), then the measured phase runs map + kernels + unmap. *)

open Machine
open Gpusim

type ctx = {
  rt : Hostrt.Rt.t;
  mutable cuda_modules : (string * Driver.loaded_module) list;
  (* occupancy penalty of translated kernels as a function of the
     launch's block count; the stand-in for the unexplained gemm@2048
     gap (EXPERIMENTS.md, deviation D2), charged by [measure] *)
  mutable translated_penalty : int -> float;
  (* per device, its launch log as of the last penalty charge *)
  charged : Driver.launch_stats list array;
  (* the [launch_cuda] launches since the last penalty charge *)
  mutable cuda_launches : Driver.launch_stats list;
}

type variant = Cuda | Ompi_cudadev | Host_interp [@@deriving show { with_path = false }, eq]

let variant_label = function
  | Cuda -> "CUDA"
  | Ompi_cudadev -> "OMPi CUDADEV"
  | Host_interp -> "Host (Cinterp)"

let create ?config () : ctx =
  let rt = Hostrt.Rt.create ?config () in
  (* Pay the lazy device-initialisation cost up front so that timing
     windows only contain transfers and kernel work, as in the paper. *)
  Array.iter
    (fun (d : Hostrt.Rt.device) -> Driver.ensure_initialized d.Hostrt.Rt.dev_driver)
    rt.Hostrt.Rt.devices;
  {
    rt;
    cuda_modules = [];
    translated_penalty = (fun _ -> 1.0);
    charged = Array.make (Hostrt.Rt.num_devices rt) [];
    cuda_launches = [];
  }

(* Attach a fresh trace ring to this harness's runtime (and its device
   drivers) so every subsequent run records launch-phase events. *)
let enable_trace ctx : Perf.Trace.t =
  let tr = Perf.Trace.create ctx.rt.Hostrt.Rt.clock in
  Hostrt.Rt.set_trace ctx.rt (Some tr);
  tr

let driver ctx = (Hostrt.Rt.device ctx.rt 0).Hostrt.Rt.dev_driver

let dataenv ctx = (Hostrt.Rt.device ctx.rt 0).Hostrt.Rt.dev_dataenv

let mem_stats ctx : Hostrt.Dataenv.stats = Hostrt.Dataenv.stats (dataenv ctx)

let set_sampling ctx max_blocks = ctx.rt.Hostrt.Rt.sample_max_blocks <- max_blocks

let set_translated_penalty ctx f = ctx.translated_penalty <- f

(* ---------------------------------------------------------------- *)
(* Host arrays (float32)                                              *)
(* ---------------------------------------------------------------- *)

let alloc_f32 ctx (n : int) : Addr.t = Mem.alloc ctx.rt.Hostrt.Rt.host_mem (4 * n)

let mem_of ctx (a : Addr.t) : Mem.t =
  match Addr.space a with
  | Addr.Host -> ctx.rt.Hostrt.Rt.host_mem
  | Addr.Global -> (driver ctx).Driver.global
  | Addr.Shared _ | Addr.Local _ | Addr.Strings -> invalid_arg "mem_of: device-internal space"

(* Bounds-checked little-endian 32-bit load, as [Bytes.get_int32_le] but
   defined here so that ocamlopt inlines it and the loaded word stays
   unboxed; the Stdlib call boxes it, which doubles the per-element cost
   of a readback loop. *)
external get_int32_ne : Bytes.t -> int -> int32 = "%caml_bytes_get32"

external swap32 : int32 -> int32 = "%bswap_int32"

let get_int32_le b i = if Sys.big_endian then swap32 (get_int32_ne b i) else get_int32_ne b i

let set_f32 ctx (a : Addr.t) (i : int) (v : float) : unit =
  let m = mem_of ctx a in
  Bytes.set_int32_le m.Mem.data (Addr.off a + (4 * i)) (Int32.bits_of_float v)

let get_f32 ctx (a : Addr.t) (i : int) : float =
  let m = mem_of ctx a in
  Int32.float_of_bits (get_int32_le m.Mem.data (Addr.off a + (4 * i)))

(* Bulk helpers resolve the memory once and touch its bytes directly,
   one bounds-checked 4-byte access per element (an out-of-range element
   raises [Invalid_argument]).  Fills re-read [m.data] per element so a
   value closure that grows the memory cannot strand the writes. *)
let fill_f32 ctx (a : Addr.t) (n : int) (f : int -> float) : unit =
  let m = mem_of ctx a and base = Addr.off a in
  for i = 0 to n - 1 do
    Bytes.set_int32_le m.Mem.data (base + (4 * i)) (Int32.bits_of_float (f i))
  done

let read_f32_array ctx (a : Addr.t) (n : int) : float array =
  let d = (mem_of ctx a).Mem.data and base = Addr.off a in
  let r = Array.create_float n in
  for i = 0 to n - 1 do
    r.(i) <- Int32.float_of_bits (get_int32_le d (base + (4 * i)))
  done;
  r

(* Copy [n] float32 elements between host arrays in one blit. *)
let copy_f32 ctx ~(src : Addr.t) ~(dst : Addr.t) (n : int) : unit =
  Bytes.blit (mem_of ctx src).Mem.data (Addr.off src) (mem_of ctx dst).Mem.data (Addr.off dst) (4 * n)

(* int32 host arrays, for integer-reduction workloads *)
let alloc_i32 = alloc_f32

let set_i32 ctx (a : Addr.t) (i : int) (v : int) : unit =
  let m = mem_of ctx a in
  Bytes.set_int32_le m.Mem.data (Addr.off a + (4 * i)) (Int32.of_int v)

let get_i32 ctx (a : Addr.t) (i : int) : int =
  let m = mem_of ctx a in
  Int32.to_int (get_int32_le m.Mem.data (Addr.off a + (4 * i)))

let fill_i32 ctx (a : Addr.t) (n : int) (f : int -> int) : unit =
  let m = mem_of ctx a and base = Addr.off a in
  for i = 0 to n - 1 do
    Bytes.set_int32_le m.Mem.data (base + (4 * i)) (Int32.of_int (f i))
  done

let read_i32_array ctx (a : Addr.t) (n : int) : int array =
  let d = (mem_of ctx a).Mem.data and base = Addr.off a in
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    r.(i) <- Int32.to_int (get_int32_le d (base + (4 * i)))
  done;
  r

let checksum ctx (a : Addr.t) (n : int) : float =
  let d = (mem_of ctx a).Mem.data and base = Addr.off a in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. Float.abs (Int32.float_of_bits (get_int32_le d (base + (4 * i))))
  done;
  !acc

(* Maximum relative error against a reference array. *)
let max_rel_error (got : float array) (want : float array) : float =
  let err = ref 0.0 in
  Array.iteri
    (fun i w ->
      let g = got.(i) in
      let scale = Float.max 1e-3 (Float.abs w) in
      let e = Float.abs (g -. w) /. scale in
      if e > !err then err := e)
    want;
  !err

(* ---------------------------------------------------------------- *)
(* CUDA-variant helpers                                               *)
(* ---------------------------------------------------------------- *)

(* Compile + load a hand-written CUDA kernel file (cached per ctx). *)
let cuda_module ctx ~(name : string) ~(source : string) : Driver.loaded_module =
  match List.assoc_opt name ctx.cuda_modules with
  | Some m -> m
  | None ->
    let program = Minic.Parser.parse_program source in
    (match Minic.Typecheck.check_program ~cuda:true program with
    | [] -> ()
    | errs -> failwith (Printf.sprintf "CUDA kernel '%s' type errors: %s" name (String.concat "; " errs)));
    let artifact = Nvcc.compile ~mode:ctx.rt.Hostrt.Rt.binary_mode ~name program in
    let m = Driver.load_module (driver ctx) artifact in
    ctx.cuda_modules <- (name, m) :: ctx.cuda_modules;
    m

(* Launch with argument coercion against the kernel's parameter types
   (the offload path's binding rules: a pointer value binds as a mapped
   argument at its own address). *)
let launch_cuda ctx (m : Driver.loaded_module) ~(entry : string) ~(grid : Simt.dim3)
    ~(block : Simt.dim3) (args : Value.t list) : Driver.launch_stats =
  let values =
    Hostrt.Offload.coerce_args m ~entry ~address:Fun.id
      (List.map
         (function Value.VPtr (a, _) -> Hostrt.Offload.Mapped a | v -> Hostrt.Offload.Scalar v)
         args)
  in
  let total_blocks = Simt.dim3_total grid in
  let block_filter = Hostrt.Rt.sampling_filter ~total_blocks ctx.rt.Hostrt.Rt.sample_max_blocks in
  let stats =
    Driver.launch_kernel (driver ctx) ~modul:m ~entry ~grid ~block ~args:values
      ~install_builtins:Devrt.Api.install ?block_filter ()
  in
  ctx.cuda_launches <- stats :: ctx.cuda_launches;
  stats

(* Device buffers for the CUDA variant (explicit cudaMalloc/cudaMemcpy
   style, as in the Polybench CUDA codes). *)
let dev_alloc ctx (bytes : int) : Addr.t = Driver.mem_alloc (driver ctx) bytes

let h2d ctx ~(src : Addr.t) ~(dst : Addr.t) ~(bytes : int) =
  Driver.memcpy_h2d (driver ctx) ~host:ctx.rt.Hostrt.Rt.host_mem ~src ~dst ~len:bytes

let d2h ctx ~(src : Addr.t) ~(dst : Addr.t) ~(bytes : int) =
  Driver.memcpy_d2h (driver ctx) ~host:ctx.rt.Hostrt.Rt.host_mem ~src ~dst ~len:bytes

let dev_free ctx (a : Addr.t) = Driver.mem_free (driver ctx) a

(* ---------------------------------------------------------------- *)
(* OpenMP-variant helpers                                             *)
(* ---------------------------------------------------------------- *)

type omp_program = {
  op_compiled : Ompi.compiled option; (* None for the host-interpreter lowering *)
  op_ctx : Cinterp.Interp.t; (* interpreter over the translated (or stripped) host code *)
}

(* Compile an OpenMP source and prepare its translated host program for
   interpretation inside this harness's runtime.  With [~host_interp],
   the program is instead lowered sequentially (directives stripped) and
   interpreted entirely on the host — the device-free reference that the
   differential tests compare offloaded results against. *)
let prepare_omp ?(host_interp = false) ctx ~(name : string) (source : string) : omp_program =
  if host_interp then begin
    let program = Minic.Parser.parse_program source in
    let program = Omp.Rewrite.rewrite_program program in
    let program = Translator.Strip.strip_program program in
    let ictx = Hostrt.Hostexec.make_context ctx.rt program in
    { op_compiled = None; op_ctx = ictx }
  end
  else begin
    let compiled = Ompi.compile ~name source in
    let tr = ctx.rt.Hostrt.Rt.trace in
    List.iter
      (fun (k : Translator.Kernelgen.kernel) ->
        let artifact =
          Nvcc.compile ?trace:tr ~mode:ctx.rt.Hostrt.Rt.binary_mode
            ~name:k.Translator.Kernelgen.k_entry k.Translator.Kernelgen.k_program
        in
        for d = 0 to Hostrt.Rt.num_devices ctx.rt - 1 do
          Hostrt.Rt.register_kernel ctx.rt ~dev:d artifact
        done)
      compiled.Ompi.c_kernels;
    let ictx = Hostrt.Hostexec.make_context ctx.rt compiled.Ompi.c_host in
    { op_compiled = Some compiled; op_ctx = ictx }
  end

(* Call a function of the translated host program with OCaml-prepared
   arguments (host-memory pointers and scalars). *)
let call_omp (p : omp_program) (fn : string) (args : Value.t list) : unit =
  let fd =
    match Hashtbl.find_opt p.op_ctx.Cinterp.Interp.funcs fn with
    | Some fd -> fd
    | None -> failwith (Printf.sprintf "translated program has no function '%s'" fn)
  in
  ignore (Cinterp.Interp.call_fundef p.op_ctx fd args)

let fptr (a : Addr.t) = Value.ptr ~ty:Cty.Float a

let vint (i : int) = Value.of_int i

let vf32 (f : float) = Value.flt ~ty:Cty.Float f

(* ---------------------------------------------------------------- *)
(* Measurement                                                        *)
(* ---------------------------------------------------------------- *)

(* Charge the occupancy penalty of every translated launch recorded
   since the last charge: [(penalty blocks - 1) * bd_time_ns] on top of
   the time the launch already advanced.  A launch is translated unless
   it came through [launch_cuda]. *)
let charge_penalty ctx : unit =
  let ns = ref 0.0 in
  Array.iteri
    (fun i (d : Hostrt.Rt.device) ->
      let log = d.Hostrt.Rt.dev_driver.Driver.launches in
      let rec walk = function
        | l when l == ctx.charged.(i) -> ()
        | [] -> ()
        | (st : Driver.launch_stats) :: rest ->
          if not (List.memq st ctx.cuda_launches) then
            ns :=
              !ns
              +. (ctx.translated_penalty (Simt.dim3_total st.Driver.st_grid) -. 1.0)
                 *. st.Driver.st_breakdown.Costmodel.bd_time_ns;
          walk rest
      in
      walk log;
      ctx.charged.(i) <- log)
    ctx.rt.Hostrt.Rt.devices;
  ctx.cuda_launches <- [];
  if !ns > 0.0 then begin
    (match ctx.rt.Hostrt.Rt.trace with
    | Some tr ->
      Perf.Trace.instant tr ~cat:"launch" "occupancy_penalty" ~args:[ ("ns", Perf.Trace.Float !ns) ]
    | None -> ());
    Simclock.advance_ns ctx.rt.Hostrt.Rt.clock !ns
  end

(* The window's simulated time, penalty included.  Translated launches
   made outside any window are charged when the next window opens,
   before it starts, so nested windows charge each launch once. *)
let measure ctx (f : unit -> unit) : float =
  charge_penalty ctx;
  let t0 = Simclock.now_s ctx.rt.Hostrt.Rt.clock in
  f ();
  charge_penalty ctx;
  Simclock.now_s ctx.rt.Hostrt.Rt.clock -. t0

type result = {
  r_app : string;
  r_variant : variant;
  r_n : int;
  r_time_s : float;
  r_verified : bool option; (* Some ok at validation sizes, None when sampled *)
}
