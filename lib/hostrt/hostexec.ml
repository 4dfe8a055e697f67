(* Executes a translated host program (mini-C) on the closure JIT —
   the executor the kernels use — or, in a runtime configured with
   [jit = false], on the reference tree-walker, with the ORT runtime entry points
   installed as builtins.  This is the execution half of `ompirun`: the
   translator turns target constructs into ort_* calls, and those calls
   land here, driving the data environment and the simulated device. *)

open Machine
open Minic

exception Host_error of string

let host_error fmt = Format.kasprintf (fun s -> raise (Host_error s)) fmt

type run_result = { rr_output : string; rr_exit : int; rr_time_s : float }

let int_arg = Value.to_int

let install_ort_builtins (rt : Rt.t) (tbl : Cinterp.Interp.builtins) : unit =
  let open Cinterp.Interp in
  let reg = register_builtin tbl in
  (* Generated ort_* calls carry a device id: -1 = "the current default
     device" (resolved here, so omp_set_default_device takes effect at
     call time), n >= 0 = an explicit device(n) clause.  A device number
     beyond omp_get_num_devices() raises a graceful Map_error — the
     directive is well-formed, the runtime just has no such device. *)
  let resolve_dev raw =
    let raw = int_arg raw in
    if raw < 0 then Rt.get_default_device rt
    else if raw >= Rt.num_devices rt then
      raise
        (Dataenv.Map_error
           (Printf.sprintf "device(%d): no such device (omp_get_num_devices() = %d)" raw
              (Rt.num_devices rt)))
    else raw
  in
  (* A region whose device is (or has just been declared) dead: declare
     it dead, record the fallback, and return 0 so the generated code
     runs the region's sequential body inline. *)
  let host_fallback (device : Rt.device) ~kernel_file reason =
    Dataenv.declare_dead device.Rt.dev_dataenv ~reason;
    (match rt.Rt.trace with
    | Some tr ->
      Perf.Trace.instant tr ~cat:"fault" "host_fallback"
        ~args:[ ("kernel_file", Perf.Trace.Str kernel_file); ("reason", Perf.Trace.Str reason) ]
    | None -> ());
    Value.of_int 0
  in
  reg "ort_map" (F4 (fun _ dev h bytes mt ->
      let device = Rt.device rt (resolve_dev dev) in
      let mt, always = Dataenv.decode_map_code (int_arg mt) in
      Value.ptr
        (Dataenv.map ~always device.Rt.dev_dataenv (Value.as_addr h) ~bytes:(int_arg bytes) mt)));
  reg "ort_unmap" (F3 (fun _ dev h mt ->
      let device = Rt.device rt (resolve_dev dev) in
      let mt, always = Dataenv.decode_map_code (int_arg mt) in
      Dataenv.unmap ~always device.Rt.dev_dataenv (Value.as_addr h) mt;
      Value.VVoid));
  reg "ort_update_to" (F3 (fun _ dev h bytes ->
      Dataenv.update_to (Rt.device rt (resolve_dev dev)).Rt.dev_dataenv (Value.as_addr h)
        ~bytes:(int_arg bytes);
      Value.VVoid));
  reg "ort_update_from" (F3 (fun _ dev h bytes ->
      Dataenv.update_from (Rt.device rt (resolve_dev dev)).Rt.dev_dataenv (Value.as_addr h)
        ~bytes:(int_arg bytes);
      Value.VVoid));
  (* Returns 1 when the kernel ran on the device, 0 when the device is
     (or has just been declared) dead — generated host code then runs
     the target region's sequential body inline:
       if (!ort_offload(...)) { <stripped region body> } *)
  reg "ort_offload" (V5 (fun ctx raw file entry teams threads kargs ->
      let dev = resolve_dev raw in
      let kernel_file = read_c_string ctx (Value.as_addr file) in
      let entry = read_c_string ctx (Value.as_addr entry) in
      try
        let args = List.map (fun v -> Offload.Mapped (Value.as_addr v)) kargs in
        let num_teams = int_arg teams and num_threads = int_arg threads in
        let output =
          (* default-device launches shard across the farm; an
             explicit device(n) pins the region to that device *)
          if int_arg raw < 0 then
            (Multidev.launch rt ~dev ~kernel_file ~entry ~num_teams ~num_threads ~args)
              .Multidev.r_output
          else
            (Offload.launch rt ~dev ~kernel_file ~entry ~num_teams ~num_threads ~args)
              .Offload.r_output
        in
        Buffer.add_string ctx.output output;
        Value.of_int 1
      with Resilience.Device_dead reason -> host_fallback (Rt.device rt dev) ~kernel_file reason));
  (* Asynchronous variant for `target ... nowait`: the region's maps
     travel with the call as (base, bytes, map_type) triples —
       ort_offload_nowait(dev, file, entry, teams, threads,
                          base1, bytes1, mt1, ..., basek, bytesk, mtk)
     — because the whole map/launch/unmap sequence is enqueued as one
     stream task.  Same 1/0 protocol as ort_offload: on device death the
     queue is quiesced and 0 routes the generated code to the inline
     sequential body. *)
  reg "ort_offload_nowait" (V5 (fun ctx dev file entry teams threads mapargs ->
      let dev = resolve_dev dev in
      let kernel_file = read_c_string ctx (Value.as_addr file) in
      let entry = read_c_string ctx (Value.as_addr entry) in
      let rec triples = function
        | [] -> []
        | base :: bytes :: mt :: rest ->
          let am_map, am_always = Dataenv.decode_map_code (int_arg mt) in
          { Offload.am_base = Value.as_addr base; am_bytes = int_arg bytes; am_map; am_always }
          :: triples rest
        | _ -> host_error "ort_offload_nowait: map arguments not in (base, bytes, type) triples"
      in
      let maps = triples mapargs in
      try
        let output =
          Offload.launch_nowait rt ~dev ~kernel_file ~entry ~num_teams:(int_arg teams)
            ~num_threads:(int_arg threads) ~maps
        in
        Buffer.add_string ctx.output output;
        Value.of_int 1
      with Resilience.Device_dead reason ->
        Offload.quiesce rt ~dev;
        host_fallback (Rt.device rt dev) ~kernel_file reason));
  (* generated code passes the device id; the -1 sentinel drains every
     device's queue *)
  reg "ort_taskwait" (F1 (fun _ dev ->
      if int_arg dev < 0 then
        Array.iter (fun (d : Rt.device) -> Offload.taskwait rt ~dev:d.Rt.dev_id) rt.Rt.devices
      else Offload.taskwait rt ~dev:(resolve_dev dev);
      Value.VVoid));
  reg "omp_get_wtime" (F0 (fun _ -> Value.flt ~ty:Cty.Double (Rt.now_s rt)));
  reg "omp_get_num_devices" (F0 (fun _ -> Value.of_int (Rt.num_devices rt)));
  reg "omp_set_default_device" (F1 (fun _ d ->
      Rt.set_default_device rt (int_arg d);
      Value.VVoid));
  reg "omp_get_default_device" (F0 (fun _ -> Value.of_int (Rt.get_default_device rt)));
  reg "omp_is_initial_device" (F0 (fun _ -> Value.of_int 1));
  (* The host side runs the program single-threaded (host parallelism is
     outside the paper's scope); the API remains available. *)
  reg "omp_get_thread_num" (F0 (fun _ -> Value.of_int 0));
  reg "omp_get_num_threads" (F0 (fun _ -> Value.of_int 1));
  reg "malloc" (F1 (fun _ n -> Value.ptr ~ty:Cty.Void (Mem.alloc rt.Rt.host_mem (int_arg n))));
  reg "free" (F1 (fun _ p ->
      Mem.free rt.Rt.host_mem (Value.as_addr p);
      Value.VVoid))

let host_code = Addr.code_of_space Addr.Host

let make_context (rt : Rt.t) (program : Ast.program) : Cinterp.Interp.t =
  let structs = Cty.create_layout_env () in
  let funcs = Hashtbl.create 32 in
  let resolve (a : Addr.t) =
    if (a :> int) land Addr.code_mask = host_code then rt.Rt.host_mem
    else
      match Addr.space a with
      | Addr.Global ->
        (* Direct dereferences of device pointers from host code are a bug
           in the translated program; unified memory is not modelled. *)
        host_error "host code dereferenced a device pointer"
      | Addr.Shared _ | Addr.Local _ -> host_error "host code accessed device-internal memory"
      | Addr.Host | Addr.Strings ->
        host_error "unreachable: host is resolved above, strings inside the interpreter"
  in
  (* host locals live in host memory, in the stack segments [Rt.create]
     carved there: a frame never moves the heap's [brk]; host steps are
     counted into the clock's tally, which charges them to simulated
     time ([Rt.host_step_cost_ns] each) before the clock is next read *)
  let ctx =
    Cinterp.Interp.create ~structs ~funcs ~resolve ~local:rt.Rt.host_mem
      ~tally:(Simclock.host_steps rt.Rt.clock) ()
  in
  Cinterp.Interp.install_common_builtins ctx.Cinterp.Interp.builtins;
  install_ort_builtins rt ctx.Cinterp.Interp.builtins;
  let env, program = Cinterp.Interp.load_program ctx program in
  (* The host program runs on the same closure JIT as the kernels,
     compiled once here against this context's own builtin and function
     tables; a function the JIT leaves out runs on the tree-walker.  No
     closure_compile trace event: that counts module loads. *)
  if Rt.jit rt then begin
    let compiled = Cinterp.Jit.compile ~env ~funcs in
    Cinterp.Jit.attach (Cinterp.Jit.link compiled ~builtins:ctx.Cinterp.Interp.builtins ~funcs) ctx
  end;
  (* allocate and initialise host globals *)
  Cinterp.Interp.push_frame ctx;
  List.iter
    (function
      | Ast.Gvar (d, _) ->
        let addr = Mem.alloc rt.Rt.host_mem (Cty.sizeof structs d.Ast.d_ty) in
        Cinterp.Interp.register_global ctx d.Ast.d_name d.Ast.d_ty addr;
        Option.iter (fun init -> Cinterp.Interp.exec_init ctx addr d.Ast.d_ty init) d.Ast.d_init
      | Ast.Gfun _ | Ast.Gstruct _ | Ast.Gfundecl _ | Ast.Gpragma _ -> ())
    program;
  ctx

(* Run [entry] (default "main") of a translated host program. *)
let run (rt : Rt.t) (program : Ast.program) ?(entry = "main") ?(args = []) () : run_result =
  let ctx = make_context rt program in
  let t0 = Rt.now_s rt in
  let fd =
    match Hashtbl.find_opt ctx.Cinterp.Interp.funcs entry with
    | Some fd -> fd
    | None -> host_error "host program has no '%s' function" entry
  in
  let ret = Cinterp.Interp.call_fundef ctx fd args in
  (* Implicit end-of-program barrier: nowait regions still queued when
     the entry returns complete here, so the reported simulated time
     covers them. *)
  Array.iter (fun (d : Rt.device) -> Async.wait_all d.Rt.dev_async) rt.Rt.devices;
  let exit_code = match ret with Value.VVoid -> 0 | v -> Value.to_int v in
  {
    rr_output = Buffer.contents ctx.Cinterp.Interp.output;
    rr_exit = exit_code;
    rr_time_s = Rt.now_s rt -. t0;
  }
