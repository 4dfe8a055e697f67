(* The cudadev host module's central operation: kernel launch in three
   phases (paper §4.2.1):
   1. loading    — locate the kernel file, load (JIT if PTX) the module;
   2. parameters — translate each host argument to its device image
                   through the data environment;
   3. launch     — set grid/block dimensions and call cuLaunchKernel. *)

open Machine
open Gpusim

type arg =
  | Mapped of Addr.t (* host address of a mapped variable: passed as device pointer *)
  | Scalar of Value.t (* passed by value *)

type result = { r_stats : Driver.launch_stats; r_output : string }

(* The three phases are spans in the launch trace (category "launch"),
   named exactly as the paper names them, so phase-level overheads can
   be measured and regression-tested. *)
let phase (rt : Rt.t) ?(args = []) (name : string) (f : unit -> 'a) : 'a =
  match rt.Rt.trace with
  | Some tr -> Perf.Trace.with_span tr ~args ~cat:"launch" name f
  | None -> f ()

(* Launching on a device that was declared dead is pointless: fail fast
   so the caller (ort_offload) takes the host fallback path. *)
let check_alive (device : Rt.device) : unit =
  match Dataenv.dead_reason device.Rt.dev_dataenv with
  | Some reason -> raise (Resilience.Device_dead reason)
  | None -> ()

(* Retry-wrap a fallible launch phase under the runtime's policy.  On a
   corrupt-cache fault the artifact's JIT cache entry and any resident
   module are dropped before the retry, so the recovery recompiles —
   visible as a jit_compile event following the fault. *)
let resilient (rt : Rt.t) (device : Rt.device) ~(artifact : Nvcc.artifact) ~label f =
  let driver = device.Rt.dev_driver in
  Resilience.run ~clock:rt.Rt.clock ?trace:rt.Rt.trace ~policy:rt.Rt.fault_policy
    ~on_fault:(fun _site kind ->
      match kind with
      | Faults.Corrupt_cache ->
        (* drops the disk-cache entry AND the resident module (whose
           closure-compiled kernels came from the corrupt entry), so
           the retry re-JITs the PTX and re-runs the closure compile *)
        Nvcc.invalidate ~jit_cache:driver.Driver.jit_cache ~modules:driver.Driver.modules
          artifact
      | Faults.Transient | Faults.Fatal -> ())
    ~label f

(* Phase 1 (loading), shared by every launch flavour: locate the kernel
   file and load (JIT if PTX) the module, retry-wrapped. *)
let load_phase (rt : Rt.t) (device : Rt.device) ~(kernel_file : string) :
    Nvcc.artifact * Driver.loaded_module =
  let artifact = Rt.find_kernel rt ~dev:device.Rt.dev_id kernel_file in
  let modul =
    phase rt "load"
      ~args:[ ("kernel_file", Perf.Trace.Str kernel_file) ]
      (fun () ->
        resilient rt device ~artifact ~label:"load" (fun () ->
            Driver.load_module device.Rt.dev_driver artifact))
  in
  (artifact, modul)

(* Steady-state fast path: when the same (kernel file, entry) launches
   again and its module is still resident in the driver, the cached
   artifact/module handles are reused and the loading phase collapses to
   nothing — not even the residency-check driver call — leaving only the
   launch phase.  Validity is re-checked against the driver's module
   table on every hit, so context resets and corrupt-cache invalidation
   (which clear/remove modules) transparently fall back to the full
   path.  A module_resident instant is still emitted so traces keep
   showing the residency of the relaunch. *)
let try_fast_path (rt : Rt.t) (device : Rt.device) ~(kernel_file : string) ~(entry : string) :
    Rt.launch_cache option =
  match device.Rt.dev_launch_cache with
  | Some c
    when String.equal c.Rt.lc_file kernel_file
         && String.equal c.Rt.lc_entry entry
         && Hashtbl.mem device.Rt.dev_driver.Driver.modules c.Rt.lc_artifact.Nvcc.art_hash ->
    c.Rt.lc_hits <- c.Rt.lc_hits + 1;
    (match rt.Rt.trace with
    | Some tr ->
      Perf.Trace.instant tr ~cat:"load" "module_resident"
        ~args:[ ("module", Perf.Trace.Str c.Rt.lc_artifact.Nvcc.art_name) ];
      Perf.Trace.instant tr ~cat:"launch" "launch_fast_path"
        ~args:[ ("entry", Perf.Trace.Str entry); ("hits", Perf.Trace.Int c.Rt.lc_hits) ]
    | None -> ());
    Some c
  | _ -> None

(* Bind launch arguments to the entry's declared parameters, so pointer
   arithmetic inside the kernel uses the right element sizes: a scalar
   is cast to its parameter type, a mapped argument becomes a pointer to
   the parameter's element type at [address haddr] (its device image,
   or the host address itself when the host runs the kernel). *)
let coerce_args (modul : Driver.loaded_module) ~(entry : string) ~(address : Addr.t -> Addr.t)
    (args : arg list) : Value.t list =
  let params = (Driver.get_function modul entry).Minic.Ast.f_params in
  if List.length params <> List.length args then
    Rt.ort_error "kernel '%s' expects %d parameters, got %d" entry (List.length params)
      (List.length args);
  List.map2
    (fun (_, pty) a ->
      match a with
      | Scalar v -> Value.cast (Cty.decay pty) v
      | Mapped haddr -> (
        let addr = address haddr in
        match Cty.decay pty with
        | Cty.Ptr elt -> Value.ptr ~ty:elt addr
        | ty ->
          Rt.ort_error "mapped argument bound to non-pointer kernel parameter %s" (Cty.show ty)))
    params args

(* Phase 3 (launch), shared by both launch flavours: grid/block
   geometry, the runtime's block sampling filter and the retry-wrapped
   launch, on [stream] or (without one) on the device's null stream. *)
let launch_phase (rt : Rt.t) (device : Rt.device) ?stream ~artifact ~modul ~entry ~num_teams
    ~num_threads (values : Value.t list) : Driver.launch_stats =
  let grid, block = Rt.geometry ~num_teams ~num_threads in
  let block_filter =
    Rt.sampling_filter ~total_blocks:(Simt.dim3_total grid) rt.Rt.sample_max_blocks
  in
  phase rt "launch"
    ~args:[ ("entry", Perf.Trace.Str entry) ]
    (fun () ->
      resilient rt device ~artifact ~label:"launch" (fun () ->
          Driver.launch_kernel device.Rt.dev_driver ?stream ~modul ~entry ~grid ~block
            ~args:values ?block_filter ()))

(* A `target ... nowait` region's mapped operand: the region owns its
   whole map/launch/unmap sequence, so the maps travel with the launch
   instead of arriving as separate ort_map calls. *)
type async_map = {
  am_base : Addr.t;
  am_bytes : int;
  am_map : Dataenv.map_type;
  am_always : bool;
}

(* Host byte ranges a region reads and writes, per its map clauses: the
   dependency tracker serializes regions whose ranges intersect.  Alloc
   moves no host data but shares the (refcounted) device buffer with any
   overlapping mapping, so it counts as a write to stay serialized. *)
let access_sets (maps : async_map list) : Async.range list * Async.range list =
  let range m = Async.range_of_addr m.am_base ~bytes:m.am_bytes in
  let reads =
    List.filter_map
      (fun m -> match m.am_map with Dataenv.To | Dataenv.Tofrom -> Some (range m) | _ -> None)
      maps
  in
  let writes =
    List.filter_map
      (fun m ->
        match m.am_map with
        | Dataenv.From | Dataenv.Tofrom | Dataenv.Alloc -> Some (range m)
        | Dataenv.To -> None)
      maps
  in
  (reads, writes)

(* Asynchronous launch (`target ... nowait`): the region is submitted to
   the device's stream tracker, which serializes it behind conflicting
   in-flight regions and otherwise overlaps it with them.  The submitted
   work maps the operands, launches, and unmaps — all on one stream.
   Returns the device-side printf output (available immediately: memory
   effects are eager).  Raises [Resilience.Device_dead] like the sync
   path; the caller takes the host-fallback route. *)
let launch_nowait (rt : Rt.t) ~(dev : int) ~(kernel_file : string) ~(entry : string)
    ~(num_teams : int) ~(num_threads : int) ~(maps : async_map list) : string =
  let device = Rt.device rt dev in
  check_alive device;
  let denv = device.Rt.dev_dataenv in
  (* Phase 1 (loading) is a CPU-side driver call: synchronous, as in the
     sync path. *)
  let artifact, modul = load_phase rt device ~kernel_file in
  let reads, writes = access_sets maps in
  Async.submit device.Rt.dev_async ~label:entry ~reads ~writes (fun stream ->
      (* Phase 2: map the operands on this stream and coerce the device
         addresses against the kernel's parameter types. *)
      let values =
        phase rt "parameter_preparation"
          ~args:[ ("nargs", Perf.Trace.Int (List.length maps)) ]
          (fun () ->
            coerce_args modul ~entry ~address:Fun.id
              (List.map
                 (fun m ->
                   Mapped
                     (Dataenv.map ~always:m.am_always ~stream denv m.am_base ~bytes:m.am_bytes
                        m.am_map))
                 maps))
      in
      (* The maps may have exhausted their retries and killed the device;
         launching on host addresses would be meaningless. *)
      (match Dataenv.dead_reason denv with
      | Some reason -> raise (Resilience.Device_dead reason)
      | None -> ());
      (* Phase 3: enqueue the launch behind the transfers. *)
      ignore
        (launch_phase rt device ~stream ~artifact ~modul ~entry ~num_teams ~num_threads values);
      (* Copy-backs, reverse map order (mirrors the sync lowering). *)
      List.iter
        (fun m -> Dataenv.unmap ~always:m.am_always ~stream denv m.am_base m.am_map)
        (List.rev maps);
      Driver.take_output device.Rt.dev_driver)

(* Barrier over every queued nowait region of [dev] (ort_taskwait and
   the end-of-data-environment barrier). *)
let taskwait (rt : Rt.t) ~(dev : int) : unit = Async.wait_all (Rt.device rt dev).Rt.dev_async

(* Device died with regions queued: drop the queue on a coherent
   timeline before running the host fallback. *)
let quiesce (rt : Rt.t) ~(dev : int) : unit = Async.quiesce (Rt.device rt dev).Rt.dev_async

let launch (rt : Rt.t) ~(dev : int) ~(kernel_file : string) ~(entry : string) ~(num_teams : int)
    ~(num_threads : int) ~(args : arg list) : result =
  let device = Rt.device rt dev in
  check_alive device;
  let fast = try_fast_path rt device ~kernel_file ~entry in
  (* Phase 1: loading (skipped entirely on the fast path). *)
  let artifact, modul =
    match fast with
    | Some c -> (c.Rt.lc_artifact, c.Rt.lc_modul)
    | None -> load_phase rt device ~kernel_file
  in
  (* Phase 2: parameter preparation (on the fast path without the phase
     span; a full-path launch then (re)fills the cache slot). *)
  let mk_values () =
    coerce_args modul ~entry ~address:(Dataenv.lookup_exn device.Rt.dev_dataenv) args
  in
  let values =
    match fast with
    | Some _ -> mk_values ()
    | None ->
      let nargs = Perf.Trace.Int (List.length args) in
      let values = phase rt "parameter_preparation" ~args:[ ("nargs", nargs) ] mk_values in
      device.Rt.dev_launch_cache <-
        Some
          { Rt.lc_file = kernel_file; lc_entry = entry; lc_artifact = artifact; lc_modul = modul;
            lc_hits = 0 };
      values
  in
  (* Phase 3: launch. *)
  let stats = launch_phase rt device ~artifact ~modul ~entry ~num_teams ~num_threads values in
  { r_stats = stats; r_output = Driver.take_output device.Rt.dev_driver }
