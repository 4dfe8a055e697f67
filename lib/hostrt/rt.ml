(* The ORT-style host runtime: device registry with lazy initialisation,
   kernel-file registry (OMPi keeps kernels as separate files located at
   run time, §3.3), and the three-phase kernel launch of the cudadev
   host module (§4.2.1). *)

open Machine
open Gpusim

exception Ort_error of string

let ort_error fmt = Format.kasprintf (fun s -> raise (Ort_error s)) fmt

(* Steady-state launch cache (one slot per device): the last
   (kernel file, entry) launched keeps its artifact/module handles so
   repeated launches of the same kernel skip the loading phase and the
   parameter-preparation span.  Offload validates
   residency against the driver's module table before every reuse, so
   context resets and corrupt-cache invalidation fall back to the full
   three-phase path. *)
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
  dev_async : Async.t; (* stream pool + dependency tracker for nowait regions *)
  (* the "kernel files next to the executable" *)
  dev_kernels : (string, Nvcc.artifact) Hashtbl.t;
  mutable dev_launch_cache : launch_cache option;
  (* dedicated stream for sharded sub-launches, created on first use so
     single-device runs pay nothing *)
  mutable dev_shard_stream : Driver.stream option;
}

(* The one run configuration: every setting a run fixes up front, from
   the CLIs through Ompi/Serve/Harness to each device.  [create] applies
   it once; nothing re-arms it afterwards. *)
type config = {
  binary_mode : Nvcc.binary_mode; (* CUBIN is OMPi's default (§3.3) *)
  spec : Spec.t;
  specs : Spec.t list; (* per-device spec overrides for heterogeneous farms *)
  devices : int; (* simultaneously-live device instances (--devices N) *)
  streams : int; (* stream-pool size for `target ... nowait` regions *)
  mem_policy : Mempolicy.sel; (* copy / elide / zero-copy / per-buffer auto (--mem-policy) *)
  jit : bool; (* run host program and kernels on the closure JIT (--no-jit: tree-walker) *)
  faults : Faults.rule list; (* fault-injection plan; [] = off *)
  fault_seed : int; (* seed for probabilistic fault rules *)
  max_retries : int option; (* retry-policy override; None = default *)
}

let default_config =
  {
    binary_mode = Nvcc.Cubin;
    spec = Spec.jetson_nano_2gb;
    specs = [];
    devices = 1;
    streams = Async.default_streams;
    mem_policy = Mempolicy.Forced Mempolicy.Copy;
    jit = true;
    faults = [];
    fault_seed = 42;
    max_retries = None;
  }

type t = {
  clock : Simclock.t;
  host_mem : Mem.t;
  cpu : Spec.cpu;
  devices : device array;
  mutable default_device : int;
  binary_mode : Nvcc.binary_mode;
  (* when set, launches simulate at most this many blocks (evenly
     spaced) and scale the measured counts to the full grid *)
  mutable sample_max_blocks : int option;
  (* launch-phase tracing; [set_trace] propagates it to the drivers *)
  mutable trace : Perf.Trace.t option;
  (* fault injection, armed on every driver at [create] *)
  faults : Faults.t option;
  (* retry/backoff policy, shared by every data environment *)
  fault_policy : Resilience.policy;
}

(* Evenly-spaced block sampling filter.  The sample is offset by half a
   stride so that boundary blocks (partially guarded out in most
   kernels) are not over-represented. *)
let sampling_filter ~(total_blocks : int) (max_blocks : int option) : (int -> bool) option =
  match max_blocks with
  | None -> None
  | Some k when total_blocks <= k -> None
  | Some k ->
    let stride = (total_blocks + k - 1) / k in
    let offset = stride / 2 in
    Some (fun b -> b mod stride = offset)

(* The simulated cost of one interpreted host step on [cpu]. *)
let step_cost_ns (cpu : Spec.cpu) = cpu.Spec.cycles_per_interp_step /. cpu.Spec.cpu_clock_hz *. 1e9

let create ?(config = default_config) () : t =
  let c = config in
  let positive what n =
    if n < 1 then invalid_arg (Printf.sprintf "Rt.create: %s must be positive (got %d)" what n)
  in
  positive "devices" c.devices;
  positive "streams" c.streams;
  let cpu = Spec.cortex_a57 in
  let clock = Simclock.create ~step_ns:(step_cost_ns cpu) () in
  let host_mem = Mem.create ~initial:(1 lsl 20) ~space:Addr.Host "host" in
  (* the host stack's first segment, from the initial storage: carved
     after the program's arrays it would sit at [brk] *)
  Mem.carve_stack host_mem;
  let faults =
    match c.faults with [] -> None | rules -> Some (Faults.create ~seed:c.fault_seed rules)
  in
  let inject = Option.map (fun f s -> Faults.hook f s) faults in
  let fault_policy =
    match c.max_retries with
    | Some n -> { Resilience.default_policy with Resilience.rp_max_retries = n }
    | None -> Resilience.default_policy
  in
  (* Heterogeneous farms: an explicit spec list overrides the shared
     [spec] position by position; missing positions fall back to [spec]. *)
  let spec_of id = match List.nth_opt c.specs id with Some s -> s | None -> c.spec in
  let make_device id =
    let driver = Driver.create ~spec:(spec_of id) ~ordinal:id clock in
    Driver.set_jit driver c.jit;
    Driver.set_inject driver inject;
    let dataenv = Dataenv.create ~host:host_mem ~driver in
    Dataenv.set_mem_mode dataenv c.mem_policy;
    Dataenv.set_policy dataenv fault_policy;
    let async = Async.create ~streams:c.streams driver in
    (* The data environment must refuse to unmap ranges with queued stream
       work, sync ranges before a `target update`, and advertise zero-copy
       pinned ranges so overlapping stream tasks serialize; it talks to
       the tracker through these closures (keeps Dataenv independent of
       Async). *)
    Dataenv.set_async_hooks dataenv
      ~register_pinned:(fun haddr ~bytes ->
        Async.register_pinned async (Async.range_of_addr haddr ~bytes))
      ~unregister_pinned:(fun haddr ~bytes ->
        Async.unregister_pinned async (Async.range_of_addr haddr ~bytes))
      ~pending:(fun haddr ~bytes -> Async.pending_on async (Async.range_of_addr haddr ~bytes) <> [])
      ~sync_range:(fun haddr ~bytes -> Async.sync_range async (Async.range_of_addr haddr ~bytes));
    {
      dev_id = id;
      dev_driver = driver;
      dev_dataenv = dataenv;
      dev_async = async;
      dev_kernels = Hashtbl.create 16;
      dev_launch_cache = None;
      dev_shard_stream = None;
    }
  in
  {
    clock;
    host_mem;
    cpu;
    devices = Array.init c.devices make_device;
    default_device = 0;
    binary_mode = c.binary_mode;
    sample_max_blocks = None;
    trace = None;
    faults;
    fault_policy;
  }

(* Attach (or detach) a trace ring; devices share the runtime's ring so
   host- and device-side events interleave on one timeline. *)
let set_trace t (trace : Perf.Trace.t option) : unit =
  t.trace <- trace;
  Array.iter (fun d -> Driver.set_trace d.dev_driver trace) t.devices

(* The executor [create] selected: the drivers hold the switch. *)
let jit t : bool = t.devices.(0).dev_driver.Driver.closure_jit

let device t id =
  if id < 0 || id >= Array.length t.devices then ort_error "no such device %d" id;
  t.devices.(id)

let default_dev t = device t t.default_device

let num_devices t = Array.length t.devices

(* omp_set_default_device / omp_get_default_device *)
let set_default_device t (id : int) : unit =
  if id < 0 || id >= Array.length t.devices then ort_error "no such device %d" id;
  t.default_device <- id

let get_default_device t = t.default_device

(* Device ids every shard planner considers live (context not torn down). *)
let live_devices t : device list =
  Array.to_list t.devices |> List.filter (fun d -> not (Dataenv.is_dead d.dev_dataenv))

(* Register a compiled kernel file with a device (what OMPi's scripts do
   by placing the nvcc output next to the executable). *)
let register_kernel t ~(dev : int) (artifact : Nvcc.artifact) : unit =
  Hashtbl.replace (device t dev).dev_kernels artifact.Nvcc.art_name artifact

let find_kernel t ~(dev : int) (name : string) : Nvcc.artifact =
  match Hashtbl.find_opt (device t dev).dev_kernels name with
  | Some a -> a
  | None -> ort_error "kernel file '%s' not found (was the program compiled with ompicc?)" name

(* Map the scalar num_teams / num_threads values onto CUDA grid/block
   dimensions.  CUDA limits each grid dimension to 65535, so large team
   counts are folded into two dimensions (paper §5: "ompi maps these
   values to two dimensions"). *)
let geometry ~(num_teams : int) ~(num_threads : int) : Simt.dim3 * Simt.dim3 =
  if num_teams <= 0 then ort_error "num_teams must be positive (got %d)" num_teams;
  if num_threads <= 0 then ort_error "num_threads must be positive (got %d)" num_threads;
  let grid =
    if num_teams <= 65535 then Simt.dim3 num_teams
    else begin
      let x = 65535 in
      Simt.dim3 x ~y:((num_teams + x - 1) / x)
    end
  in
  let block = if num_threads mod 32 = 0 then Simt.dim3 32 ~y:(num_threads / 32) else Simt.dim3 num_threads in
  (grid, block)

(* Host-side time accounting for interpreted host code: what the clock
   charges per counted host step. *)
let host_step_cost_ns t = step_cost_ns t.cpu

let now_s t = Simclock.now_s t.clock
