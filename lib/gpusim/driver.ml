(* CUDA-driver-style API over the simulated device: contexts, module
   loading, memory management, transfers and kernel launches.  This is
   the layer the paper's cudadev host module calls into (cuMemAlloc,
   cuMemcpyHtoD/DtoH, cuModuleLoad, cuLaunchKernel). *)

open Machine
open Minic

exception Cuda_error of string

let cuda_error fmt = Format.kasprintf (fun s -> raise (Cuda_error s)) fmt

type loaded_module = {
  lm_artifact : Nvcc.artifact;
  lm_source : Simt.kernel_source;
  (* closure-compiled form of the module's functions, produced once at
     load time (None when the driver's closure JIT is disabled) *)
  lm_compiled : Cinterp.Jit.compiled option;
}

type launch_stats = {
  st_entry : string;
  st_grid : Simt.dim3;
  st_block : Simt.dim3;
  st_breakdown : Costmodel.breakdown;
  st_blocks_simulated : int;
  st_blocks_total : int;
  st_counters : Counters.t; (* raw dynamic statistics of the launch *)
}

(* One allocation's log of written byte intervals (relative to the
   allocation base, most recent first, tagged with a monotonically
   increasing sequence number). *)
type store_log = {
  mutable sl_seq : int;
  mutable sl_items : (int * int * int) list; (* seq, lo, hi (exclusive) *)
}

(* A stream is a device-side work queue with its own timeline on the
   shared simulated clock: async enqueues advance only [str_done_ns];
   the global clock catches up to it at synchronization points.  The
   null stream (id 0, the host's trace timeline) carries every call
   made without a stream, and the call syncs it before returning. *)
type stream = {
  str_id : int; (* trace timeline ("tid"): 0 is the host and the null stream *)
  mutable str_done_ns : float; (* absolute sim time when the queue drains *)
}

type t = {
  spec : Spec.t;
  clock : Simclock.t;
  (* position in a multi-device farm: device 0 is the default device.
     Trace timelines are offset by [ordinal * 1000] so no two devices
     ever share a tid (tid 0 stays the host; device 0 keeps tids 1..N,
     exactly as in the single-device layout). *)
  ordinal : int;
  tid_base : int;
  global : Mem.t;
  (* the lanes (local memory and thread contexts), a device resource
     as in a CUDA context: grown to the widest block launched, reset by
     each launch *)
  lanes : Simt.pool;
  jit_cache : (string, unit) Hashtbl.t; (* survives across contexts: disk cache *)
  mutable initialized : bool;
  mutable context_alive : bool;
  modules : (string, loaded_module) Hashtbl.t;
  mutable allocs : (int * int * int) list; (* off, len, id *)
  mutable next_alloc_id : int;
  output : Buffer.t; (* device-side printf *)
  mutable launches : launch_stats list; (* most recent first *)
  mutable kernels_launched : int;
  mutable trace : Perf.Trace.t option; (* launch-phase tracing, off by default *)
  mutable inject : (string -> unit) option; (* fault-injection hook, off by default *)
  null_stream : stream; (* built here, survives [reset] *)
  mutable streams : stream list; (* created streams, in creation order *)
  mutable next_stream_id : int;
  (* The Nano has one copy engine and one compute engine: transfers
     serialize with transfers and kernels with kernels across every
     stream, the null stream included; only transfer/compute overlap is
     possible.  Each engine is a list of busy intervals (start_ns,
     end_ns) sorted by start: the hardware channels feed an engine with
     whichever queued op is READY, so placement is work-conserving
     first-fit rather than strict enqueue order. *)
  mutable copy_busy : (float * float) list;
  mutable compute_busy : (float * float) list;
  (* Unified-memory zero-copy: host ranges pinned via cuMemHostRegister,
     directly addressable from kernels (off, len, id in host space). *)
  mutable pinned : (int * int * int) list;
  mutable pinned_host : Mem.t option; (* the host image, Some iff pinned <> [] *)
  mutable next_pin_id : int;
  mutable zerocopy_total : int; (* zero-copy kernel accesses across launches *)
  (* Transfer-elision support: cumulative kernel stores per allocation id,
     and a conservative epoch bumped whenever a launch's store counts may
     be incomplete (block sampling) — any epoch change means "assume every
     allocation was written". *)
  dev_stores : (int, int) Hashtbl.t;
  dev_loads : (int, int) Hashtbl.t; (* cumulative kernel loads per allocation id *)
  (* Per-allocation log of written byte intervals (relative to the
     allocation base, most recent first).  A consumer snapshots the log
     length ([store_mark]) at its sync point and later asks for the
     intervals appended since ([stores_since]) — the union of those
     intervals is the bytes that may differ from the synced image, which
     is what per-page dirty tracking transfers. *)
  store_intervals : (int, store_log) Hashtbl.t;
  (* Cumulative zero-copy traffic per pinned-range id, folded in from
     each launch's counters: the policy's access-volume signal. *)
  pin_loads : (int, int) Hashtbl.t;
  pin_stores : (int, int) Hashtbl.t;
  mutable write_epoch : int;
  (* Closure JIT (compile kernel ASTs to OCaml closures at module load):
     on by default; the tree-walking interpreter remains the reference
     executor behind --no-jit. *)
  mutable closure_jit : bool;
}

(* Earliest start >= ready where the engine is idle for [dur]; returns
   the start and the busy list with the new interval inserted.
   Intervals that have drained (ending at or before [now]) are dropped;
   every other one constrains every op, so no two ops ever overlap on
   one engine, whatever stream they run on. *)
let engine_place busy ~(now : float) ~(ready : float) ~(dur : float) :
    float * (float * float) list =
  let busy = List.filter (fun (_, e) -> e > now) busy in
  let rec fit at = function
    | [] -> at
    | (s, e) :: rest -> if at +. dur <= s then at else fit (Float.max at e) rest
  in
  let start = fit ready busy in
  let rec insert = function
    | ((s, _) as iv) :: rest when s < start -> iv :: insert rest
    | l -> (start, start +. dur) :: l
  in
  (start, insert busy)

(* Tracing is optional and must cost nothing when off, so every emission
   goes through these guards. *)
let tr_instant t ?(args = []) ~cat name =
  match t.trace with Some tr -> Perf.Trace.instant tr ~args ~cat name | None -> ()

let tr_counter t ?(args = []) ~cat name =
  match t.trace with Some tr -> Perf.Trace.counter tr ~args ~cat name | None -> ()

let tr_begin t ?(args = []) ~cat name =
  match t.trace with Some tr -> Perf.Trace.begin_span tr ~args ~cat name | None -> ()

let tr_end t ?(args = []) ~cat name =
  match t.trace with Some tr -> Perf.Trace.end_span tr ~args ~cat name | None -> ()

let tr_complete t ?(args = []) ~tid ~ts_ns ~dur_ns ~cat name =
  match t.trace with
  | Some tr -> Perf.Trace.complete tr ~args ~tid ~cat ~ts_ns ~dur_ns name
  | None -> ()

(* Fault injection fires at operation entry, before any clock advance,
   memory mutation or span open — a failed call leaves no partial state
   and trace spans stay balanced. *)
let inj t site = match t.inject with Some f -> f site | None -> ()

let create ?(spec = Spec.jetson_nano_2gb) ?(ordinal = 0) (clock : Simclock.t) : t =
  {
    spec;
    clock;
    ordinal;
    tid_base = ordinal * 1000;
    global = Mem.create ~initial:(1 lsl 20) ~limit:spec.Spec.global_mem_bytes ~space:Addr.Global "device-global";
    lanes = Simt.create_pool ();
    jit_cache = Hashtbl.create 16;
    initialized = false;
    context_alive = false;
    modules = Hashtbl.create 16;
    allocs = [];
    next_alloc_id = 0;
    output = Buffer.create 256;
    launches = [];
    kernels_launched = 0;
    trace = None;
    inject = None;
    null_stream = { str_id = 0; str_done_ns = 0.0 };
    streams = [];
    next_stream_id = 1;
    copy_busy = [];
    compute_busy = [];
    pinned = [];
    pinned_host = None;
    next_pin_id = 0;
    zerocopy_total = 0;
    dev_stores = Hashtbl.create 16;
    dev_loads = Hashtbl.create 16;
    store_intervals = Hashtbl.create 16;
    pin_loads = Hashtbl.create 4;
    pin_stores = Hashtbl.create 4;
    write_epoch = 0;
    closure_jit = true;
  }

let set_trace t trace = t.trace <- trace

let set_jit t (on : bool) = t.closure_jit <- on

let set_inject t inject = t.inject <- inject

(* Lazy device initialisation (paper §4.2.1): the first real use pays
   for cuInit + primary-context creation, a sizeable cost on the Nano. *)
let ensure_initialized t =
  if not t.initialized then begin
    t.initialized <- true;
    t.context_alive <- true;
    tr_begin t ~cat:"init" "device_init";
    Simclock.advance_ms t.clock 180.0;
    tr_end t ~cat:"init" "device_init"
  end

let properties t =
  ensure_initialized t;
  t.spec

(* ---------------------------------------------------------------- *)
(* Memory management                                                  *)
(* ---------------------------------------------------------------- *)

let mem_alloc t (bytes : int) : Addr.t =
  ensure_initialized t;
  if bytes <= 0 then cuda_error "cuMemAlloc of %d bytes" bytes;
  inj t "alloc";
  Simclock.advance_us t.clock 6.0;
  let a = Mem.alloc t.global bytes in
  let id = t.next_alloc_id in
  t.next_alloc_id <- id + 1;
  t.allocs <- (Addr.off a, bytes, id) :: t.allocs;
  tr_instant t ~cat:"mem" "mem_alloc"
    ~args:[ ("bytes", Perf.Trace.Int bytes); ("alloc_id", Perf.Trace.Int id) ];
  a

let mem_free t (a : Addr.t) : unit =
  ensure_initialized t;
  Simclock.advance_us t.clock 4.0;
  let bytes =
    List.fold_left (fun acc (off, len, _) -> if off = Addr.off a then len else acc) 0 t.allocs
  in
  Mem.free t.global a;
  (* allocation ids are never reused, so dropping its logs is safe *)
  List.iter
    (fun (off, _, id) ->
      if off = Addr.off a then begin
        Hashtbl.remove t.store_intervals id;
        Hashtbl.remove t.dev_stores id;
        Hashtbl.remove t.dev_loads id
      end)
    t.allocs;
  t.allocs <- List.filter (fun (off, _, _) -> off <> Addr.off a) t.allocs;
  tr_instant t ~cat:"mem" "mem_free" ~args:[ ("bytes", Perf.Trace.Int bytes) ]

let transfer_cost t len = (float_of_int len /. t.spec.Spec.memcpy_bandwidth *. 1e9)
                          +. (t.spec.Spec.memcpy_latency_us *. 1e3)

(* CPU-side cost of issuing one driver call on a created stream
   (cuMemcpyHtoDAsync / cuMemcpyDtoHAsync): charged to the global (host)
   clock at enqueue, while the operation's full cost lands on the
   stream's timeline.  A call on the null stream pays none. *)
let async_api_overhead_us = 1.5

(* Put [dur] ns of work on [s] and one engine: it starts once the
   stream's earlier work and the engine are both free, never before the
   current time.  Returns the op's (start, finish). *)
let place t ~(copy : bool) (s : stream) (dur : float) : float * float =
  let now = Simclock.now_ns t.clock in
  let ready = Float.max now s.str_done_ns in
  let start, busy =
    engine_place (if copy then t.copy_busy else t.compute_busy) ~now ~ready ~dur
  in
  if copy then t.copy_busy <- busy else t.compute_busy <- busy;
  let finish = start +. dur in
  s.str_done_ns <- finish;
  (start, finish)

(* A created stream's op is traced as one Complete event on its own
   timeline, spanning the scheduled run. *)
let tr_async t (s : stream) ~start ~finish name args =
  tr_complete t ~tid:(t.tid_base + s.str_id) ~ts_ns:start ~dur_ns:(finish -. start) ~cat:"async"
    name
    ~args:(args @ [ ("stream", Perf.Trace.Int s.str_id); ("device", Perf.Trace.Int t.ordinal) ])

(* A copy's memory effect happens eagerly, in call (= host program)
   order; only its time is modelled on the stream.  Any enqueue order
   the dependency tracker admits therefore replays to the same memory
   image as the synchronous schedule.  On the null stream the host
   waits for the copy engine, then for the copy, inside a "transfer"
   span. *)
let memcpy t ?stream ~(site : string) ~(name : string) ~(len : int) (move : unit -> unit) : unit =
  inj t site;
  let cost = transfer_cost t len in
  match stream with
  | None ->
    let start, finish = place t ~copy:true t.null_stream cost in
    Simclock.advance_to t.clock start;
    tr_begin t ~cat:"transfer" name
      ~args:[ ("bytes", Perf.Trace.Int len); ("device", Perf.Trace.Int t.ordinal) ];
    move ();
    Simclock.advance_to t.clock finish;
    tr_end t ~cat:"transfer" name
  | Some s ->
    move ();
    Simclock.advance_us t.clock async_api_overhead_us;
    let start, finish = place t ~copy:true s cost in
    tr_async t s ~start ~finish name [ ("bytes", Perf.Trace.Int len) ]

let memcpy_h2d ?stream t ~(host : Mem.t) ~(src : Addr.t) ~(dst : Addr.t) ~(len : int) : unit =
  ensure_initialized t;
  if Addr.space dst <> Addr.Global then cuda_error "cuMemcpyHtoD: destination is not device memory";
  memcpy t ?stream ~site:"h2d" ~name:"HtoD" ~len (fun () ->
      Mem.copy ~src:host ~src_off:(Addr.off src) ~dst:t.global ~dst_off:(Addr.off dst) ~len)

let memcpy_d2h ?stream t ~(host : Mem.t) ~(src : Addr.t) ~(dst : Addr.t) ~(len : int) : unit =
  ensure_initialized t;
  if Addr.space src <> Addr.Global then cuda_error "cuMemcpyDtoH: source is not device memory";
  memcpy t ?stream ~site:"d2h" ~name:"DtoH" ~len (fun () ->
      Mem.copy ~src:t.global ~src_off:(Addr.off src) ~dst:host ~dst_off:(Addr.off dst) ~len)

(* cuMemHostRegister: pin a host range so kernels can address it in
   place (the Nano's CPU and GPU share the same LPDDR4).  Pinning walks
   and locks the pages, which is not free. *)
let host_register t ~(host : Mem.t) ~(addr : Addr.t) ~(bytes : int) : unit =
  ensure_initialized t;
  if bytes <= 0 then cuda_error "cuMemHostRegister of %d bytes" bytes;
  if Addr.space addr <> Addr.Host then cuda_error "cuMemHostRegister: not a host address";
  t.pinned_host <- Some host;
  let id = t.next_pin_id in
  t.next_pin_id <- id + 1;
  t.pinned <- (Addr.off addr, bytes, id) :: t.pinned;
  Simclock.advance_us t.clock (5.0 +. (float_of_int bytes /. 4096.0 *. 0.4));
  tr_instant t ~cat:"mem" "host_register" ~args:[ ("bytes", Perf.Trace.Int bytes) ]

let host_unregister t (addr : Addr.t) : unit =
  ensure_initialized t;
  let bytes =
    List.fold_left (fun acc (off, len, _) -> if off = Addr.off addr then len else acc) 0 t.pinned
  in
  t.pinned <- List.filter (fun (off, _, _) -> off <> Addr.off addr) t.pinned;
  if t.pinned = [] then t.pinned_host <- None;
  Simclock.advance_us t.clock 2.0;
  tr_instant t ~cat:"mem" "host_unregister" ~args:[ ("bytes", Perf.Trace.Int bytes) ]

let memset_d t ~(dst : Addr.t) ~(len : int) : unit =
  ensure_initialized t;
  tr_instant t ~cat:"mem" "memset" ~args:[ ("bytes", Perf.Trace.Int len) ];
  Simclock.advance_ns t.clock (transfer_cost t len /. 4.0);
  Bytes.fill t.global.Mem.data (Addr.off dst) len '\000'

(* ---------------------------------------------------------------- *)
(* Module loading (paper §4.2.1, loading phase)                       *)
(* ---------------------------------------------------------------- *)

let load_module t (artifact : Nvcc.artifact) : loaded_module =
  ensure_initialized t;
  match Hashtbl.find_opt t.modules artifact.Nvcc.art_hash with
  | Some m ->
    Simclock.advance_us t.clock 2.0 (* already resident *);
    tr_instant t ~cat:"load" "module_resident"
      ~args:[ ("module", Perf.Trace.Str artifact.Nvcc.art_name) ];
    m
  | None ->
    inj t "module_load";
    let cost = Nvcc.load_cost ?inject:t.inject ~jit_cache:t.jit_cache artifact in
    tr_begin t ~cat:"load" "module_load"
      ~args:
        [
          ("module", Perf.Trace.Str artifact.Nvcc.art_name);
          ("mode", Perf.Trace.Str (Nvcc.show_binary_mode artifact.Nvcc.art_mode));
          ("size_bytes", Perf.Trace.Int artifact.Nvcc.art_size_bytes);
          ("jit_compiled", Perf.Trace.Bool cost.Nvcc.lc_jit_compiled);
          ("cache_hit", Perf.Trace.Bool cost.Nvcc.lc_cache_hit);
        ];
    Simclock.advance_ns t.clock cost.Nvcc.lc_ns;
    (* distinct instants so the JIT disk-cache behaviour of paper 3.3 is
       directly assertable from a trace *)
    (match artifact.Nvcc.art_mode with
    | Nvcc.Ptx ->
      let name = if cost.Nvcc.lc_cache_hit then "jit_cache_hit" else "jit_compile" in
      tr_instant t ~cat:"jit" name
        ~args:
          [
            ("module", Perf.Trace.Str artifact.Nvcc.art_name);
            ("hash", Perf.Trace.Str artifact.Nvcc.art_hash);
            ("cache_hit", Perf.Trace.Bool cost.Nvcc.lc_cache_hit);
          ]
    | Nvcc.Cubin ->
      tr_instant t ~cat:"jit" "cubin_load"
        ~args:
          [
            ("module", Perf.Trace.Str artifact.Nvcc.art_name);
            ("cache_hit", Perf.Trace.Bool false);
          ]);
    let alloc_global bytes = Mem.alloc t.global bytes in
    let source = Simt.kernel_source_of_program ~alloc_global artifact.Nvcc.art_program in
    (* Closure-compile the kernel functions once per module load.  This
       is host-side simulator work, not a modelled device cost: no
       simulated-clock advance, so JIT on/off leaves simulated times
       identical (only real wall-clock changes). *)
    let compiled =
      if t.closure_jit then begin
        let c = Cinterp.Jit.compile ~env:source.Simt.ks_env ~funcs:source.Simt.ks_funcs in
        tr_instant t ~cat:"jit" "closure_compile"
          ~args:
            [
              ("module", Perf.Trace.Str artifact.Nvcc.art_name);
              ("hash", Perf.Trace.Str artifact.Nvcc.art_hash);
              ("functions", Perf.Trace.Int (Cinterp.Jit.function_count c));
              ( "left_out",
                Perf.Trace.Str (String.concat "," (List.map fst (Cinterp.Jit.left_out c))) );
            ];
        Some c
      end
      else None
    in
    let m = { lm_artifact = artifact; lm_source = source; lm_compiled = compiled } in
    Hashtbl.replace t.modules artifact.Nvcc.art_hash m;
    tr_end t ~cat:"load" "module_load";
    m

let get_function (m : loaded_module) (name : string) : Ast.fundef =
  match Hashtbl.find_opt m.lm_source.Simt.ks_funcs name with
  | Some f -> f
  | None -> cuda_error "cuModuleGetFunction: no kernel '%s' in module '%s'" name m.lm_artifact.Nvcc.art_name

(* ---------------------------------------------------------------- *)
(* Kernel launch (paper §4.2.1, launch phase)                         *)
(* ---------------------------------------------------------------- *)

(* The memories a launch runs against: the device's own and its lane
   pool, which [Simt.launch] grows to the block size (never past the
   device limit, which it reports) and which is kept for later
   launches. *)
let device_memories t ~(host : Mem.t option) : Simt.device_memories =
  { Simt.dm_global = t.global; dm_host = host; dm_lanes = t.lanes }

(* The SIMT run and its cost conversion.  Memory effects happen here,
   at call time; no clock advance. *)
let simulate_kernel t ~(modul : loaded_module) ~(entry : string) ~(grid : Simt.dim3)
    ~(block : Simt.dim3) ~(args : Value.t list) ~install_builtins ~block_filter ~logical_blocks :
    Counters.t * Costmodel.breakdown =
  let counters = Counters.create t.spec in
  Counters.set_alloc_table counters (Array.of_list t.allocs);
  Counters.set_pinned_table counters (Array.of_list t.pinned);
  let config =
    { Simt.lc_grid = grid; lc_block = block; lc_entry = entry; lc_args = args; lc_block_filter = block_filter }
  in
  Simt.launch ~spec:t.spec ~mem:(device_memories t ~host:t.pinned_host)
    ~source:modul.lm_source
    ?compiled:(if t.closure_jit then modul.lm_compiled else None)
    ~counters ~install_builtins ~output:t.output config;
  (* A sharded launch executes only its own contiguous block range but
     keeps the full grid (so global team ids stay correct); the caller
     tells us how many blocks this device actually owns, which both
     fixes the sampling scale-up and charges the device for its shard
     rather than the whole grid. *)
  let total_blocks =
    match logical_blocks with
    | Some n ->
      counters.Counters.blocks_total <- n;
      n
    | None -> Simt.dim3_total grid
  in
  let breakdown =
    Costmodel.kernel_time t.spec counters ~block_threads:(Simt.dim3_total block) ~total_blocks
  in
  (counters, breakdown)

(* per-launch device-runtime statistics, filled in by Devrt during the
   SIMT run (barriers, scheduler chunk grabs, atomics) *)
let emit_launch_counters t (counters : Counters.t) =
  tr_counter t ~cat:"kernel" "launch_counters"
    ~args:
      [
        ("barrier_warp_arrivals", Perf.Trace.Int counters.Counters.barrier_warp_arrivals);
        ("chunk_grabs", Perf.Trace.Int counters.Counters.chunk_grabs);
        ("atomics", Perf.Trace.Int counters.Counters.atomics);
        ("blocks_simulated", Perf.Trace.Int counters.Counters.blocks_executed);
        ("blocks_total", Perf.Trace.Int counters.Counters.blocks_total);
      ]

(* Accessors used by the transfer-elision layer in Hostrt.Dataenv. *)
let alloc_id_of t (a : Addr.t) : int option =
  List.fold_left
    (fun acc (off, len, id) ->
      if Addr.off a >= off && Addr.off a < off + len then Some id else acc)
    None t.allocs

let alloc_stores t id = Option.value ~default:0 (Hashtbl.find_opt t.dev_stores id)

let alloc_loads t id = Option.value ~default:0 (Hashtbl.find_opt t.dev_loads id)

let note_loads t id n = Hashtbl.replace t.dev_loads id (alloc_loads t id + n)

let store_log t id =
  match Hashtbl.find_opt t.store_intervals id with
  | Some l -> l
  | None ->
    let l = { sl_seq = 0; sl_items = [] } in
    Hashtbl.replace t.store_intervals id l;
    l

(* Long-lived allocations (ompiserve persistent environments) accumulate
   one interval per launch; past [store_log_cap] the log collapses to a
   single full-extent interval at the newest sequence number, which any
   holder of an older mark reads as "everything dirty" — conservative,
   never wrong. *)
let store_log_cap = 64

let log_store_interval t id (lo, hi) =
  let l = store_log t id in
  l.sl_seq <- l.sl_seq + 1;
  l.sl_items <- (l.sl_seq, lo, hi) :: l.sl_items;
  if List.length l.sl_items > store_log_cap then l.sl_items <- [ (l.sl_seq, 0, max_int) ]

(* Current position in an allocation's store log: snapshot at a sync
   point, then [stores_since] yields the intervals logged afterwards. *)
let store_mark t id = match Hashtbl.find_opt t.store_intervals id with Some l -> l.sl_seq | None -> 0

let stores_since t id (mark : int) : (int * int) list =
  match Hashtbl.find_opt t.store_intervals id with
  | None -> []
  | Some l -> List.filter_map (fun (s, lo, hi) -> if s > mark then Some (lo, hi) else None) l.sl_items

let alloc_len_of t id =
  List.fold_left (fun acc (_, len, i) -> if i = id then len else acc) 0 t.allocs

(* Record device-side writes that bypassed a kernel (tests and salvage
   paths poke device memory directly).  No byte interval is known, so the
   full extent is logged as written. *)
let note_stores t id n =
  Hashtbl.replace t.dev_stores id (alloc_stores t id + n);
  let len = alloc_len_of t id in
  log_store_interval t id (0, (if len > 0 then len else max_int))

let pin_traffic t id =
  ( Option.value ~default:0 (Hashtbl.find_opt t.pin_loads id),
    Option.value ~default:0 (Hashtbl.find_opt t.pin_stores id) )

let pin_id_of t (a : Addr.t) : int option =
  List.fold_left
    (fun acc (off, len, id) ->
      if Addr.off a >= off && Addr.off a < off + len then Some id else acc)
    None t.pinned

let record_launch t ~entry ~grid ~block (counters : Counters.t) (breakdown : Costmodel.breakdown) :
    launch_stats =
  t.kernels_launched <- t.kernels_launched + 1;
  Hashtbl.iter
    (fun id (s : Counters.alloc_stats) ->
      if s.Counters.a_loads > 0 then note_loads t id s.Counters.a_loads;
      if s.Counters.a_stores > 0 then begin
        Hashtbl.replace t.dev_stores id (alloc_stores t id + s.Counters.a_stores);
        match Counters.store_interval counters id with
        | Some iv -> log_store_interval t id iv
        | None -> log_store_interval t id (0, max_int)
      end;
      (* atomics write too, but are tracked in their own interval *)
      match Counters.atomic_interval counters id with
      | Some iv -> log_store_interval t id iv
      | None -> ())
    counters.Counters.per_alloc;
  Hashtbl.iter
    (fun id (p : Counters.pin_stats) ->
      let l, s = pin_traffic t id in
      Hashtbl.replace t.pin_loads id (l + p.Counters.p_loads);
      Hashtbl.replace t.pin_stores id (s + p.Counters.p_stores))
    counters.Counters.per_pin;
  (* a sampled launch under-counts stores: poison every pending elision *)
  if counters.Counters.blocks_executed < counters.Counters.blocks_total then
    t.write_epoch <- t.write_epoch + 1;
  t.zerocopy_total <- t.zerocopy_total + Counters.zerocopy_accesses counters;
  let stats =
    {
      st_entry = entry;
      st_grid = grid;
      st_block = block;
      st_breakdown = breakdown;
      st_blocks_simulated = counters.Counters.blocks_executed;
      st_blocks_total = counters.Counters.blocks_total;
      st_counters = counters;
    }
  in
  t.launches <- stats :: t.launches;
  stats

(* Launch phase: the SIMT run (and its memory effects) happens eagerly
   at the call; the host pays the cuLaunchKernel issue overhead and the
   kernel's modelled duration lands on the stream's timeline behind the
   compute engine.  On the null stream the host waits for the kernel,
   inside a "kernel" span. *)
let launch_kernel t ?stream ~(modul : loaded_module) ~(entry : string) ~(grid : Simt.dim3)
    ~(block : Simt.dim3) ~(args : Value.t list) ~(install_builtins : Simt.installer)
    ?(block_filter : (int -> bool) option) ?(logical_blocks : int option) () : launch_stats =
  ensure_initialized t;
  ignore (get_function modul entry);
  (* before the SIMT run: a failed launch has written nothing, so device
     memory still holds the last good state when salvage runs *)
  inj t "launch";
  let shape =
    [
      ("grid", Perf.Trace.Int (Simt.dim3_total grid));
      ("block", Perf.Trace.Int (Simt.dim3_total block));
    ]
  in
  let counters, breakdown =
    simulate_kernel t ~modul ~entry ~grid ~block ~args ~install_builtins ~block_filter
      ~logical_blocks
  in
  let dur = breakdown.Costmodel.bd_time_ns in
  (match stream with
  | None ->
    tr_begin t ~cat:"kernel" entry ~args:(shape @ [ ("device", Perf.Trace.Int t.ordinal) ]);
    Simclock.advance_us t.clock t.spec.Spec.kernel_launch_overhead_us;
    let _, finish = place t ~copy:false t.null_stream dur in
    Simclock.advance_to t.clock finish;
    emit_launch_counters t counters;
    tr_end t ~cat:"kernel" entry
  | Some s ->
    Simclock.advance_us t.clock t.spec.Spec.kernel_launch_overhead_us;
    let start, finish = place t ~copy:false s dur in
    tr_async t s ~start ~finish entry shape;
    emit_launch_counters t counters);
  record_launch t ~entry ~grid ~block counters breakdown

(* ---------------------------------------------------------------- *)
(* Streams                                                            *)
(* ---------------------------------------------------------------- *)

let stream_create t : stream =
  ensure_initialized t;
  Simclock.advance_us t.clock 1.0;
  let id = t.next_stream_id in
  t.next_stream_id <- id + 1;
  let s = { str_id = id; str_done_ns = Simclock.now_ns t.clock } in
  t.streams <- t.streams @ [ s ];
  tr_instant t ~cat:"async" "stream_create" ~args:[ ("stream", Perf.Trace.Int id) ];
  s

let stream_busy t (s : stream) : bool = s.str_done_ns > Simclock.now_ns t.clock

(* cuStreamWaitEvent: [s] will not start new work before [ns].  Pure
   timeline arithmetic — the caller (dependency tracker) emits the
   dep_edge trace event with task context. *)
let stream_wait_until (s : stream) (ns : float) : unit =
  if ns > s.str_done_ns then s.str_done_ns <- ns

(* cuStreamSynchronize: the host blocks until the stream drains, so the
   global clock advances to the stream's completion timestamp. *)
let stream_sync t (s : stream) : unit =
  ensure_initialized t;
  Simclock.advance_to t.clock s.str_done_ns;
  tr_instant t ~cat:"async" "stream_sync" ~args:[ ("stream", Perf.Trace.Int s.str_id) ]

(* cuCtxSynchronize: block until every stream drains. *)
let device_sync t : unit =
  ensure_initialized t;
  Simclock.advance_to t.clock
    (List.fold_left (fun acc s -> Float.max acc s.str_done_ns) 0.0 t.streams);
  tr_instant t ~cat:"async" "device_sync" ~args:[ ("streams", Perf.Trace.Int (List.length t.streams)) ]

(* Last-ditch device-to-host copy used when declaring the device dead:
   bypasses fault injection (the simulated device's global memory stays
   readable after compute faults) so live mappings can be rescued before
   falling back to the host. *)
let salvage_d2h t ~(host : Mem.t) ~(src : Addr.t) ~(dst : Addr.t) ~(len : int) : unit =
  ensure_initialized t;
  if Addr.space src <> Addr.Global then cuda_error "salvage: source is not device memory";
  Simclock.advance_ns t.clock (transfer_cost t len);
  Mem.copy ~src:t.global ~src_off:(Addr.off src) ~dst:host ~dst_off:(Addr.off dst) ~len;
  tr_instant t ~cat:"fault" "salvage" ~args:[ ("bytes", Perf.Trace.Int len) ]

let take_output t =
  let s = Buffer.contents t.output in
  Buffer.clear t.output;
  s

let reset t =
  Hashtbl.reset t.modules;
  t.launches <- [];
  t.kernels_launched <- 0;
  t.streams <- [];
  t.next_stream_id <- 1;
  t.copy_busy <- [];
  t.compute_busy <- [];
  t.pinned <- [];
  t.pinned_host <- None;
  (* device state after a context teardown is unknown: no elision may
     trust store counts recorded before the reset *)
  t.write_epoch <- t.write_epoch + 1
