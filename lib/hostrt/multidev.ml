(* Multi-device sharding of `distribute` grids.

   When the runtime holds more than one live device and a launch targets
   the default device, the team space is split into contiguous shards —
   one per device, sized by compute weight — and each shard runs as a
   sub-kernel on its own device, on a dedicated stream.  The full grid
   geometry is kept on every device (so cudadev_team_id / num_teams stay
   globally correct) and a block filter selects the shard; the
   [logical_blocks] override charges each device only for the blocks it
   owns.

   Memory protocol (three phases around the launches):

   - broadcast: bring the host image of every mapped operand up to date
     from the primary (the launch's target device, which owns the
     region's data environment), then temporarily map each operand [To]
     on every secondary;
   - launch, ascending shard order: before shard i starts, the bytes
     earlier shards touched with atomic RMWs are exchanged through host
     memory — D2H on the writer's stream, then H2D on shard i's stream,
     with a cross-device arbiter that forbids the H2D from starting
     before the D2H completes;
   - merge: each shard's written byte interval is copied back to host
     memory in ascending shard order (so an atomic chain resolves to the
     last shard's value), and the union is pushed into the primary so
     the primary's image is complete when the region later unmaps.

   Every device must reach an operand in the same mode (device copy or
   zero-copy): a region whose operands the per-buffer auto policy put
   in different modes on different devices runs unsharded.

   Because async driver ops perform their memory effects eagerly at
   enqueue (only time is modelled asynchronously), launching shards in
   ascending block order replays exactly the single-device ascending
   block schedule — sharded results are bit-identical to one device.
   The legality assumption matches `distribute` semantics: different
   teams do not write the same bytes non-atomically, and each shard's
   written interval is dense (no foreign bytes inside its envelope).

   A secondary that dies (fatal fault / retry exhaustion) has its shard
   re-run on the host, reading and writing host memory directly; later
   shards then receive full-extent refreshes instead of the atomic-only
   exchange.  A dead primary before any shard ran degrades to the
   caller's whole-region host fallback. *)

open Machine
open Gpusim

type shard = {
  sh_dev : int; (* device ordinal that owned the shard *)
  sh_lo : int; (* first linear block, inclusive *)
  sh_hi : int; (* past-last linear block *)
  sh_stats : Driver.launch_stats option; (* None: ran on the host after the device died *)
}

type result = { r_shards : shard list; r_stats : Driver.launch_stats; r_output : string }

(* Relative compute throughput of a device, for proportional sharding. *)
let device_weight (spec : Spec.t) : float =
  float_of_int (spec.Spec.sm_count * spec.Spec.cores_per_sm) *. spec.Spec.gpu_clock_hz

(* Split [0, total_blocks) into one contiguous, non-empty interval per
   weight, sized proportionally (cumulative rounding, so the sizes
   differ by at most one block from the ideal split). *)
let plan ~(total_blocks : int) ~(weights : float array) : (int * int) array =
  let n = Array.length weights in
  if n <= 0 then invalid_arg "Multidev.plan: no shards";
  if total_blocks < n then invalid_arg "Multidev.plan: fewer blocks than shards";
  let w = Array.map (fun x -> if Float.is_nan x || x <= 0.0 then 1.0 else x) weights in
  let total_w = Array.fold_left ( +. ) 0.0 w in
  let bounds = Array.make n (0, 0) in
  let cum = ref 0.0 in
  let lo = ref 0 in
  for i = 0 to n - 1 do
    cum := !cum +. w.(i);
    let hi =
      if i = n - 1 then total_blocks
      else
        let target = int_of_float (Float.round (float_of_int total_blocks *. (!cum /. total_w))) in
        min (max target (!lo + 1)) (total_blocks - (n - 1 - i))
    in
    bounds.(i) <- (!lo, hi);
    lo := hi
  done;
  bounds

(* Byte-interval arithmetic (intervals are [lo, hi), hi exclusive). *)
let clamp ~(bytes : int) ((lo, hi) : int * int) : int * int = (max 0 lo, min bytes hi)

let ival_union (a : (int * int) option) ((lo, hi) : int * int) : (int * int) option =
  match a with None -> Some (lo, hi) | Some (l, h) -> Some (min l lo, max h hi)

(* Pieces of [lo, hi) not covered by [sl, sh). *)
let ival_minus ((lo, hi) : int * int) ((sl, sh) : int * int) : (int * int) list =
  if sh <= lo || sl >= hi then [ (lo, hi) ]
  else (if sl > lo then [ (lo, sl) ] else []) @ if sh < hi then [ (sh, hi) ] else []

(* Per-device launch context of one sharded kernel. *)
type dctx = {
  c_dev : Rt.device;
  c_stream : Driver.stream; (* dedicated shard stream *)
  c_artifact : Nvcc.artifact;
  c_modul : Driver.loaded_module;
  c_values : Value.t list; (* kernel arguments, device addresses *)
  (* per extent: device base address + allocation id; None for
     zero-copy extents (the device addresses host memory in place) *)
  c_allocs : (Addr.t * int) option array;
}

exception Not_shardable

let tr_instant (rt : Rt.t) ?(args = []) name =
  match rt.Rt.trace with
  | Some tr -> Perf.Trace.instant tr ~cat:"shard" name ~args
  | None -> ()

let shard_stream (d : Rt.device) : Driver.stream =
  match d.Rt.dev_shard_stream with
  | Some s -> s
  | None ->
    let s = Driver.stream_create d.Rt.dev_driver in
    d.Rt.dev_shard_stream <- Some s;
    s

(* Wrap a single-device result so every caller sees the shard shape. *)
let single_result (dev : int) (r : Offload.result) : result =
  {
    r_shards =
      [
        {
          sh_dev = dev;
          sh_lo = 0;
          sh_hi = r.Offload.r_stats.Driver.st_blocks_total;
          sh_stats = Some r.Offload.r_stats;
        };
      ];
    r_stats = r.Offload.r_stats;
    r_output = r.Offload.r_output;
  }

(* Ascending-order shard execution with the exchange/merge protocol.
   [ctx_arr.(0)] is the primary; [bounds] pairs each context with its
   [lo, hi) block range. *)
let run_shards (rt : Rt.t) ~(primary : Rt.device) ~(pctx : dctx) ~(ctx_arr : dctx array)
    ~(bounds : (int * int) array) ~(extents : Dataenv.extent list) ~(grid : Simt.dim3)
    ~(block : Simt.dim3) ~(entry : string) ~(args : Offload.arg list)
    ~(unmap_secondaries : unit -> unit) : result =
  let host = rt.Rt.host_mem in
  let n = Array.length ctx_arr in
  let out = Buffer.create 256 in
  (* Cross-device copy arbiter: host ranges with an in-flight D2H as
     (host_off, len, done_ns, src_ordinal).  An H2D on another device
     that reads an overlapping range must not start before done_ns. *)
  let arb : (int * int * float * int) list ref = ref [] in
  let ran : (int * dctx * Driver.launch_stats) list ref = ref [] in (* device shards, latest first *)
  let last_host = ref (-1) in (* index of the last host-fallback shard *)
  let shards = ref [] in
  (* Copy an extent byte interval from a shard device to host memory on
     the device's stream; a device that is (or just became) dead is read
     through the injection-bypassing salvage path — simulated global
     memory stays readable after compute faults. *)
  let d2h_to_host (c : dctx) (x : Dataenv.extent) (dbase : Addr.t) ((lo, hi) : int * int) : unit =
    let len = hi - lo in
    if len > 0 then begin
      let driver = c.c_dev.Rt.dev_driver in
      let src = Addr.add dbase lo and dst = Addr.add x.Dataenv.x_host lo in
      if Dataenv.is_dead c.c_dev.Rt.dev_dataenv then
        Driver.salvage_d2h driver ~host ~src ~dst ~len
      else begin
        try
          Offload.resilient rt c.c_dev ~artifact:c.c_artifact ~label:"shard_d2h" (fun () ->
              Driver.memcpy_d2h driver ~stream:c.c_stream ~host ~src ~dst ~len);
          arb :=
            (Addr.off x.Dataenv.x_host + lo, len, c.c_stream.Driver.str_done_ns, driver.Driver.ordinal)
            :: !arb
        with Resilience.Device_dead reason ->
          Dataenv.declare_dead ~salvage:false c.c_dev.Rt.dev_dataenv ~reason;
          Driver.salvage_d2h driver ~host ~src ~dst ~len
      end
    end
  in
  (* Push host bytes into a shard device's extent image, first waiting
     (cuStreamWaitEvent) for any overlapping cross-device D2H to
     complete — the "D2H from device A before H2D to device B" rule.
     Raises [Device_dead] (after dropping the env without salvage) so
     the caller can host-fall-back the shard. *)
  let h2d_from_host (c : dctx) (x : Dataenv.extent) (dbase : Addr.t) ((lo, hi) : int * int) : unit =
    let len = hi - lo in
    if len > 0 && not (Dataenv.is_dead c.c_dev.Rt.dev_dataenv) then begin
      let driver = c.c_dev.Rt.dev_driver in
      let off = Addr.off x.Dataenv.x_host + lo in
      let deadline =
        List.fold_left
          (fun acc (o, l, t, src) ->
            if src <> driver.Driver.ordinal && o < off + len && off < o + l then Float.max acc t
            else acc)
          neg_infinity !arb
      in
      if deadline > c.c_stream.Driver.str_done_ns then begin
        Driver.stream_wait_until c.c_stream deadline;
        tr_instant rt "xdev_dep"
          ~args:
            [
              ("device", Perf.Trace.Int driver.Driver.ordinal);
              ("bytes", Perf.Trace.Int len);
              ("until_ns", Perf.Trace.Float deadline);
            ]
      end;
      try
        Offload.resilient rt c.c_dev ~artifact:c.c_artifact ~label:"shard_h2d" (fun () ->
            Driver.memcpy_h2d driver ~stream:c.c_stream ~host
              ~src:(Addr.add x.Dataenv.x_host lo) ~dst:(Addr.add dbase lo) ~len);
        (* the copy changed the device image behind the launch counters'
           back: make sure no later elision trusts the store counts *)
        match Driver.alloc_id_of driver dbase with
        | Some id -> Driver.note_stores driver id len
        | None -> ()
      with Resilience.Device_dead reason ->
        Dataenv.declare_dead ~salvage:false c.c_dev.Rt.dev_dataenv ~reason;
        raise (Resilience.Device_dead reason)
    end
  in
  (* Re-run a dead secondary's shard on the host: same kernel source,
     same grid geometry and block filter, but the arguments are the host
     addresses and loads/stores hit host memory directly.  Module
     globals still live in the dead device's (readable) global memory.
     Time is charged as sequential interpreted host execution. *)
  let host_fallback (c : dctx) ~(lo : int) ~(hi : int) : unit =
    let driver = c.c_dev.Rt.dev_driver in
    tr_instant rt "shard_host_fallback"
      ~args:
        [
          ("device", Perf.Trace.Int driver.Driver.ordinal);
          ("lo", Perf.Trace.Int lo);
          ("hi", Perf.Trace.Int hi);
        ];
    let counters = Counters.create driver.Driver.spec in
    let pins =
      List.mapi (fun i x -> (Addr.off x.Dataenv.x_host, x.Dataenv.x_bytes, i)) extents
      |> List.sort compare |> Array.of_list
    in
    Counters.set_pinned_table counters pins;
    counters.Counters.blocks_total <- hi - lo;
    let host_values = Offload.coerce_args c.c_modul ~entry ~address:Fun.id args in
    Simt.launch ~spec:driver.Driver.spec
      ~mem:(Driver.device_memories driver ~host:(Some host))
      ~source:c.c_modul.Driver.lm_source
      ?linked:(if driver.Driver.closure_jit then c.c_modul.Driver.lm_linked else None)
      ~counters ~output:out
      {
        Simt.lc_grid = grid;
        lc_block = block;
        lc_entry = entry;
        lc_args = host_values;
        lc_block_filter = Some (fun b -> b >= lo && b < hi);
      };
    Simclock.advance_ns rt.Rt.clock (counters.Counters.thread_inst_sum *. Rt.host_step_cost_ns rt)
  in
  (* Write a device shard's results back through [copy]: per extent, its
     store interval clamped to the extent, minus its atomic interval when
     the host image already holds the chained atomic value
     ([~skip_atomics]). *)
  let write_back (pc : dctx) (pstats : Driver.launch_stats) ~(skip_atomics : bool) copy : unit =
    List.iteri
      (fun xi x ->
        match pc.c_allocs.(xi) with
        | None -> ()
        | Some (pdbase, pid) -> (
          let counters = pstats.Driver.st_counters in
          match Counters.store_interval counters pid with
          | None -> ()
          | Some ival ->
            let ival = clamp ~bytes:x.Dataenv.x_bytes ival in
            let pieces =
              match Counters.atomic_interval counters pid with
              | Some aiv when skip_atomics -> ival_minus ival (clamp ~bytes:x.Dataenv.x_bytes aiv)
              | _ -> [ ival ]
            in
            List.iter (fun (l, h) -> if h > l then copy x pdbase (l, h)) pieces))
      extents
  in
  (* ---- phase 2: launches, ascending shard order ------------------- *)
  for i = 0 to n - 1 do
    let lo, hi = bounds.(i) in
    let c = ctx_arr.(i) in
    try
      if i > 0 then begin
        (* Exchange: pull the atomic-RMW bytes of every prior device
           shard that ran after the last host shard into host memory
           (ascending, so a chained atomic resolves to the latest
           value), then push them — or, after a host shard, the full
           extents — into this shard's device. *)
        let nx = List.length extents in
        let atomic_unions = Array.make nx None in
        List.iteri
          (fun xi x ->
            if c.c_allocs.(xi) <> None then
              List.iter
                (fun (p_idx, pc, (pstats : Driver.launch_stats)) ->
                  if p_idx > !last_host then
                    match pc.c_allocs.(xi) with
                    | None -> ()
                    | Some (pdbase, pid) -> (
                      match Counters.atomic_interval pstats.Driver.st_counters pid with
                      | None -> ()
                      | Some ival ->
                        let l, h = clamp ~bytes:x.Dataenv.x_bytes ival in
                        if h > l then begin
                          d2h_to_host pc x pdbase (l, h);
                          atomic_unions.(xi) <- ival_union atomic_unions.(xi) (l, h)
                        end))
                (List.rev !ran))
          extents;
        List.iteri
          (fun xi x ->
            match c.c_allocs.(xi) with
            | None -> ()
            | Some (dbase, _) ->
              if !last_host >= 0 then h2d_from_host c x dbase (0, x.Dataenv.x_bytes)
              else
                Option.iter (fun ival -> h2d_from_host c x dbase ival) atomic_unions.(xi))
          extents
      end;
      let stats =
        Offload.phase rt "launch"
          ~args:
            [
              ("device", Perf.Trace.Int c.c_dev.Rt.dev_id);
              ("shard_lo", Perf.Trace.Int lo);
              ("shard_hi", Perf.Trace.Int hi);
            ]
          (fun () ->
            Offload.resilient rt c.c_dev ~artifact:c.c_artifact ~label:"launch" (fun () ->
                Driver.launch_kernel c.c_dev.Rt.dev_driver ~stream:c.c_stream ~modul:c.c_modul
                  ~entry ~grid ~block ~args:c.c_values
                  ~block_filter:(fun b -> b >= lo && b < hi)
                  ~logical_blocks:(hi - lo) ()))
      in
      Buffer.add_string out (Driver.take_output c.c_dev.Rt.dev_driver);
      ran := (i, c, stats) :: !ran;
      shards := { sh_dev = c.c_dev.Rt.dev_id; sh_lo = lo; sh_hi = hi; sh_stats = Some stats } :: !shards
    with Resilience.Device_dead reason ->
      if i = 0 then begin
        (* the primary died before any shard ran: clean up the broadcast
           maps and degrade to the caller's whole-region host fallback *)
        unmap_secondaries ();
        raise (Resilience.Device_dead reason)
      end
      else begin
        if not (Dataenv.is_dead c.c_dev.Rt.dev_dataenv) then
          Dataenv.declare_dead ~salvage:false c.c_dev.Rt.dev_dataenv ~reason;
        host_fallback c ~lo ~hi;
        last_host := i;
        shards := { sh_dev = c.c_dev.Rt.dev_id; sh_lo = lo; sh_hi = hi; sh_stats = None } :: !shards
      end
  done;
  (* ---- phase 3: merge into host memory, ascending ----------------- *)
  let device_shards = List.rev !ran in
  List.iter
    (fun (p_idx, pc, (pstats : Driver.launch_stats)) ->
      (* the primary's own results stay on the primary unless a host
         shard ran (then the final full-extent refresh would overwrite
         them with host bytes, so they must reach the host first) *)
      if p_idx > 0 || !last_host >= 0 then
        (* shards that ran before a host-fallback shard already chained
           their atomic bytes into the host image; copying them back
           would clobber the newer value *)
        write_back pc pstats ~skip_atomics:(p_idx <= !last_host) (d2h_to_host pc))
    device_shards;
  (* ---- primary refresh: make the primary's image complete --------- *)
  (if not (Dataenv.is_dead primary.Rt.dev_dataenv) then
     try
       List.iteri
         (fun xi x ->
           match pctx.c_allocs.(xi) with
           | None -> ()
           | Some (dbase, _) ->
             if !last_host >= 0 then h2d_from_host pctx x dbase (0, x.Dataenv.x_bytes)
             else
               List.iter
                 (fun (p_idx, pc, (pstats : Driver.launch_stats)) ->
                   if p_idx > 0 then
                     match pc.c_allocs.(xi) with
                     | None -> ()
                     | Some (_, pid) -> (
                       match Counters.store_interval pstats.Driver.st_counters pid with
                       | None -> ()
                       | Some ival ->
                         let l, h = clamp ~bytes:x.Dataenv.x_bytes ival in
                         if h > l then h2d_from_host pctx x dbase (l, h)))
                 device_shards)
         extents
     with Resilience.Device_dead _ ->
       (* The primary died while receiving the merge.  Host memory
          already holds every other shard's results; rescue the
          primary's own shard (minus its atomic bytes, whose chained
          value the host already has) so the host image is canonical,
          then let the region's unmaps degrade to no-ops. *)
       (match device_shards with
       | (0, pc, (pstats : Driver.launch_stats)) :: _ when !last_host < 0 ->
         write_back pc pstats ~skip_atomics:true (fun x pdbase (l, h) ->
             Driver.salvage_d2h pc.c_dev.Rt.dev_driver ~host ~src:(Addr.add pdbase l)
               ~dst:(Addr.add x.Dataenv.x_host l) ~len:(h - l))
       | _ -> ()));
  (* ---- synchronize and release the broadcast maps ----------------- *)
  Array.iter (fun c -> Driver.device_sync c.c_dev.Rt.dev_driver) ctx_arr;
  unmap_secondaries ();
  let r_stats =
    match List.find_opt (fun (p_idx, _, _) -> p_idx = 0) device_shards with
    | Some (_, _, st) -> st
    | None -> Rt.ort_error "sharded launch lost its primary shard" (* unreachable *)
  in
  { r_shards = List.rev !shards; r_stats; r_output = Buffer.contents out }

let launch (rt : Rt.t) ~(dev : int) ~(kernel_file : string) ~(entry : string) ~(num_teams : int)
    ~(num_threads : int) ~(args : Offload.arg list) : result =
  let primary = Rt.device rt dev in
  Offload.check_alive primary;
  let single () =
    single_result dev
      (Offload.launch rt ~dev ~kernel_file ~entry ~num_teams ~num_threads ~args)
  in
  let grid, block = Rt.geometry ~num_teams ~num_threads in
  let total_blocks = Simt.dim3_total grid in
  let secondaries = List.filter (fun d -> d.Rt.dev_id <> primary.Rt.dev_id) (Rt.live_devices rt) in
  (* Sharding needs >1 live device, >1 block, no block sampling (sampled
     counters under-report written intervals), and every mapped operand
     present on the primary. *)
  if secondaries = [] || total_blocks < 2 || Option.is_some rt.Rt.sample_max_blocks then single ()
  else begin
    match
      (try
         let seen = Hashtbl.create 8 in
         Some
           (List.filter_map
              (function
                | Offload.Scalar _ -> None
                | Offload.Mapped haddr -> (
                  match Dataenv.find_extent primary.Rt.dev_dataenv haddr with
                  | None -> raise Not_shardable
                  | Some x ->
                    if Hashtbl.mem seen (Addr.off x.Dataenv.x_host) then None
                    else begin
                      Hashtbl.add seen (Addr.off x.Dataenv.x_host) ();
                      Some x
                    end))
              args)
       with Not_shardable -> None)
    with
    | None -> single ()
    | Some extents ->
      (* ---- phase 1: broadcast ------------------------------------- *)
      List.iter (fun x -> Dataenv.refresh_host primary.Rt.dev_dataenv x.Dataenv.x_host) extents;
      Offload.check_alive primary;
      let secondaries =
        List.filter
          (fun s ->
            List.iter
              (fun x ->
                ignore
                  (Dataenv.map s.Rt.dev_dataenv x.Dataenv.x_host ~bytes:x.Dataenv.x_bytes Dataenv.To))
              extents;
            not (Dataenv.is_dead s.Rt.dev_dataenv))
          secondaries
      in
      let unmap_secondaries () =
        List.iter
          (fun s ->
            List.iter (fun x -> Dataenv.unmap s.Rt.dev_dataenv x.Dataenv.x_host Dataenv.To) extents)
          secondaries
      in
      (* Every device must reach an operand the same way.  The exchange
         and merge move device images through host memory; they cannot
         carry a zero-copy shard's in-place atomics into another
         device's copy, nor a copy's results past a zero-copy shard.
         The per-buffer auto policy can pick different modes for one
         buffer on different devices; such a region runs unsharded. *)
      let zero_copy (d : Rt.device) (x : Dataenv.extent) =
        Addr.space (Dataenv.lookup_exn d.Rt.dev_dataenv x.Dataenv.x_host) <> Addr.Global
      in
      if List.exists (fun s -> List.exists (fun x -> zero_copy s x <> zero_copy primary x) extents)
           secondaries
      then begin
        unmap_secondaries ();
        tr_instant rt "shard_mixed_modes";
        single ()
      end
      else
      let primary_artifact = Rt.find_kernel rt ~dev:primary.Rt.dev_id kernel_file in
      (* Build one launch context per participating device: load the
         module, coerce the arguments against the kernel's parameter
         types, resolve each extent's device image. *)
      let mk_ctx (d : Rt.device) : dctx =
        let driver = d.Rt.dev_driver in
        let artifact =
          match Hashtbl.find_opt d.Rt.dev_kernels kernel_file with
          | Some a -> a
          | None -> primary_artifact
        in
        let modul =
          Offload.phase rt "load"
            ~args:[ ("device", Perf.Trace.Int d.Rt.dev_id); ("file", Perf.Trace.Str kernel_file) ]
            (fun () ->
              Offload.resilient rt d ~artifact ~label:"load" (fun () ->
                  Driver.load_module driver artifact))
        in
        let values =
          Offload.phase rt "parameter_preparation"
            ~args:[ ("nargs", Perf.Trace.Int (List.length args)) ]
            (fun () ->
              Offload.coerce_args modul ~entry ~address:(Dataenv.lookup_exn d.Rt.dev_dataenv) args)
        in
        let allocs =
          Array.of_list
            (List.map
               (fun x ->
                 let daddr = Dataenv.lookup_exn d.Rt.dev_dataenv x.Dataenv.x_host in
                 if Addr.space daddr <> Addr.Global then None
                 else Some (daddr, Option.value ~default:(-1) (Driver.alloc_id_of driver daddr)))
               extents)
        in
        {
          c_dev = d;
          c_stream = shard_stream d;
          c_artifact = artifact;
          c_modul = modul;
          c_values = values;
          c_allocs = allocs;
        }
      in
      let pctx =
        try mk_ctx primary
        with Resilience.Device_dead reason ->
          unmap_secondaries ();
          raise (Resilience.Device_dead reason)
      in
      let sctxs =
        List.filter_map
          (fun s ->
            try Some (mk_ctx s)
            with Resilience.Device_dead reason ->
              if not (Dataenv.is_dead s.Rt.dev_dataenv) then
                Dataenv.declare_dead ~salvage:false s.Rt.dev_dataenv ~reason;
              None)
          secondaries
      in
      if sctxs = [] then begin
        unmap_secondaries ();
        single ()
      end
      else begin
        (* ---- plan ------------------------------------------------- *)
        let rec take n = function [] -> [] | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl in
        let ctxs = take total_blocks (pctx :: sctxs) in
        let ctx_arr = Array.of_list ctxs in
        let n = Array.length ctx_arr in
        let weights = Array.map (fun c -> device_weight c.c_dev.Rt.dev_driver.Driver.spec) ctx_arr in
        let bounds = plan ~total_blocks ~weights in
        tr_instant rt "shard_plan"
          ~args:
            [
              ("devices", Perf.Trace.Int n);
              ("total_blocks", Perf.Trace.Int total_blocks);
              ("entry", Perf.Trace.Str entry);
            ];
        run_shards rt ~primary ~pctx ~ctx_arr ~bounds ~extents ~grid ~block ~entry ~args
          ~unmap_secondaries
      end
  end
