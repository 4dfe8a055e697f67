(* The cudadev device runtime library (paper §4.2.2), exposed to kernel
   code as interpreter builtins, each registered against its C
   signature.  One [install] call per device, when its driver is
   created, fills the device's shared builtin table.  As in the real
   runtime, state lives per team (the block) and a thread carries only
   its ids: a builtin finds the running block through the device's
   accessor and its thread as [bs_threads.(ctx.lane)], and closes over
   neither. *)

open Machine
open Gpusim

exception Devrt_error of string

let devrt_error fmt = Format.kasprintf (fun s -> raise (Devrt_error s)) fmt

let int_arg = Value.to_int

let ret_int i = Value.of_int i

let ret_void = Value.VVoid

let store_int ctx addr_v (i : int) =
  let addr = Value.as_addr addr_v in
  Cinterp.Interp.store ctx addr Cty.Int (Value.of_int i)

(* Participants of the B1 barrier: the master thread plus all worker
   threads (block size minus the masked-out master warp). *)
let b1_participants (bs : Simt.block_state) =
  1 + (Simt.dim3_total bs.bs_block_dim - bs.bs_spec.Spec.warp_size)

let barrier_id_b1 = 1

let barrier_id_b2 = 2

let barrier_id_user = 3

(* ---------------------------------------------------------------- *)
(* Worksharing helpers                                                *)
(* ---------------------------------------------------------------- *)

let team_linear (bs : Simt.block_state) = bs.bs_block_lin

let num_teams (bs : Simt.block_state) = Simt.dim3_total bs.bs_grid_dim

let dyn_counter (bs : Simt.block_state) rid ~init =
  match Hashtbl.find_opt bs.bs_dyn_counters rid with
  | Some r -> r
  | None ->
    let r = ref init in
    Hashtbl.replace bs.bs_dyn_counters rid r;
    r

(* A dynamic/guided region's shared counter must not survive into a
   sequential re-entry of the same region: a nowait worksharing loop
   nested in a sequential loop never passes through ws_finish, so the
   counter would stay parked at range.hi and the re-entered loop would
   silently get zero iterations.  Each participant that drains the range
   (gets None) is counted here; once every team member has drained, the
   region's state is recycled so the next entry reinitializes it. *)
let dyn_drained (bs : Simt.block_state) rid nthr =
  let r =
    match Hashtbl.find_opt bs.bs_dyn_drained rid with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace bs.bs_dyn_drained rid r;
      r
  in
  incr r;
  if !r >= nthr then begin
    Hashtbl.remove bs.bs_dyn_drained rid;
    Hashtbl.remove bs.bs_dyn_counters rid
  end

let section_counter (bs : Simt.block_state) rid =
  match Hashtbl.find_opt bs.bs_section_counters rid with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace bs.bs_section_counters rid r;
    r

(* End-of-worksharing bookkeeping: the last participant to reach the
   closing barrier clears the region's shared counters, making the
   region re-enterable (e.g. a worksharing loop nested in a sequential
   loop).  Runs before the bar.sync, so no participant can re-enter the
   region while state is being recycled. *)
let ws_finish (bs : Simt.block_state) rid nthr =
  let done_r =
    match Hashtbl.find_opt bs.bs_ws_done rid with
    | Some r -> r
    | None ->
      let r = ref 0 in
      Hashtbl.replace bs.bs_ws_done rid r;
      r
  in
  incr done_r;
  if !done_r >= nthr then begin
    Hashtbl.remove bs.bs_ws_done rid;
    Hashtbl.remove bs.bs_dyn_counters rid;
    Hashtbl.remove bs.bs_dyn_drained rid;
    Hashtbl.remove bs.bs_section_counters rid
  end

(* ---------------------------------------------------------------- *)
(* Atomic read-modify-write on device memory                          *)
(* ---------------------------------------------------------------- *)

(* Threads are scheduled cooperatively, so a builtin body is atomic by
   construction; we still count the operation for the cost model. *)
let atomic_rmw ctx (bs : Simt.block_state) (ptr : Value.t) (f : Value.t -> Value.t) : Value.t =
  bs.bs_counters.Counters.atomics <- bs.bs_counters.Counters.atomics + 1;
  match ptr with
  | Value.VPtr (addr, ty) ->
    (if Addr.space addr = Addr.Global then
       Counters.note_atomic bs.bs_counters ~off:(Addr.off addr) ~len:(Cinterp.Interp.sizeof ctx ty));
    let old = Cinterp.Interp.load ctx addr ty in
    Cinterp.Interp.store ctx addr ty (f old);
    old
  | v -> devrt_error "atomic operation on non-pointer %s" (Value.show v)

(* ---------------------------------------------------------------- *)
(* Installation                                                       *)
(* ---------------------------------------------------------------- *)

let install (block : unit -> Simt.block_state) (tbl : Cinterp.Interp.builtins) : unit =
  let open Cinterp.Interp in
  let reg = register_builtin tbl in
  let thread (bs : Simt.block_state) (ctx : Cinterp.Interp.t) = bs.bs_threads.(ctx.lane) in
  let block_threads (bs : Simt.block_state) = Simt.dim3_total bs.bs_block_dim in

  (* -------- identity -------- *)
  reg "cudadev_thread_id" (F0 (fun ctx -> ret_int ctx.lane));
  reg "cudadev_team_id" (F0 (fun _ -> ret_int (team_linear (block ()))));
  reg "cudadev_num_teams" (F0 (fun _ -> ret_int (num_teams (block ()))));
  reg "cudadev_num_threads" (F0 (fun _ -> ret_int (block_threads (block ()))));
  reg "omp_get_thread_num" (F0 (fun ctx -> ret_int (thread (block ()) ctx).ts_omp_id));
  reg "omp_get_num_threads" (F0 (fun ctx -> ret_int (thread (block ()) ctx).ts_omp_num));
  reg "omp_get_team_num" (F0 (fun _ -> ret_int (team_linear (block ()))));
  reg "omp_get_num_teams" (F0 (fun _ -> ret_int (num_teams (block ()))));
  reg "omp_is_initial_device" (F0 (fun _ -> ret_int 0));

  (* -------- master/worker scheme (§3.2) -------- *)
  reg "cudadev_in_masterwarp" (F1 (fun _ thrid ->
      ret_int (if int_arg thrid < (block ()).bs_spec.Spec.warp_size then 1 else 0)));
  reg "cudadev_is_masterthr" (F1 (fun _ thrid -> ret_int (if int_arg thrid = 0 then 1 else 0)));
  reg "cudadev_register_parallel" (F3 (fun ctx fnptr vars nthreads ->
      let bs = block () in
      let fd = function_of_pointer ctx fnptr in
      let workers = block_threads bs - bs.bs_spec.Spec.warp_size in
      let requested = int_arg nthreads in
      let n = if requested <= 0 then workers else min requested workers in
      bs.bs_region <- Some { Simt.pr_fn = fd.Minic.Ast.f_name; pr_args = [ vars ]; pr_nthreads = n };
      Simt.bar_sync barrier_id_b1 (b1_participants bs); (* release workers *)
      Simt.bar_sync barrier_id_b1 (b1_participants bs); (* wait for completion *)
      bs.bs_region <- None;
      ret_void));
  reg "cudadev_workerfunc" (F1 (fun ctx thrid ->
      let bs = block () in
      let ts = thread bs ctx in
      let thrid = int_arg thrid in
      let wid = thrid - bs.bs_spec.Spec.warp_size in
      if wid < 0 then devrt_error "cudadev_workerfunc called from the master warp";
      let rec serve () =
        Simt.bar_sync barrier_id_b1 (b1_participants bs);
        if not bs.bs_target_done then begin
          (match bs.bs_region with
          | Some r when wid < r.Simt.pr_nthreads ->
            let saved_id = ts.ts_omp_id and saved_num = ts.ts_omp_num in
            ts.ts_omp_id <- wid;
            ts.ts_omp_num <- r.Simt.pr_nthreads;
            let fd =
              match Hashtbl.find_opt ctx.funcs r.Simt.pr_fn with
              | Some fd -> fd
              | None -> devrt_error "worker: unknown thread function '%s'" r.Simt.pr_fn
            in
            ignore (call_fundef ctx fd r.Simt.pr_args);
            ts.ts_omp_id <- saved_id;
            ts.ts_omp_num <- saved_num;
            Simt.bar_sync barrier_id_b2 r.Simt.pr_nthreads
          | Some _ | None -> ());
          Simt.bar_sync barrier_id_b1 (b1_participants bs);
          serve ()
        end
      in
      serve ();
      ret_void));
  reg "cudadev_exit_target" (F0 (fun _ ->
      let bs = block () in
      bs.bs_target_done <- true;
      Simt.bar_sync barrier_id_b1 (b1_participants bs);
      ret_void));

  (* -------- shared-memory stack (§3.2) -------- *)
  reg "cudadev_push_shmem" (F2 (fun ctx origin size ->
      let bs = block () in
      let origin = Value.as_addr origin and size = int_arg size in
      let mark = Mem.mark bs.bs_shared in
      let sh = Mem.push bs.bs_shared size in
      Mem.copy ~src:(ctx.resolve origin) ~src_off:(Addr.off origin) ~dst:bs.bs_shared
        ~dst_off:(Addr.off sh) ~len:size;
      Stack.push (sh, origin, size, mark) bs.bs_shmem_stack;
      Value.ptr sh));
  reg "cudadev_pop_shmem" (F2 (fun ctx origin size ->
      let bs = block () in
      let origin = Value.as_addr origin and size = int_arg size in
      (match Stack.pop_opt bs.bs_shmem_stack with
      | Some (sh, origin', size', mark) ->
        if not (Addr.equal origin origin') || size <> size' then
          devrt_error "cudadev_pop_shmem: mismatched push/pop pair";
        Mem.copy ~src:bs.bs_shared ~src_off:(Addr.off sh) ~dst:(ctx.resolve origin)
          ~dst_off:(Addr.off origin) ~len:size;
        Mem.release bs.bs_shared mark
      | None -> devrt_error "cudadev_pop_shmem: empty shared-memory stack");
      ret_void));
  (* Kernel parameters already carry device addresses; the lookup the
     real runtime performs is an identity here (a [void *], as
     declared). *)
  reg "cudadev_getaddr" (F1 (fun _ v -> Value.ptr (Value.as_addr v)));

  (* -------- worksharing (§3.1, §4.2.2) -------- *)
  reg "cudadev_get_distribute_chunk" (F4 (fun ctx lb_out ub_out lo hi ->
      let bs = block () in
      let r =
        Sched.distribute_chunk ~team:(team_linear bs) ~num_teams:(num_teams bs)
          { Sched.lo = int_arg lo; hi = int_arg hi }
      in
      store_int ctx lb_out r.Sched.lo;
      store_int ctx ub_out r.Sched.hi;
      ret_void));
  (* dist_schedule(static, c): the team's k-th block-cyclic chunk *)
  reg "cudadev_get_distribute_cyclic" (F6 (fun ctx k chunk lo hi lb_out ub_out ->
      let bs = block () in
      let range = { Sched.lo = int_arg lo; hi = int_arg hi } in
      match
        Sched.static_cyclic_chunk ~thread:(team_linear bs) ~num_threads:(num_teams bs)
          ~chunk:(max 1 (int_arg chunk)) ~k:(int_arg k) range
      with
      | Some r ->
        store_int ctx lb_out r.Sched.lo;
        store_int ctx ub_out r.Sched.hi;
        ret_int 1
      | None -> ret_int 0));
  reg "cudadev_get_static_chunk" (F4 (fun ctx lb_out ub_out lo hi ->
      let ts = thread (block ()) ctx in
      let r =
        Sched.static_chunk ~thread:ts.ts_omp_id ~num_threads:ts.ts_omp_num
          { Sched.lo = int_arg lo; hi = int_arg hi }
      in
      store_int ctx lb_out r.Sched.lo;
      store_int ctx ub_out r.Sched.hi;
      ret_int (if Sched.range_len r > 0 then 1 else 0)));
  reg "cudadev_get_dynamic_chunk" (F6 (fun ctx rid chunk lo hi lb_out ub_out ->
      let bs = block () in
      let rid = int_arg rid and chunk = max 1 (int_arg chunk) in
      if rid < 0 then devrt_error "cudadev_get_dynamic_chunk: invalid region id %d" rid;
      let range = { Sched.lo = int_arg lo; hi = int_arg hi } in
      let counter = dyn_counter bs rid ~init:range.Sched.lo in
      bs.bs_counters.Counters.atomics <- bs.bs_counters.Counters.atomics + 1;
      match Sched.dynamic_chunk ~counter:!counter ~chunk range with
      | Some r ->
        counter := r.Sched.hi;
        bs.bs_counters.Counters.chunk_grabs <- bs.bs_counters.Counters.chunk_grabs + 1;
        store_int ctx lb_out r.Sched.lo;
        store_int ctx ub_out r.Sched.hi;
        (* yield so that other threads interleave their grabs, as the
           hardware scheduler would *)
        Simt.yield ();
        ret_int 1
      | None ->
        dyn_drained bs rid (max 1 (thread bs ctx).ts_omp_num);
        ret_int 0));
  reg "cudadev_get_guided_chunk" (F6 (fun ctx rid minchunk lo hi lb_out ub_out ->
      let bs = block () in
      let ts = thread bs ctx in
      let rid = int_arg rid and minchunk = max 1 (int_arg minchunk) in
      if rid < 0 then devrt_error "cudadev_get_guided_chunk: invalid region id %d" rid;
      let range = { Sched.lo = int_arg lo; hi = int_arg hi } in
      let counter = dyn_counter bs rid ~init:range.Sched.lo in
      bs.bs_counters.Counters.atomics <- bs.bs_counters.Counters.atomics + 1;
      match
        Sched.guided_chunk ~counter:!counter ~num_threads:(max 1 ts.ts_omp_num) ~min_chunk:minchunk
          range
      with
      | Some r ->
        counter := r.Sched.hi;
        bs.bs_counters.Counters.chunk_grabs <- bs.bs_counters.Counters.chunk_grabs + 1;
        store_int ctx lb_out r.Sched.lo;
        store_int ctx ub_out r.Sched.hi;
        Simt.yield ();
        ret_int 1
      | None ->
        dyn_drained bs rid (max 1 ts.ts_omp_num);
        ret_int 0));
  reg "cudadev_ws_barrier" (F2 (fun ctx rid nthr ->
      let bs = block () in
      let nthr = int_arg nthr in
      let nthr = if nthr <= 0 then (thread bs ctx).ts_omp_num else nthr in
      ws_finish bs (int_arg rid) nthr;
      Simt.bar_sync barrier_id_user nthr;
      ret_void));
  reg "cudadev_barrier" (F1 (fun ctx nthr ->
      let n = int_arg nthr in
      let n = if n <= 0 then (thread (block ()) ctx).ts_omp_num else n in
      (* The paper's rounding rule X = W * ceil(N/W) is applied for the
         cost side inside the scheduler; participation is exact. *)
      Simt.bar_sync barrier_id_user n;
      ret_void));

  (* -------- sections -------- *)
  (* "To avoid warp divergence, each section is assigned to threads from
     different warps" (§4.2.2): the first sections are reserved for one
     leader lane per warp; only once every warp leader is busy does the
     shared counter hand sections to arbitrary threads. *)
  reg "cudadev_sections_next" (F2 (fun ctx rid nsections ->
      let bs = block () in
      let ts = thread bs ctx in
      let rid = int_arg rid and nsections = int_arg nsections in
      let c = section_counter bs rid in
      bs.bs_counters.Counters.atomics <- bs.bs_counters.Counters.atomics + 1;
      let warp = bs.bs_spec.Spec.warp_size in
      let my_warp = ts.ts_lin / warp in
      let grant mine =
        incr c;
        (* ablation bookkeeping: did this warp already own a section? *)
        incr Config.sections_total_grants;
        (match Hashtbl.find_opt Config.sections_warp_owners (bs.bs_block_lin, rid) with
        | Some warps ->
          if List.mem my_warp !warps then incr Config.sections_same_warp_grants
          else warps := my_warp :: !warps
        | None -> Hashtbl.replace Config.sections_warp_owners (bs.bs_block_lin, rid) (ref [ my_warp ]));
        Simt.yield ();
        ret_int mine
      in
      let reserved =
        if !Config.sections_anti_divergence then min nsections ((ts.ts_omp_num + warp - 1) / warp)
        else 0
      in
      let is_leader = ts.ts_omp_id mod warp = 0 && ts.ts_omp_id / warp < reserved in
      if is_leader && !c <= ts.ts_omp_id / warp then begin
        (* leaders take their reserved section exactly once *)
        let mine = ts.ts_omp_id / warp in
        if !c = mine then grant mine
        else begin
          (* another leader has not arrived yet; wait for our slot *)
          while !c < mine do
            Simt.yield ()
          done;
          if !c = mine then grant mine else ret_int (-1)
        end
      end
      else if !c >= nsections then ret_int (-1)
      else if !c < reserved then begin
        (* reserved slots pending: non-leaders wait their turn *)
        while !c < reserved && !c < nsections do
          Simt.yield ()
        done;
        if !c >= nsections then ret_int (-1) else grant !c
      end
      else grant !c));

  (* -------- locks / critical (§4.2.2) -------- *)
  reg "cudadev_lock" (F1 (fun ctx lock ->
      let bs = block () and addr = Value.as_addr lock in
      let rec spin () =
        bs.bs_counters.Counters.atomics <- bs.bs_counters.Counters.atomics + 1;
        let cur = Value.to_int (load ctx addr Cty.Int) in
        if cur = 0 then store ctx addr Cty.Int (Value.of_int 1)
        else begin
          Simt.yield ();
          spin ()
        end
      in
      spin ();
      ret_void));
  reg "cudadev_unlock" (F1 (fun ctx lock ->
      store ctx (Value.as_addr lock) Cty.Int (Value.of_int 0);
      ret_void));

  (* -------- reductions -------- *)
  let reduce name f =
    reg name (F2 (fun ctx ptr v ->
        ignore (atomic_rmw ctx (block ()) ptr (fun old -> f old v));
        ret_void))
  in
  reduce "cudadev_reduce_fadd" (fun old v ->
      Value.flt ~ty:(Value.ty_of old) (Value.as_float old +. Value.as_float v));
  reduce "cudadev_reduce_iadd" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (Int64.add (Value.as_int old) (Value.as_int v)));
  reduce "cudadev_reduce_fmul" (fun old v ->
      Value.flt ~ty:(Value.ty_of old) (Value.as_float old *. Value.as_float v));
  reduce "cudadev_reduce_imul" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (Int64.mul (Value.as_int old) (Value.as_int v)));
  reduce "cudadev_reduce_fmax" (fun old v ->
      Value.flt ~ty:(Value.ty_of old) (Float.max (Value.as_float old) (Value.as_float v)));
  reduce "cudadev_reduce_fmin" (fun old v ->
      Value.flt ~ty:(Value.ty_of old) (Float.min (Value.as_float old) (Value.as_float v)));
  reduce "cudadev_reduce_imax" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (if Value.as_int v > Value.as_int old then Value.as_int v else Value.as_int old));
  reduce "cudadev_reduce_imin" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (if Value.as_int v < Value.as_int old then Value.as_int v else Value.as_int old));
  reduce "cudadev_reduce_iand" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (Int64.logand (Value.as_int old) (Value.as_int v)));
  reduce "cudadev_reduce_ior" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (Int64.logor (Value.as_int old) (Value.as_int v)));
  reduce "cudadev_reduce_ixor" (fun old v ->
      Value.int ~ty:(Value.ty_of old) (Int64.logxor (Value.as_int old) (Value.as_int v)));
  reduce "cudadev_reduce_iland" (fun old v ->
      Value.int ~ty:(Value.ty_of old)
        (if Value.as_int old <> 0L && Value.as_int v <> 0L then 1L else 0L));
  reduce "cudadev_reduce_fland" (fun old v ->
      Value.flt ~ty:(Value.ty_of old)
        (if Value.as_float old <> 0.0 && Value.as_float v <> 0.0 then 1.0 else 0.0));
  reduce "cudadev_reduce_flor" (fun old v ->
      Value.flt ~ty:(Value.ty_of old)
        (if Value.as_float old <> 0.0 || Value.as_float v <> 0.0 then 1.0 else 0.0));

  (* -------- CUDA intrinsics for hand-written kernels -------- *)
  reg "__syncthreads" (F0 (fun _ ->
      Simt.bar_sync 0 0 (* all live threads *);
      ret_void));
  reg "atomicAdd" (F2 (fun ctx ptr v ->
      atomic_rmw ctx (block ()) ptr (fun old ->
          match old with
          | Value.VFlt (f, ty) -> Value.flt ~ty (f +. Value.as_float v)
          | Value.VInt (i, ty) -> Value.int ~ty (Int64.add i (Value.as_int v))
          | o -> devrt_error "atomicAdd on %s" (Value.show o))));
  reg "atomicCAS" (F3 (fun ctx ptr cmp v ->
      atomic_rmw ctx (block ()) ptr (fun old ->
          if Value.as_int old = Value.as_int cmp then v else old)));
  reg "atomicExch" (F2 (fun ctx ptr v -> atomic_rmw ctx (block ()) ptr (fun _ -> v)))
