(* SIMT engine tests: thread identities, barriers, shared memory,
   atomics, divergence accounting, deadlock detection. *)

open Machine
open Gpusim

let make_driver ?(install = Devrt.Api.install) () =
  Driver.create ~install_builtins:install (Simclock.create ())

(* Compile a CUDA-style kernel source and launch it; [jit] selects the
   closure JIT or the tree-walking interpreter. *)
let launch ?(grid = Simt.dim3 1) ?(block = Simt.dim3 32) ?(jit = true) (d : Driver.t) src entry
    args =
  let prog = Minic.Parser.parse_program src in
  (match Minic.Typecheck.check_program ~cuda:true prog with
  | [] -> ()
  | errs -> Alcotest.failf "kernel type errors: %s" (String.concat "; " errs));
  Driver.set_jit d jit;
  let artifact = Nvcc.compile ~mode:Nvcc.Cubin ~name:entry prog in
  let m = Driver.load_module d artifact in
  Driver.launch_kernel d ~modul:m ~entry ~grid ~block ~args ()

(* Run [f] once per executor, labelling its checks. *)
let both_executors f = List.iter (fun (jit, label) -> f ~jit label) [ (true, "jit"); (false, "no-jit") ]

let read_i32 (d : Driver.t) (a : Addr.t) i =
  Int32.to_int (Bytes.get_int32_le d.Driver.global.Mem.data (Addr.off a + (4 * i)))

let fi = Value.ptr ~ty:Cty.Int

let test_thread_identity () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 128) in
  let src =
    {|
void k(int *out)
{
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  out[tid] = tid * 3;
}
|}
  in
  ignore (launch ~grid:(Simt.dim3 4) ~block:(Simt.dim3 32) d src "k" [ fi buf ]);
  for i = 0 to 127 do
    Alcotest.(check int) (Printf.sprintf "out[%d]" i) (i * 3) (read_i32 d buf i)
  done

let test_dim_variables () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 8) in
  let src =
    {|
void k(int *out)
{
  if (threadIdx.x == 0 && threadIdx.y == 0 && blockIdx.x == 0 && blockIdx.y == 0) {
    out[0] = blockDim.x;
    out[1] = blockDim.y;
    out[2] = blockDim.z;
    out[3] = gridDim.x;
    out[4] = gridDim.y;
  }
}
|}
  in
  ignore (launch ~grid:(Simt.dim3 3 ~y:2) ~block:(Simt.dim3 8 ~y:4) d src "k" [ fi buf ]);
  Alcotest.(check (list int)) "dims" [ 8; 4; 1; 3; 2 ] (List.init 5 (read_i32 d buf))

let test_syncthreads_shared () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 64) in
  (* reverse within the block through shared memory: requires the barrier *)
  let src =
    {|
void k(int *out)
{
  __shared__ int stage[64];
  int t = threadIdx.x;
  stage[t] = t * 10;
  __syncthreads();
  out[t] = stage[63 - t];
}
|}
  in
  ignore (launch ~block:(Simt.dim3 64) d src "k" [ fi buf ]);
  for i = 0 to 63 do
    Alcotest.(check int) (Printf.sprintf "out[%d]" i) ((63 - i) * 10) (read_i32 d buf i)
  done

let test_shared_is_per_block () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 4) in
  (* each block accumulates its own shared counter; blocks must not interfere *)
  let src =
    {|
void k(int *out)
{
  __shared__ int acc;
  if (threadIdx.x == 0)
    acc = 0;
  __syncthreads();
  atomicAdd(&acc, 1);
  __syncthreads();
  if (threadIdx.x == 0)
    out[blockIdx.x] = acc;
}
|}
  in
  ignore (launch ~grid:(Simt.dim3 4) ~block:(Simt.dim3 32) d src "k" [ fi buf ]);
  Alcotest.(check (list int)) "per-block counters" [ 32; 32; 32; 32 ] (List.init 4 (read_i32 d buf))

let test_atomic_add () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d 4 in
  let src = "void k(int *c) { atomicAdd(c, 1); }" in
  ignore (launch ~grid:(Simt.dim3 8) ~block:(Simt.dim3 64) d src "k" [ fi buf ]);
  Alcotest.(check int) "all increments landed" 512 (read_i32 d buf 0)

let test_atomic_cas_lock () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d 8 in
  (* non-atomic increment guarded by the cudadev CAS lock *)
  let src =
    {|
void k(int *data)
{
  cudadev_lock(&data[0]);
  data[1] = data[1] + 1;
  cudadev_unlock(&data[0]);
}
|}
  in
  ignore (launch ~grid:(Simt.dim3 2) ~block:(Simt.dim3 64) d src "k" [ fi buf ]);
  Alcotest.(check int) "mutual exclusion" 128 (read_i32 d buf 1);
  Alcotest.(check int) "lock released" 0 (read_i32 d buf 0)

let test_device_printf () =
  let d = make_driver () in
  let src = "void k(void) { if (threadIdx.x == 0) printf(\"hello from block %d\\n\", blockIdx.x); }" in
  ignore (launch ~grid:(Simt.dim3 2) ~block:(Simt.dim3 32) d src "k" []);
  Alcotest.(check string) "device printf" "hello from block 0\nhello from block 1\n" (Driver.take_output d)

let test_deadlock_detection () =
  let d = make_driver () in
  let src =
    {|
void k(int *out)
{
  if (threadIdx.x < 16)
    cudadev_barrier(32);
  out[0] = 1;
}
|}
  in
  let buf = Driver.mem_alloc d 4 in
  Alcotest.(check bool) "deadlock raises" true
    (match launch ~block:(Simt.dim3 32) d src "k" [ fi buf ] with
    | exception Simt.Simt_error _ -> true
    | _ -> false)

let test_mismatched_barrier () =
  let d = make_driver () in
  let src =
    {|
void k(void)
{
  if (threadIdx.x < 16)
    cudadev_barrier(16);
  else
    cudadev_barrier(32);
}
|}
  in
  Alcotest.(check bool) "mismatched counts raise" true
    (match launch ~block:(Simt.dim3 32) d src "k" [] with
    | exception Simt.Simt_error _ -> true
    | _ -> false)

let test_divergence_metric () =
  let d = make_driver () in
  let src =
    {|
void k(int *out)
{
  if (threadIdx.x == 0) {
    int i;
    int s = 0;
    for (i = 0; i < 1000; i++)
      s += i;
    out[0] = s;
  }
}
|}
  in
  let buf = Driver.mem_alloc d 4 in
  let stats = launch ~block:(Simt.dim3 32) d src "k" [ fi buf ] in
  Alcotest.(check bool) "one hot lane inflates divergence" true
    (stats.Driver.st_breakdown.Costmodel.bd_divergence > 10.0);
  Alcotest.(check int) "result" 499500 (read_i32 d buf 0)

(* The folded instruction counts of one hot lane per block, counted by
   hand.  A cold thread runs the [if] (a branch) and its [==] (an
   arith): 2 steps.  The hot thread adds 1001 loop tests (a branch and
   a [<] each), 1000 [s += i] and 1000 [i++] (an arith each) and the
   index of [out[blockIdx.x]] (an arith): 1002 branches and 3003
   ariths, 4005 steps.  A tally leaking across threads, blocks or
   launches would move these; both executors would share such a leak,
   so their differential cannot see it. *)
let test_folded_counts () =
  let src =
    {|
void k(int *out)
{
  if (threadIdx.x == 0) {
    int i;
    int s = 0;
    for (i = 0; i < 1000; i++)
      s += i;
    out[blockIdx.x] = s;
  }
}
|}
  in
  both_executors (fun ~jit label ->
      let d = make_driver () in
      let buf = Driver.mem_alloc d 8 in
      let check what (st : Driver.launch_stats) ~thread_sum ~warp_sum ~warp_max ~branch ~arith =
        let c = st.Driver.st_counters in
        let cl = c.Counters.classes in
        let name s = Printf.sprintf "%s, %s: %s" label what s in
        Alcotest.(check (float 0.0)) (name "thread_inst_sum") thread_sum c.Counters.thread_inst_sum;
        Alcotest.(check (float 0.0)) (name "warp_inst_sum") warp_sum c.Counters.warp_inst_sum;
        Alcotest.(check (float 0.0)) (name "warp_inst_max") warp_max c.Counters.warp_inst_max;
        Alcotest.(check (list int))
          (name "arith mul div branch call special")
          [ arith; 0; 0; branch; 0; 0 ]
          [ cl.Counters.arith; cl.Counters.mul; cl.Counters.div; cl.Counters.branch; cl.Counters.call;
            cl.Counters.special ]
      in
      (* two blocks of one warp: each a hot lane 0 and 31 cold lanes *)
      let st = launch ~grid:(Simt.dim3 2) ~block:(Simt.dim3 32) ~jit d src "k" [ fi buf ] in
      check "two blocks" st ~thread_sum:(2.0 *. (4005.0 +. 62.0)) ~warp_sum:(2.0 *. 4005.0)
        ~warp_max:4005.0 ~branch:(2 * (1002 + 31)) ~arith:(2 * (3003 + 31));
      (* then one block of two warps: the second warp is all cold *)
      let st = launch ~block:(Simt.dim3 64) ~jit d src "k" [ fi buf ] in
      check "second launch" st ~thread_sum:(4005.0 +. 126.0) ~warp_sum:(4005.0 +. 2.0) ~warp_max:4005.0
        ~branch:(1002 + 63) ~arith:(3003 + 63);
      Alcotest.(check int) (label ^ ": result") 499500 (read_i32 d buf 0))

let test_early_return_threads () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 64) in
  (* guarded threads return immediately; __syncthreads uses live count *)
  let src =
    {|
void k(int n, int *out)
{
  int t = threadIdx.x;
  if (t >= n)
    return;
  out[t] = 1;
  __syncthreads();
  out[t] = out[t] + 1;
}
|}
  in
  ignore (launch ~block:(Simt.dim3 64) d src "k" [ Value.of_int 40; fi buf ]);
  Alcotest.(check int) "active thread" 2 (read_i32 d buf 10);
  Alcotest.(check int) "inactive thread untouched" 0 (read_i32 d buf 63)

(* Master/worker scheme (paper §3.2): the master thread registers a
   parallel region and releases the worker warps through named barrier
   B1; participating workers join named barrier B2 after running the
   region.  The requested thread count (50) is deliberately not a
   multiple of the warp size (32), so B2's arrival count exercises the
   X = W * ceil(N/W) rounding, and the block (96 threads = 64 workers)
   leaves 14 workers idle. *)
let test_master_worker_protocol () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 64) in
  Driver.memset_d d ~dst:buf ~len:(4 * 64);
  let src =
    {|
void region(int *data)
{
  int id = omp_get_thread_num();
  data[id] = 1000 + id * omp_get_num_threads();
}

void k(int *data)
{
  int t = cudadev_thread_id();
  if (cudadev_in_masterwarp(t)) {
    if (!cudadev_is_masterthr(t))
      return;
    cudadev_register_parallel(region, data, 50);
    cudadev_exit_target();
  } else {
    cudadev_workerfunc(t);
  }
}
|}
  in
  ignore (launch ~block:(Simt.dim3 96) d src "k" [ fi buf ]);
  for id = 0 to 49 do
    Alcotest.(check int)
      (Printf.sprintf "participant %d ran the region" id)
      (1000 + (id * 50))
      (read_i32 d buf id)
  done;
  for id = 50 to 63 do
    Alcotest.(check int) (Printf.sprintf "idle worker %d untouched" id) 0 (read_i32 d buf id)
  done

(* The device builtin table is built once per device and shared by
   every thread of every launch: a builtin finds its block through the
   pool and its thread through the calling context's lane, never
   through a per-launch or per-thread install. *)
let test_install_once_per_device () =
  both_executors (fun ~jit label ->
      let installs = ref 0 in
      let install block tbl =
        incr installs;
        Devrt.Api.install block tbl
      in
      let d = make_driver ~install () in
      Alcotest.(check int) (label ^ ": installed when the device is created") 1 !installs;
      let grid = 4 and bx = 32 and by = 4 in
      let nthr = bx * by in
      let buf = Driver.mem_alloc d (4 * 5 * grid * nthr) in
      let src =
        {|
void k(int *out)
{
  int lin = threadIdx.x + blockDim.x * threadIdx.y;
  int g = 5 * (blockIdx.x * blockDim.x * blockDim.y + lin);
  out[g] = cudadev_thread_id();
  out[g + 1] = omp_get_thread_num();
  out[g + 2] = omp_get_num_threads();
  out[g + 3] = omp_get_team_num();
  out[g + 4] = threadIdx.x + 1000 * threadIdx.y;
}
|}
      in
      let check_identities round =
        for b = 0 to grid - 1 do
          for lin = 0 to nthr - 1 do
            let g = 5 * ((b * nthr) + lin) in
            let field i what expected =
              Alcotest.(check int)
                (Printf.sprintf "%s, %s launch: block %d lane %d %s" label round b lin what)
                expected (read_i32 d buf (g + i))
            in
            field 0 "cudadev_thread_id" lin;
            field 1 "omp_get_thread_num" lin;
            field 2 "omp_get_num_threads" nthr;
            field 3 "omp_get_team_num" b;
            field 4 "threadIdx" ((lin mod bx) + (1000 * (lin / bx)))
          done
        done
      in
      ignore (launch ~grid:(Simt.dim3 grid) ~block:(Simt.dim3 bx ~y:by) ~jit d src "k" [ fi buf ]);
      check_identities "first";
      (* another module, then the first again, on the same device *)
      ignore (launch ~jit d "void k2(int *out) { out[0] = -1; }" "k2" [ fi buf ]);
      Alcotest.(check int) (label ^ ": second module ran") (-1) (read_i32 d buf 0);
      ignore (launch ~grid:(Simt.dim3 grid) ~block:(Simt.dim3 bx ~y:by) ~jit d src "k" [ fi buf ]);
      check_identities "again";
      Alcotest.(check int) (label ^ ": one install for three launches of two modules") 1 !installs)

(* A standalone parallel region with fewer threads than workers: the
   OpenMP ids live in each thread's state, are overridden only for the
   region's participants and only for its duration, and are restored in
   every block. *)
let test_master_worker_id_isolation () =
  both_executors (fun ~jit label ->
      let d = make_driver () in
      let grid = 3 and nthr = 96 and team = 20 in
      let warp = d.Driver.spec.Spec.warp_size in
      let buf = Driver.mem_alloc d (4 * 6 * grid * nthr) in
      Driver.memset_d d ~dst:buf ~len:(4 * 6 * grid * nthr);
      let src =
        {|
void region(int *rec)
{
  int g = 6 * (blockIdx.x * blockDim.x + cudadev_thread_id());
  rec[g + 2] = omp_get_thread_num();
  rec[g + 3] = omp_get_num_threads();
}

void k(int *rec, int team)
{
  int t = cudadev_thread_id();
  int g = 6 * (blockIdx.x * blockDim.x + t);
  rec[g] = omp_get_thread_num();
  rec[g + 1] = omp_get_num_threads();
  if (cudadev_in_masterwarp(t)) {
    if (cudadev_is_masterthr(t)) {
      cudadev_register_parallel(region, rec, team);
      cudadev_exit_target();
    }
  } else {
    cudadev_workerfunc(t);
  }
  rec[g + 4] = omp_get_thread_num();
  rec[g + 5] = omp_get_num_threads();
}
|}
      in
      ignore
        (launch ~grid:(Simt.dim3 grid) ~block:(Simt.dim3 nthr) ~jit d src "k"
           [ fi buf; Value.of_int team ]);
      for b = 0 to grid - 1 do
        for t = 0 to nthr - 1 do
          let g = 6 * ((b * nthr) + t) in
          let pair i what (eid, enum) =
            Alcotest.(check (pair int int))
              (Printf.sprintf "%s: block %d thread %d %s" label b t what)
              (eid, enum)
              (read_i32 d buf (g + i), read_i32 d buf (g + i + 1))
          in
          let wid = t - warp in
          pair 0 "before" (t, nthr);
          pair 2 "inside" (if wid >= 0 && wid < team then (wid, team) else (0, 0));
          pair 4 "after" (t, nthr)
        done
      done)

(* Regression: a live-count barrier (__syncthreads) must be re-evaluated
   when a thread retires.  Threads 0..n-1 arrive at the barrier while
   all block threads are still live, so the expected count is initially
   too high; threads n.. then do real work and return without ever
   syncing.  Only the retire-path recheck can release the waiters —
   without it this deadlocks. *)
let test_retiring_thread_reevaluates_barrier () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d (4 * 64) in
  Driver.memset_d d ~dst:buf ~len:(4 * 64);
  let src =
    {|
void k(int n, int *out)
{
  int t = threadIdx.x;
  if (t >= n) {
    int i;
    for (i = 0; i < 25; i++)
      out[t] = out[t] + 1;
    return;
  }
  out[t] = 1;
  __syncthreads();
  out[t] = out[t] + 1;
}
|}
  in
  ignore (launch ~block:(Simt.dim3 64) d src "k" [ Value.of_int 40; fi buf ]);
  Alcotest.(check int) "waiter released after retires" 2 (read_i32 d buf 10);
  Alcotest.(check int) "last waiter" 2 (read_i32 d buf 39);
  Alcotest.(check int) "retiring thread did its work" 25 (read_i32 d buf 50)

(* The shared-memory tree the reduction lowering emits, hand-written:
   a guarded log-step combine where fewer and fewer threads are active
   at each barrier (the others arrive idle), and a CAS-based
   cross-block publish.  Exercised at awkward block sizes — a single
   thread (the tree degenerates to the publish), a sub-warp odd size,
   and a non-power-of-two multi-warp size where [t + s < num] clips the
   top stride. *)
let test_tree_reduce_divergent_shapes () =
  let src =
    {|
void k(int *out)
{
  __shared__ int sh[128];
  int t = threadIdx.x;
  int num = blockDim.x;
  int s = 1;
  sh[t] = t + 1;
  __syncthreads();
  while (s < num)
    s = s * 2;
  s = s / 2;
  while (s > 0) {
    if (t < s && t + s < num)
      sh[t] = sh[t] + sh[t + s];
    __syncthreads();
    s = s / 2;
  }
  if (t == 0)
    cudadev_reduce_iadd(out, sh[0]);
}
|}
  in
  List.iter
    (fun (blocks, threads) ->
      let d = make_driver () in
      let buf = Driver.mem_alloc d 4 in
      let stats =
        launch ~grid:(Simt.dim3 blocks) ~block:(Simt.dim3 threads) d src "k" [ fi buf ]
      in
      let label = Printf.sprintf "%d blocks x %d threads" blocks threads in
      Alcotest.(check int) label
        (blocks * (threads * (threads + 1) / 2))
        (read_i32 d buf 0);
      (* exactly one publish atomic per block, regardless of tree shape *)
      Alcotest.(check int) (label ^ ": atomics") blocks stats.Driver.st_counters.Counters.atomics)
    [ (3, 1); (2, 7); (2, 37); (1, 100); (4, 64) ]

let test_block_limit () =
  let d = make_driver () in
  Alcotest.(check bool) "block too large" true
    (match launch ~block:(Simt.dim3 2048) d "void k(void) { }" "k" [] with
    | exception Simt.Simt_error _ -> true
    | _ -> false)

let test_host_memory_guard () =
  let d = make_driver () in
  let src = "void k(int *p) { p[0] = 1; }" in
  (* passing a host address into a kernel must be caught at access time *)
  Alcotest.(check bool) "host access from device raises" true
    (match launch d src "k" [ Value.ptr ~ty:Cty.Int (Addr.make Addr.Host 64) ] with
    | exception Simt.Simt_error _ -> true
    | _ -> false)

(* ---------------------------------------------------------------- *)
(* Local memory is a device resource: a reused pool is a fresh pool   *)
(* ---------------------------------------------------------------- *)

(* What a launch produced, as comparable data: its result or the
   exception it raised. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let outcome_t = Alcotest.(result (list int) string)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

(* Run [second] on a driver that has just run [first], and on a fresh
   driver: the earlier launch must leave no trace in the later one. *)
let check_like_fresh label ~first ~second =
  let reused = make_driver () in
  first reused;
  let after = outcome (fun () -> second reused) in
  let fresh = outcome (fun () -> second (make_driver ())) in
  Alcotest.check outcome_t label fresh after;
  after

(* Kernel A leaves a sentinel above the end of its local array (inside
   the 8 KiB a lane starts with); kernel B has the same frame layout and
   reads that word.  It must read 0, as on a fresh device. *)
let test_local_pool_no_stale_bytes () =
  both_executors (fun ~jit label ->
      let writer =
        "void ka(int *out) { int a[4]; a[0] = threadIdx.x; a[100] = 12345 + threadIdx.x; }"
      in
      let reader = "void kb(int *out) { int b[4]; out[threadIdx.x] = b[100]; }" in
      let read d =
        let buf = Driver.mem_alloc d (4 * 32) in
        ignore (launch ~jit d reader "kb" [ fi buf ]);
        List.init 32 (read_i32 d buf)
      in
      let after =
        check_like_fresh (label ^ ": read above the frame as on a fresh device")
          ~first:(fun d ->
            let buf = Driver.mem_alloc d (4 * 32) in
            ignore (launch ~jit d writer "ka" [ fi buf ]))
          ~second:read
      in
      Alcotest.check outcome_t (label ^ ": reads 0") (Ok (List.init 32 (fun _ -> 0))) after)

(* Kernel A grows every lane's stack past 8 KiB; the next launch must
   start from 8 KiB again, so its access at offset >= 8192 faults
   exactly as on a fresh device. *)
let test_local_pool_capacity_restored () =
  both_executors (fun ~jit label ->
      let grow =
        "void kg(int *out) { float big[4096]; big[0] = 1.0f; big[4095] = 2.0f; out[0] = 1; }"
      in
      let probe = "void kp(int *out) { int a[4]; a[0] = 1; out[threadIdx.x] = a[2100]; }" in
      let run src entry d =
        let buf = Driver.mem_alloc d (4 * 32) in
        ignore (launch ~jit d src entry [ fi buf ]);
        List.init 32 (read_i32 d buf)
      in
      let after =
        check_like_fresh (label ^ ": out-of-capacity access as on a fresh device")
          ~first:(fun d -> ignore (run grow "kg" d))
          ~second:(run probe "kp")
      in
      Alcotest.(check bool) (label ^ ": access past 8 KiB faults") true (Result.is_error after))

(* After a 256-thread launch the pool holds 256 lanes, but a 32-thread
   launch may only address its own 32. *)
let test_local_pool_foreign_lane () =
  both_executors (fun ~jit label ->
      let lane100 = Value.ptr ~ty:Cty.Int (Addr.make (Addr.Local 100) 64) in
      let after =
        check_like_fresh (label ^ ": foreign lane as on a fresh device")
          ~first:(fun d ->
            let buf = Driver.mem_alloc d (4 * 256) in
            ignore
              (launch ~jit ~block:(Simt.dim3 256) d "void kw(int *out) { out[threadIdx.x] = 1; }"
                 "kw" [ fi buf ]))
          ~second:(fun d ->
            ignore (launch ~jit d "void kf(int *p) { p[0] = 7; }" "kf" [ lane100 ]);
            [])
      in
      match after with
      | Error msg ->
        Alcotest.(check bool)
          (label ^ ": raises foreign local memory") true
          (contains msg "foreign local memory")
      | Ok _ -> Alcotest.failf "%s: access to Local 100 from a 32-thread launch succeeded" label)

(* ---------------------------------------------------------------- *)
(* Coalescing sampler                                                 *)
(* ---------------------------------------------------------------- *)

(* Distinct transaction segments touched by one warp's lanes [lo..hi)
   loading the 4-byte elements at [base + 4 * index lane]. *)
let warp_segments spec ~base ~index lo hi =
  let tx = spec.Spec.transaction_bytes in
  let seg l = (base + (4 * index l)) / tx in
  List.length (List.sort_uniq compare (List.init (hi - lo) (fun l -> seg (lo + l))))

(* Two blocks of 64 threads load one int each, so every warp-instruction
   is sampled with all 32 lanes and the estimate is the exact segment
   count summed over the 4 warps: 1 per warp for a broadcast, 32 for a
   32-byte stride, and 4 or 5 for a coalesced load depending on the
   buffer's alignment. *)
let test_coalescing_estimate () =
  both_executors (fun ~jit label ->
      List.iter
        (fun (what, expr, index) ->
          let d = make_driver () in
          let spec = d.Driver.spec in
          let blocks = 2 and threads = 64 in
          let n = blocks * threads in
          let buf = Driver.mem_alloc d (4 * 8 * n) in
          let src =
            Printf.sprintf
              "void k(int *a) { int tid = blockIdx.x * blockDim.x + threadIdx.x; int x = %s; }" expr
          in
          let stats =
            launch ~jit ~grid:(Simt.dim3 blocks) ~block:(Simt.dim3 threads) d src "k" [ fi buf ]
          in
          let w = spec.Spec.warp_size in
          let expected =
            List.fold_left ( + ) 0
              (List.init (n / w) (fun wi ->
                   warp_segments spec ~base:(Addr.off buf) ~index (wi * w) ((wi + 1) * w)))
          in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s: %s transactions" label what)
            (float_of_int expected)
            (Counters.global_transactions stats.Driver.st_counters))
        [
          ("coalesced", "a[tid]", Fun.id);
          ("broadcast", "a[0]", Fun.const 0);
          ("stride-8", "a[tid * 8]", fun i -> 8 * i);
        ])

(* A random stream of sampled accesses, fed to [on_global_access] block
   by block: its spec's warp size and largest block, its allocations'
   (offset, length), its block size and, per block, (thread, allocation,
   element) triples. *)
type stream = {
  st_warp : int;
  st_max_threads : int;
  st_allocs : (int * int) list;
  st_threads : int;
  st_blocks : (int * int * int) list list;
}

let gen_stream =
  let open QCheck.Gen in
  let* st_warp = oneofl [ 8; 16; 32 ] in
  let* st_max_threads = int_range 1 (4 * st_warp) in
  let* st_threads = int_range 1 st_max_threads in
  let* lens = list_size (int_range 1 3) (int_range 1 96) in
  let* gaps = list_repeat (List.length lens) (int_range 0 9) in
  let st_allocs =
    List.rev
      (snd
         (List.fold_left2
            (fun (next, acc) len gap ->
              let off = next + (4 * gap) in
              (off + (4 * len), (off, 4 * len) :: acc))
            (64, []) lens gaps))
  in
  let nallocs = List.length lens in
  let access =
    let* lin = int_bound (st_threads - 1) and* i = int_bound (nallocs - 1) in
    let+ e = int_bound ((snd (List.nth st_allocs i) / 4) - 1) in
    (lin, i, e)
  in
  let+ st_blocks =
    list_size (int_range 1 Counters.max_sample_blocks) (list_size (int_range 0 60) access)
  in
  { st_warp; st_max_threads; st_allocs; st_threads; st_blocks }

let print_stream st =
  Printf.sprintf "warp %d, max %d, %d threads, allocs [%s], blocks [%s]" st.st_warp
    st.st_max_threads st.st_threads
    (String.concat "; " (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) st.st_allocs))
    (String.concat " | "
       (List.map
          (fun b ->
            String.concat " " (List.map (fun (l, i, e) -> Printf.sprintf "%d:%d:%d" l i e) b))
          st.st_blocks))

(* An allocation's samples summed: (segments, lanes). *)
let sample_sums s =
  Counters.fold_samples
    (fun _ sm (n, m) -> (n + sm.Counters.sm_nsegs, m + sm.Counters.sm_lanes))
    s (0, 0)

(* The sampler against a naive model: per allocation, a table from
   sample key to the set of segments and the lanes counted. *)
let prop_sampler_matches_model =
  QCheck.Test.make ~name:"sampler matches a naive model" ~count:200
    (QCheck.make ~print:print_stream gen_stream)
    (fun st ->
      let spec =
        {
          Spec.jetson_nano_2gb with
          Spec.warp_size = st.st_warp;
          max_threads_per_block = st.st_max_threads;
        }
      in
      let c = Counters.create spec in
      let id i = 100 + i in
      Counters.set_alloc_table c
        (Array.of_list (List.mapi (fun i (o, l) -> (o, l, id i)) st.st_allocs));
      let rows = Spec.warps_per_block spec spec.Spec.max_threads_per_block in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun b accesses ->
          c.Counters.sample_block_seq <- b;
          Counters.begin_block c st.st_threads;
          let seq = Hashtbl.create 16 in
          List.iter
            (fun (lin, i, e) ->
              let off = fst (List.nth st.st_allocs i) + (4 * e) in
              Counters.on_global_access c ~lin Cinterp.Interp.Load (Addr.make Addr.Global off) 4;
              let k = Option.value ~default:0 (Hashtbl.find_opt seq (lin, i)) in
              Hashtbl.replace seq (lin, i) (k + 1);
              let key = ((((b * rows) + (lin / st.st_warp)) * Counters.sample_cap) + k, id i) in
              let segs, lanes =
                Option.value ~default:([], 0) (Hashtbl.find_opt model key)
              in
              let seg = off / spec.Spec.transaction_bytes in
              Hashtbl.replace model key
                ((if List.mem seg segs then segs else seg :: segs), lanes + 1))
            accesses)
        st.st_blocks;
      List.for_all
        (fun i ->
          let expected =
            List.sort compare
              (Hashtbl.fold
                 (fun (key, a) (segs, lanes) acc ->
                   if a = id i then (key, List.sort compare segs, lanes) :: acc else acc)
                 model [])
          in
          let s = Hashtbl.find c.Counters.per_alloc (id i) in
          let got =
            List.sort compare
              (Counters.fold_samples
                 (fun key sm acc -> (key, Counters.sample_segments sm, sm.Counters.sm_lanes) :: acc)
                 s [])
          in
          let sums =
            List.fold_left
              (fun (n, m) (_, segs, lanes) -> (n + List.length segs, m + lanes))
              (0, 0) expected
          in
          got = expected && sample_sums s = sums)
        (List.init (List.length st.st_allocs) Fun.id))

(* [n] accesses by each of lanes 1..[lanes] of warp 0, the k-th in
   segment (k + lane) mod 3 of the allocation at [base]. *)
let sampled_loop c ~base ~lanes n =
  for lin = 1 to lanes do
    for k = 0 to n - 1 do
      Counters.on_global_access c ~lin Cinterp.Interp.Load
        (Addr.make Addr.Global (base + (32 * ((k + lin) mod 3)) + (4 * (lin mod 8))))
        4
    done
  done

(* Once lane 0 has created samples 0..999 (segment k mod 3 each), 10 000
   accesses by ten more lanes to those samples add no minor-heap word
   (measured against an empty probe): each sample ends with 3 segments,
   within the capacity it was created with. *)
let test_sampled_access_no_alloc () =
  let c = Counters.create Spec.jetson_nano_2gb in
  let base = 256 in
  Counters.set_alloc_table c [| (base, 4096, 7) |];
  c.Counters.sample_block_seq <- 0;
  Counters.begin_block c 64;
  for k = 0 to 999 do
    Counters.on_global_access c ~lin:0 Cinterp.Interp.Load
      (Addr.make Addr.Global (base + (32 * (k mod 3))))
      4
  done;
  let minor_words_of f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let sink = ref 0 in
  let empty = minor_words_of (fun () -> sink := 0) in
  let words = minor_words_of (fun () -> sampled_loop c ~base ~lanes:10 1000) -. empty in
  Alcotest.(check (float 0.0)) "words allocated by 10 000 sampled accesses" 0.0 words;
  let s = Hashtbl.find c.Counters.per_alloc 7 in
  Alcotest.(check (pair int int)) "every access was sampled: (segments, lanes)" (3000, 11000)
    (sample_sums s)

(* A repeated launch pays no per-launch or per-thread set-up beyond the
   lane reset: no builtin table, JIT link or attachment, and the entry
   call's frame is the lane's.  An empty 8 x 256 kernel's second launch
   (the first built the lanes) allocates at most [bound] minor-heap
   words per thread: about 53 under the JIT (74 when every launch built
   its table and link and every thread its attachment and entry frame),
   about 134 on the tree-walker, whose calls build hashtable frames. *)
let test_launch_setup_words () =
  List.iter
    (fun (jit, label, bound) ->
      let d = make_driver () in
      let grid = Simt.dim3 8 and block = Simt.dim3 256 in
      let threads = 8 * 256 in
      ignore (launch ~grid ~block ~jit d "void k(void) { }" "k" []);
      let w0 = Gc.minor_words () in
      ignore (launch ~grid ~block ~jit d "void k(void) { }" "k" []);
      let per_thread = (Gc.minor_words () -. w0) /. float_of_int threads in
      if per_thread > bound then
        Alcotest.failf "%s: a repeated launch allocates %.1f words per thread (bound %.0f)" label
          per_thread bound)
    [ (true, "jit", 60.0); (false, "no-jit", 140.0) ]

let () =
  Alcotest.run "simt"
    [
      ( "identity",
        [
          Alcotest.test_case "thread ids" `Quick test_thread_identity;
          Alcotest.test_case "dim variables" `Quick test_dim_variables;
        ] );
      ( "synchronisation",
        [
          Alcotest.test_case "syncthreads + shared memory" `Quick test_syncthreads_shared;
          Alcotest.test_case "shared memory is per block" `Quick test_shared_is_per_block;
          Alcotest.test_case "atomicAdd" `Quick test_atomic_add;
          Alcotest.test_case "CAS lock mutual exclusion" `Quick test_atomic_cas_lock;
          Alcotest.test_case "early-returning threads" `Quick test_early_return_threads;
          Alcotest.test_case "retiring thread re-evaluates barrier" `Quick
            test_retiring_thread_reevaluates_barrier;
          Alcotest.test_case "tree reduce, divergent shapes" `Quick
            test_tree_reduce_divergent_shapes;
        ] );
      ( "master-worker",
        [
          Alcotest.test_case "B1/B2 protocol, non-warp-multiple team" `Quick test_master_worker_protocol;
          Alcotest.test_case "worker ids restored after a region" `Quick test_master_worker_id_isolation;
        ] );
      ( "builtins",
        [ Alcotest.test_case "one install per device" `Quick test_install_once_per_device ] );
      ( "failure modes",
        [
          Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
          Alcotest.test_case "mismatched barrier counts" `Quick test_mismatched_barrier;
          Alcotest.test_case "block size limit" `Quick test_block_limit;
          Alcotest.test_case "host-memory access guard" `Quick test_host_memory_guard;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "device printf" `Quick test_device_printf;
          Alcotest.test_case "divergence metric" `Quick test_divergence_metric;
          Alcotest.test_case "folded counts by hand" `Quick test_folded_counts;
        ] );
      ( "local pool",
        [
          Alcotest.test_case "no stale bytes across launches" `Quick test_local_pool_no_stale_bytes;
          Alcotest.test_case "capacity back to 8 KiB" `Quick test_local_pool_capacity_restored;
          Alcotest.test_case "foreign lane after a wider launch" `Quick
            test_local_pool_foreign_lane;
          Alcotest.test_case "repeated launch set-up words" `Quick test_launch_setup_words;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "coalescing estimate" `Quick test_coalescing_estimate;
          QCheck_alcotest.to_alcotest prop_sampler_matches_model;
          Alcotest.test_case "sampled access allocates nothing" `Quick test_sampled_access_no_alloc;
        ] );
    ]
