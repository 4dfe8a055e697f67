(* Device-runtime (cudadev) tests at the kernel level: the builtins are
   exercised directly from hand-written kernels, the way the generated
   code calls them. *)

open Machine
open Gpusim

let make_driver () = Driver.create ~install_builtins:Devrt.Api.install (Simclock.create ())

let launch ?(grid = Simt.dim3 1) ?(block = Simt.dim3 128) (d : Driver.t) src entry args =
  let prog = Minic.Parser.parse_program src in
  (match Minic.Typecheck.check_program ~cuda:true prog with
  | [] -> ()
  | errs -> Alcotest.failf "kernel type errors: %s" (String.concat "; " errs));
  let m = Driver.load_module d (Nvcc.compile ~mode:Nvcc.Cubin ~name:entry prog) in
  Driver.launch_kernel d ~modul:m ~entry ~grid ~block ~args ()

let read_i32 (d : Driver.t) (a : Addr.t) i =
  Int32.to_int (Bytes.get_int32_le d.Driver.global.Mem.data (Addr.off a + (4 * i)))

let read_f32 (d : Driver.t) (a : Addr.t) i =
  Int32.float_of_bits (Bytes.get_int32_le d.Driver.global.Mem.data (Addr.off a + (4 * i)))

let fi = Value.ptr ~ty:Cty.Int

let ff = Value.ptr ~ty:Cty.Float

let test_atomic_reductions () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d 16 in
  let src =
    {|
void k(float *facc, int *iacc)
{
  int t = threadIdx.x;
  cudadev_reduce_fadd(&facc[0], 0.5f);
  cudadev_reduce_imax(&iacc[0], t);
  cudadev_reduce_iadd(&iacc[1], 2);
}
|}
  in
  ignore (launch ~block:(Simt.dim3 64) d src "k" [ ff buf; fi (Addr.add buf 8) ]);
  Alcotest.(check bool) "fadd" true (read_f32 d buf 0 = 32.0);
  Alcotest.(check int) "imax" 63 (read_i32 d buf 2);
  Alcotest.(check int) "iadd" 128 (read_i32 d buf 3)

let test_static_chunk_partition () =
  let d = make_driver () in
  (* every thread marks its static chunk of [0, 1000); afterwards each
     iteration must be marked exactly once *)
  let n = 1000 in
  let buf = Driver.mem_alloc d (4 * n) in
  let src =
    {|
void k(int n, int *marks)
{
  int lb;
  int ub;
  cudadev_get_static_chunk(&lb, &ub, 0, n);
  int i;
  for (i = lb; i < ub; i++)
    marks[i] = marks[i] + 1;
}
|}
  in
  ignore (launch ~block:(Simt.dim3 96) d src "k" [ Value.of_int n; fi buf ]);
  for i = 0 to n - 1 do
    if read_i32 d buf i <> 1 then Alcotest.failf "iteration %d marked %d times" i (read_i32 d buf i)
  done

let test_dynamic_chunk_partition () =
  let d = make_driver () in
  let n = 777 in
  let buf = Driver.mem_alloc d (4 * n) in
  let src =
    {|
void k(int n, int *marks)
{
  int lb;
  int ub;
  while (cudadev_get_dynamic_chunk(1, 5, 0, n, &lb, &ub)) {
    int i;
    for (i = lb; i < ub; i++)
      marks[i] = marks[i] + 1;
  }
}
|}
  in
  ignore (launch ~block:(Simt.dim3 64) d src "k" [ Value.of_int n; fi buf ]);
  for i = 0 to n - 1 do
    if read_i32 d buf i <> 1 then Alcotest.failf "iteration %d marked %d times" i (read_i32 d buf i)
  done

let test_dynamic_chunk_reentry () =
  (* Two sequential visits to the same nowait-style worksharing loops
     (no cudadev_ws_barrier, which is what normally resets the shared
     counters).  Before the drain-recycling fix the second pass found
     the counters parked at [hi] and handed out zero iterations. *)
  let d = make_driver () in
  let n = 37 in
  let buf = Driver.mem_alloc d (4 * n) in
  let src =
    {|
void k(int n, int *marks)
{
  int pass;
  for (pass = 0; pass < 2; pass++) {
    int lb;
    int ub;
    while (cudadev_get_dynamic_chunk(9, 5, 0, n, &lb, &ub)) {
      int i;
      for (i = lb; i < ub; i++)
        marks[i] = marks[i] + 1;
    }
    /* a thread reaching here has drained region 9 exactly once; the
       barrier keeps fast threads from re-entering it early */
    cudadev_barrier(0);
    while (cudadev_get_guided_chunk(11, 2, 0, n, &lb, &ub)) {
      int i;
      for (i = lb; i < ub; i++)
        marks[i] = marks[i] + 10;
    }
    cudadev_barrier(0);
  }
}
|}
  in
  ignore (launch ~block:(Simt.dim3 16) d src "k" [ Value.of_int n; fi buf ]);
  for i = 0 to n - 1 do
    if read_i32 d buf i <> 22 then
      Alcotest.failf "iteration %d marked %d (expected 22: both passes, both schedules)" i
        (read_i32 d buf i)
  done

let test_dynamic_chunk_invalid_rid () =
  let d = make_driver () in
  let src =
    {|
void k(void)
{
  int lb;
  int ub;
  cudadev_get_dynamic_chunk(-1, 4, 0, 8, &lb, &ub);
}
|}
  in
  Alcotest.(check bool) "negative region id rejected" true
    (match launch ~block:(Simt.dim3 8) d src "k" [] with
    | exception Devrt.Api.Devrt_error _ -> true
    | _ -> false)

let test_distribute_across_teams () =
  let d = make_driver () in
  let n = 512 in
  let buf = Driver.mem_alloc d (4 * n) in
  let src =
    {|
void k(int n, int *marks)
{
  int dlb;
  int dub;
  cudadev_get_distribute_chunk(&dlb, &dub, 0, n);
  int lb;
  int ub;
  cudadev_get_static_chunk(&lb, &ub, dlb, dub);
  int i;
  for (i = lb; i < ub; i++)
    marks[i] = marks[i] + 1;
}
|}
  in
  ignore (launch ~grid:(Simt.dim3 8) ~block:(Simt.dim3 32) d src "k" [ Value.of_int n; fi buf ]);
  for i = 0 to n - 1 do
    if read_i32 d buf i <> 1 then Alcotest.failf "iteration %d marked %d times" i (read_i32 d buf i)
  done

let test_shmem_stack_mismatch () =
  let d = make_driver () in
  let src =
    {|
void k(void)
{
  if (threadIdx.x == 0) {
    int a = 1;
    int b = 2;
    cudadev_push_shmem(&a, sizeof(a));
    /* popping the wrong variable must be caught */
    cudadev_pop_shmem(&b, sizeof(b));
  }
}
|}
  in
  Alcotest.(check bool) "mismatched pop detected" true
    (match launch ~block:(Simt.dim3 32) d src "k" [] with
    | exception Devrt.Api.Devrt_error _ -> true
    | _ -> false)

let test_workerfunc_guard () =
  let d = make_driver () in
  let src = "void k(void) { cudadev_workerfunc(0); }" in
  Alcotest.(check bool) "workerfunc from master warp rejected" true
    (match launch ~block:(Simt.dim3 128) d src "k" [] with
    | exception Devrt.Api.Devrt_error _ -> true
    | _ -> false)

let test_b1_participants () =
  (* 128-thread block: 1 master + 96 workers *)
  let d = make_driver () in
  let buf = Driver.mem_alloc d 4 in
  let src =
    {|
void k(int *out)
{
  if (threadIdx.x == 0)
    out[0] = 1;
}
|}
  in
  ignore (launch ~block:(Simt.dim3 128) d src "k" [ fi buf ]);
  (* the arithmetic itself *)
  Alcotest.(check int) "fixed master/worker geometry" 128 Translator.Kernelgen.mw_block_threads

let test_sections_exhaustion () =
  let d = make_driver () in
  let buf = Driver.mem_alloc d 16 in
  (* 2 sections, 8 threads: each section granted once, others get -1 *)
  let src =
    {|
void k(int *hits)
{
  int s;
  while ((s = cudadev_sections_next(7, 2)) >= 0)
    hits[s] = hits[s] + 1;
}
|}
  in
  ignore (launch ~block:(Simt.dim3 8) d src "k" [ fi buf ]);
  Alcotest.(check int) "section 0 once" 1 (read_i32 d buf 0);
  Alcotest.(check int) "section 1 once" 1 (read_i32 d buf 1)

let () =
  Alcotest.run "devrt"
    [
      ( "reductions",
        [ Alcotest.test_case "atomic reduction builtins" `Quick test_atomic_reductions ] );
      ( "worksharing",
        [
          Alcotest.test_case "static chunk partition" `Quick test_static_chunk_partition;
          Alcotest.test_case "dynamic chunk partition" `Quick test_dynamic_chunk_partition;
          Alcotest.test_case "nowait loop re-entry (counter recycling)" `Quick
            test_dynamic_chunk_reentry;
          Alcotest.test_case "invalid region id" `Quick test_dynamic_chunk_invalid_rid;
          Alcotest.test_case "distribute across teams" `Quick test_distribute_across_teams;
          Alcotest.test_case "sections exhaustion" `Quick test_sections_exhaustion;
        ] );
      ( "protocol guards",
        [
          Alcotest.test_case "shared-memory stack mismatch" `Quick test_shmem_stack_mismatch;
          Alcotest.test_case "workerfunc guard" `Quick test_workerfunc_guard;
          Alcotest.test_case "master/worker geometry" `Quick test_b1_participants;
        ] );
    ]
