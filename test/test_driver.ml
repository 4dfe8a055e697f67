(* Driver API tests: memory management, transfers, module loading with
   PTX/CUBIN cost behaviour, lazy initialisation. *)

open Machine
open Gpusim

let saxpy_kernel =
  "void k(int n, float *x) { int i = blockIdx.x * blockDim.x + threadIdx.x; if (i < n) x[i] = x[i] * 2.0f; }"

let artifact ?(mode = Nvcc.Cubin) ?(name = "k") src = Nvcc.compile ~mode ~name (Minic.Parser.parse_program src)

let test_lazy_init () =
  let clock = Simclock.create () in
  let d = Driver.create clock in
  Alcotest.(check bool) "no cost until first use" true (Simclock.now_s clock = 0.0);
  ignore (Driver.mem_alloc d 64);
  Alcotest.(check bool) "first use pays initialisation" true (Simclock.now_s clock > 0.1);
  let t = Simclock.now_s clock in
  ignore (Driver.mem_alloc d 64);
  Alcotest.(check bool) "initialisation paid once" true (Simclock.now_s clock -. t < 0.001)

let test_alloc_free () =
  let d = Driver.create (Simclock.create ()) in
  let a = Driver.mem_alloc d 1024 in
  Alcotest.(check bool) "global space" true (Addr.space a = Addr.Global);
  Driver.mem_free d a;
  Alcotest.(check bool) "zero-size alloc rejected" true
    (match Driver.mem_alloc d 0 with exception Driver.Cuda_error _ -> true | _ -> false)

let test_memcpy_roundtrip () =
  let d = Driver.create (Simclock.create ()) in
  let host = Mem.create ~space:Addr.Host "host" in
  let src = Mem.alloc host 64 and dst = Mem.alloc host 64 in
  for i = 0 to 15 do
    Bytes.set_int32_le host.Mem.data (Addr.off src + (4 * i)) (Int32.of_int (i * i))
  done;
  let dev = Driver.mem_alloc d 64 in
  Driver.memcpy_h2d d ~host ~src ~dst:dev ~len:64;
  Driver.memcpy_d2h d ~host ~src:dev ~dst ~len:64;
  for i = 0 to 15 do
    Alcotest.(check int32) "roundtrip" (Int32.of_int (i * i))
      (Bytes.get_int32_le host.Mem.data (Addr.off dst + (4 * i)))
  done

let test_memcpy_direction_checks () =
  let d = Driver.create (Simclock.create ()) in
  let host = Mem.create ~space:Addr.Host "host" in
  let h = Mem.alloc host 16 in
  Alcotest.(check bool) "h2d rejects host destination" true
    (match Driver.memcpy_h2d d ~host ~src:h ~dst:h ~len:16 with
    | exception Driver.Cuda_error _ -> true
    | _ -> false)

let test_transfer_time_scales () =
  let clock = Simclock.create () in
  let d = Driver.create clock in
  let host = Mem.create ~space:Addr.Host "host" in
  let small = Mem.alloc host 1024 and big = Mem.alloc host (1024 * 1024) in
  let dsmall = Driver.mem_alloc d 1024 and dbig = Driver.mem_alloc d (1024 * 1024) in
  let t0 = Simclock.now_s clock in
  Driver.memcpy_h2d d ~host ~src:small ~dst:dsmall ~len:1024;
  let t_small = Simclock.now_s clock -. t0 in
  let t1 = Simclock.now_s clock in
  Driver.memcpy_h2d d ~host ~src:big ~dst:dbig ~len:(1024 * 1024) ;
  let t_big = Simclock.now_s clock -. t1 in
  Alcotest.(check bool) "1MB slower than 1KB" true (t_big > t_small);
  Alcotest.(check bool) "latency floor on small copies" true (t_small > 1e-6)

let test_module_loading_modes () =
  (* CUBIN loads cheaply; PTX pays JIT once, then hits the disk cache *)
  let load mode jit_seed =
    let clock = Simclock.create () in
    let d = Driver.create clock in
    Driver.ensure_initialized d;
    (match jit_seed with
    | Some cache -> Hashtbl.iter (fun k v -> Hashtbl.replace d.Driver.jit_cache k v) cache
    | None -> ());
    let t0 = Simclock.now_s clock in
    ignore (Driver.load_module d (artifact ~mode saxpy_kernel));
    (Simclock.now_s clock -. t0, Hashtbl.copy d.Driver.jit_cache)
  in
  let t_cubin, _ = load Nvcc.Cubin None in
  let t_ptx_cold, cache = load Nvcc.Ptx None in
  let t_ptx_warm, _ = load Nvcc.Ptx (Some cache) in
  Alcotest.(check bool) "JIT cold is the slowest" true (t_ptx_cold > t_cubin);
  Alcotest.(check bool) "disk cache removes the JIT cost" true (t_ptx_warm < t_ptx_cold /. 5.0);
  Alcotest.(check bool) "ptx binaries are lighter than cubins" true
    ((artifact ~mode:Nvcc.Ptx saxpy_kernel).Nvcc.art_size_bytes
    < (artifact ~mode:Nvcc.Cubin saxpy_kernel).Nvcc.art_size_bytes)

let test_module_caching () =
  let clock = Simclock.create () in
  let d = Driver.create clock in
  Driver.ensure_initialized d;
  let a = artifact saxpy_kernel in
  ignore (Driver.load_module d a);
  let t = Simclock.now_s clock in
  ignore (Driver.load_module d a);
  Alcotest.(check bool) "second load is nearly free" true (Simclock.now_s clock -. t < 1e-4)

let test_get_function () =
  let d = Driver.create (Simclock.create ()) in
  let m = Driver.load_module d (artifact saxpy_kernel) in
  ignore (Driver.get_function m "k");
  Alcotest.(check bool) "missing kernel" true
    (match Driver.get_function m "nope" with exception Driver.Cuda_error _ -> true | _ -> false)

let test_launch_accounting () =
  let clock = Simclock.create () in
  let d = Driver.create clock in
  let buf = Driver.mem_alloc d (4 * 256) in
  let m = Driver.load_module d (artifact saxpy_kernel) in
  let t0 = Simclock.now_s clock in
  let stats =
    Driver.launch_kernel d ~modul:m ~entry:"k" ~grid:(Simt.dim3 8) ~block:(Simt.dim3 32)
      ~args:[ Value.of_int 256; Value.ptr ~ty:Cty.Float buf ]
      ~install_builtins:Devrt.Api.install ()
  in
  Alcotest.(check bool) "clock advanced" true (Simclock.now_s clock > t0);
  Alcotest.(check int) "all blocks simulated" 8 stats.Driver.st_blocks_simulated;
  Alcotest.(check int) "launch recorded" 1 d.Driver.kernels_launched;
  Alcotest.(check bool) "breakdown has issue cycles" true
    (stats.Driver.st_breakdown.Costmodel.bd_issue_cycles > 0.0)

let () =
  Alcotest.run "driver"
    [
      ( "memory",
        [
          Alcotest.test_case "lazy initialisation" `Quick test_lazy_init;
          Alcotest.test_case "alloc/free" `Quick test_alloc_free;
          Alcotest.test_case "memcpy roundtrip" `Quick test_memcpy_roundtrip;
          Alcotest.test_case "direction checks" `Quick test_memcpy_direction_checks;
          Alcotest.test_case "transfer time model" `Quick test_transfer_time_scales;
        ] );
      ( "modules",
        [
          Alcotest.test_case "ptx vs cubin loading" `Quick test_module_loading_modes;
          Alcotest.test_case "module caching" `Quick test_module_caching;
          Alcotest.test_case "get_function" `Quick test_get_function;
        ] );
      ( "launch",
        [
          Alcotest.test_case "launch accounting" `Quick test_launch_accounting;
        ] );
    ]
