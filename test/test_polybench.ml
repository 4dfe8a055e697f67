(* Benchmark-suite validation: every application, in both the CUDA and
   the OMPi variant, must reproduce the sequential reference bit-for-bit
   at the validation sizes; the two variants must also agree with each
   other. *)

let validate_case (app : Polybench.Suite.app) variant n () =
  match Polybench.Suite.validate app variant ~n with
  | Ok err -> Alcotest.(check bool) "within tolerance" true (err < 1e-3)
  | Error msg -> Alcotest.fail msg

let agreement_case (app : Polybench.Suite.app) () =
  let n = List.hd app.Polybench.Suite.ap_validate_sizes in
  let ctx = Polybench.Harness.create () in
  let _, cuda = app.Polybench.Suite.ap_run ctx Polybench.Harness.Cuda ~n in
  let ctx2 = Polybench.Harness.create () in
  let _, ompi = app.Polybench.Suite.ap_run ctx2 Polybench.Harness.Ompi_cudadev ~n in
  let err = Polybench.Harness.max_rel_error ompi cuda in
  Alcotest.(check bool) "CUDA and OMPi agree" true (err < 1e-5)

(* Differential test: the offloaded result must match the
   host-interpreter reference (directives stripped, run sequentially
   through Cinterp on host memory) within tolerance.  The tolerance is
   loose enough for reduction-order differences between the sequential
   host loops and the device's parallel execution. *)
let differential_case (app : Polybench.Suite.app) () =
  let n = List.hd app.Polybench.Suite.ap_validate_sizes in
  let ctx = Polybench.Harness.create () in
  let _, offloaded = app.Polybench.Suite.ap_run ctx Polybench.Harness.Ompi_cudadev ~n in
  let ctx2 = Polybench.Harness.create () in
  let _, host = app.Polybench.Suite.ap_run ctx2 Polybench.Harness.Host_interp ~n in
  Alcotest.(check int) "same result length" (Array.length host) (Array.length offloaded);
  let err = Polybench.Harness.max_rel_error offloaded host in
  if err >= 1e-3 then
    Alcotest.failf "%s n=%d: offloaded vs host-interpreter max relative error %.3e"
      app.Polybench.Suite.ap_name n err

let suite_metadata () =
  Alcotest.(check int) "six applications" 6 (List.length Polybench.Suite.all);
  Alcotest.(check int) "five extras" 5 (List.length Polybench.Suite.extras);
  let figures = List.map (fun a -> a.Polybench.Suite.ap_figure) Polybench.Suite.all in
  Alcotest.(check (list string)) "one per paper sub-figure"
    [ "fig4a"; "fig4b"; "fig4c"; "fig4d"; "fig4e"; "fig4f" ]
    (List.sort compare figures);
  List.iter
    (fun (a : Polybench.Suite.app) ->
      Alcotest.(check bool) (a.Polybench.Suite.ap_name ^ " has sizes") true
        (List.length a.Polybench.Suite.ap_sizes = 5))
    Polybench.Suite.all

(* The bulk harness helpers must move exactly the bits the per-element
   [set_*]/[get_*] accessors do, on the awkward float32 values too, and
   fail the same way past the end of memory. *)
module H = Polybench.Harness

let f32_specials =
  List.map Int32.float_of_bits
    [
      0x80000000l (* -0.0 *);
      0x00000000l;
      0x00000001l (* smallest subnormal *);
      0x807FFFFFl (* largest negative subnormal *);
      0x7F800000l (* +inf *);
      0xFF800000l (* -inf *);
      0x7FC00000l (* quiet NaN *);
      0xFFC00123l (* negative NaN with payload *);
      0x3FC00000l (* 1.5 *);
    ]

let bits_f32 xs = Array.map Int32.bits_of_float xs

let test_bulk_f32 () =
  let ctx = H.create () in
  let vals = Array.of_list f32_specials in
  let n = Array.length vals in
  let ref_a = H.alloc_f32 ctx n and bulk_a = H.alloc_f32 ctx n and copy_a = H.alloc_f32 ctx n in
  Array.iteri (H.set_f32 ctx ref_a) vals;
  H.fill_f32 ctx bulk_a n (fun i -> vals.(i));
  let per_elt a = Array.init n (H.get_f32 ctx a) in
  Alcotest.(check (array int32)) "fill = per-element set" (bits_f32 (per_elt ref_a))
    (bits_f32 (per_elt bulk_a));
  Alcotest.(check (array int32)) "read = per-element get" (bits_f32 (per_elt ref_a))
    (bits_f32 (H.read_f32_array ctx ref_a n));
  H.copy_f32 ctx ~src:ref_a ~dst:copy_a n;
  Alcotest.(check (array int32)) "copy is bit-exact" (bits_f32 (per_elt ref_a))
    (bits_f32 (per_elt copy_a));
  let finite = Array.of_list (List.filter Float.is_finite f32_specials) in
  let m = Array.length finite in
  let fin_a = H.alloc_f32 ctx m in
  H.fill_f32 ctx fin_a m (fun i -> finite.(i));
  let want = ref 0.0 in
  for i = 0 to m - 1 do
    want := !want +. Float.abs (H.get_f32 ctx fin_a i)
  done;
  Alcotest.(check bool) "checksum = per-element sum" true
    (Float.equal !want (H.checksum ctx fin_a m))

let test_bulk_i32 () =
  let ctx = H.create () in
  let vals = [| Int32.to_int Int32.min_int; Int32.to_int Int32.max_int; -1; 0; 1; 123456789 |] in
  let n = Array.length vals in
  let ref_a = H.alloc_i32 ctx n and bulk_a = H.alloc_i32 ctx n in
  Array.iteri (H.set_i32 ctx ref_a) vals;
  H.fill_i32 ctx bulk_a n (fun i -> vals.(i));
  Alcotest.(check (array int)) "fill = per-element set" (Array.init n (H.get_i32 ctx ref_a))
    (Array.init n (H.get_i32 ctx bulk_a));
  Alcotest.(check (array int)) "read = per-element get" vals (H.read_i32_array ctx ref_a n)

let test_bulk_bounds () =
  let ctx = H.create () in
  let host = ctx.H.rt.Hostrt.Rt.host_mem in
  (* four elements starting two before the end of the storage *)
  let a = Machine.Addr.make Machine.Addr.Host (Machine.Mem.capacity host - 8) in
  let ok = H.alloc_f32 ctx 4 in
  let raises name f =
    Alcotest.(check bool) (name ^ " raises Invalid_argument") true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  raises "set_f32" (fun () -> H.set_f32 ctx a 3 1.0);
  raises "get_f32" (fun () -> ignore (H.get_f32 ctx a 3));
  raises "fill_f32" (fun () -> H.fill_f32 ctx a 4 (fun _ -> 1.0));
  raises "read_f32_array" (fun () -> ignore (H.read_f32_array ctx a 4));
  raises "fill_i32" (fun () -> H.fill_i32 ctx a 4 (fun _ -> 1));
  raises "read_i32_array" (fun () -> ignore (H.read_i32_array ctx a 4));
  raises "checksum" (fun () -> ignore (H.checksum ctx a 4));
  raises "copy_f32 from past the end" (fun () -> H.copy_f32 ctx ~src:a ~dst:ok 4);
  raises "copy_f32 to past the end" (fun () -> H.copy_f32 ctx ~src:ok ~dst:a 4);
  Alcotest.(check int) "no growth from a failed bulk write" (Machine.Addr.off a + 8)
    (Machine.Mem.capacity host)

(* Deviation D2: under [gemm_penalty], [measure] charges 18% of the
   kernel time to a translated launch of 16384 blocks, on top of the
   model's own time, and nothing to a [launch_cuda] launch of the same
   grid. *)
let scale_omp =
  {|
void scale(int n, int teams, float a[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(32) \
      map(tofrom: a[0:n])
  for (int i = 0; i < n; i++)
    a[i] = a[i] * 2.0f;
}
|}

let scale_cuda =
  {|
void scale_kernel(int n, float *a)
{
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) a[i] = a[i] * 2.0f;
}
|}

let test_translated_penalty () =
  let blocks = 16384 in
  let n = 32 * blocks in
  (* simulated seconds of the window, the launch's kernel time (ns) and
     the number of penalty instants traced *)
  let run ~penalised ~cuda =
    let ctx = H.create () in
    H.set_sampling ctx (Some 2);
    if penalised then H.set_translated_penalty ctx Polybench.Suite.gemm_penalty;
    let tr = H.enable_trace ctx in
    let a = H.alloc_f32 ctx n in
    let time =
      if cuda then begin
        let m = H.cuda_module ctx ~name:"scale_cuda" ~source:scale_cuda in
        let d = H.dev_alloc ctx (4 * n) in
        H.measure ctx (fun () ->
            ignore
              (H.launch_cuda ctx m ~entry:"scale_kernel" ~grid:(Gpusim.Simt.dim3 blocks)
                 ~block:(Gpusim.Simt.dim3 32) [ H.vint n; H.fptr d ]))
      end
      else begin
        let p = H.prepare_omp ctx ~name:"scale" scale_omp in
        H.measure ctx (fun () -> H.call_omp p "scale" [ H.vint n; H.vint blocks; H.fptr a ])
      end
    in
    let st = List.hd (H.driver ctx).Gpusim.Driver.launches in
    Alcotest.(check int) "grid" blocks (Gpusim.Simt.dim3_total st.Gpusim.Driver.st_grid);
    Alcotest.(check int) "sampled" 2 st.Gpusim.Driver.st_blocks_simulated;
    ( time,
      st.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_time_ns,
      Perf.Trace.count_events tr ~cat:"launch" ~name:"occupancy_penalty" () )
  in
  let base, kernel_ns, none = run ~penalised:false ~cuda:false in
  let pen, kernel_ns', one = run ~penalised:true ~cuda:false in
  Alcotest.(check (float 0.0)) "kernel time is the model's own" kernel_ns kernel_ns';
  Alcotest.(check (float 1e-9)) "translated launch pays 18% of its kernel time" 0.18
    ((pen -. base) *. 1e9 /. kernel_ns);
  Alcotest.(check (list int)) "one penalty instant, only when charged" [ 0; 1 ] [ none; one ];
  let cbase, _, _ = run ~penalised:false ~cuda:true in
  let cpen, _, cev = run ~penalised:true ~cuda:true in
  Alcotest.(check (float 0.0)) "CUDA launch unpenalised" cbase cpen;
  Alcotest.(check int) "no CUDA penalty instant" 0 cev

(* Host locals live in the stack segments carved at [Rt.create]: with
   the heap's [brk] at the end of the storage, a translated call that
   maps its scalar [n] by address neither grows host memory nor leaves
   an allocation behind, on either executor. *)
let test_host_call_no_growth () =
  List.iter
    (fun jit ->
      let ctx = H.create ~config:{ Hostrt.Rt.default_config with Hostrt.Rt.jit } () in
      let host = ctx.H.rt.Hostrt.Rt.host_mem in
      let p = H.prepare_omp ctx ~name:"scale" scale_omp in
      let cap = Machine.Mem.capacity host in
      let len = (cap - host.Machine.Mem.brk) / 4 in
      let a = H.alloc_f32 ctx len in
      Alcotest.(check int) "brk at capacity" cap host.Machine.Mem.brk;
      H.fill_f32 ctx a len float_of_int;
      let before = Machine.Mem.allocated_bytes host in
      H.call_omp p "scale" [ H.vint 64; H.vint 2; H.fptr a ];
      Alcotest.(check int) "capacity unchanged" cap (Machine.Mem.capacity host);
      Alcotest.(check int) "allocated bytes unchanged" before (Machine.Mem.allocated_bytes host);
      Alcotest.(check (float 0.0)) "the region ran" 126.0 (H.get_f32 ctx a 63))
    [ true; false ]

let validation_tests =
  List.concat_map
    (fun (app : Polybench.Suite.app) ->
      let n = List.hd app.Polybench.Suite.ap_validate_sizes in
      [
        Alcotest.test_case
          (Printf.sprintf "%s/CUDA n=%d" app.Polybench.Suite.ap_name n)
          `Quick
          (validate_case app Polybench.Harness.Cuda n);
        Alcotest.test_case
          (Printf.sprintf "%s/OMPi n=%d" app.Polybench.Suite.ap_name n)
          `Quick
          (validate_case app Polybench.Harness.Ompi_cudadev n);
        Alcotest.test_case
          (Printf.sprintf "%s variants agree" app.Polybench.Suite.ap_name)
          `Quick (agreement_case app);
      ])
    (Polybench.Suite.all @ Polybench.Suite.extras)

let differential_tests =
  List.map
    (fun (app : Polybench.Suite.app) ->
      Alcotest.test_case
        (Printf.sprintf "%s offloaded vs host interp" app.Polybench.Suite.ap_name)
        `Quick (differential_case app))
    (Polybench.Suite.all @ Polybench.Suite.extras)

let () =
  Alcotest.run "polybench"
    [
      ("suite", [ Alcotest.test_case "metadata" `Quick suite_metadata ]);
      ( "harness",
        [
          Alcotest.test_case "bulk f32 helpers match per-element access" `Quick test_bulk_f32;
          Alcotest.test_case "bulk i32 helpers match per-element access" `Quick test_bulk_i32;
          Alcotest.test_case "bulk helpers bounds-checked" `Quick test_bulk_bounds;
          Alcotest.test_case "gemm penalty charges translated launches only" `Quick
            test_translated_penalty;
          Alcotest.test_case "a host call never grows host memory" `Quick test_host_call_no_growth;
        ] );
      ("validation", validation_tests);
      ("differential", differential_tests);
    ]
