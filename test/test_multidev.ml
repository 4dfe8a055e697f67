(* Multi-device offloading, end to end (the PR 9 tentpole).

   A runtime created with [~devices:n] holds n simultaneously-live
   device instances; default-device [distribute] launches shard the
   team space across the farm under a three-phase memory protocol
   (broadcast, ascending launches with atomic-byte exchange, ascending
   merge) that must replay the single-device schedule byte for byte.
   This suite checks:

   - differential legs: a pure-writes gemm and an atomic-chain dot run
     on 1/2/3/4-device farms, against the host interpreter, under the
     closure JIT and the tree-walking interpreter, and with transfer
     elision — every leg bit-identical, with one shard launch per
     device and the shard block counts summing to the full grid;

   - [Multidev.plan] unit tests: contiguous non-empty proportional
     intervals, skew following the compute weights, and the
     [Invalid_argument] cases;

   - a QCheck property over random grid geometries x farm sizes x
     heterogeneous device specs (clock skews move the shard boundaries)
     asserting bit-identity against the 1-device run for both the
     pure-writes and the atomic-chain kernel;

   - the cross-device RAW rule: the dot publish chain forces a
     D2H-from-device-A-before-H2D-to-device-B exchange, visible as a
     cat:"shard" [xdev_dep] instant, without moving the bytes;

   - device(n) pinning (no sharding, runs on that device alone),
     omp_get_num_devices / default-device bookkeeping, the graceful
     Map_error for device(n) past the farm, and the fault leg: a fatal
     fault on a secondary's shard host-falls-back that shard only,
     bit-identically, leaving the primary alive. *)

open Polybench

(* ---------------------------------------------------------------- *)
(* Kernels                                                            *)
(* ---------------------------------------------------------------- *)

(* Pure writes: every c element produced by exactly one thread. *)
let gemm_src =
  {|
void gemm_md(int n, int teams, int nthr, float a[], float b[], float c[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) \
      map(to: n, a[0:n*n], b[0:n*n]) map(tofrom: c[0:n*n])
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      float acc = 0.0f;
      for (int k = 0; k < n; k++)
        acc += a[i * n + k] * b[k * n + j];
      c[i * n + j] = acc + c[i * n + j];
    }
}
|}

(* Atomic chain: one publish atomic per team into s, so shard k+1's
   result depends on the bytes shard k left behind. *)
let dot_src =
  {|
void dot_md(int n, int teams, int nthr, float x[], float y[], float out[])
{
  float s = 0.0f;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) \
      reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

let f_a i = Refmath.r32 (float_of_int ((i * 7) mod 23) /. 23.0)

let f_b i = Refmath.r32 (float_of_int ((i * 5) mod 17) /. 17.0)

let f_c i = Refmath.r32 (float_of_int ((i mod 9) - 4) /. 8.0)

(* ---------------------------------------------------------------- *)
(* Observation: bits + per-device launch counters + simulated time    *)
(* ---------------------------------------------------------------- *)

let launch_log ctx : string list =
  let rt = ctx.Harness.rt in
  List.concat
    (List.init (Hostrt.Rt.num_devices rt) (fun d ->
         List.rev_map
           (fun (s : Gpusim.Driver.launch_stats) ->
             let c = s.Gpusim.Driver.st_counters in
             Printf.sprintf "dev%d %s: blocks=%d/%d atomics=%d thread_sum=%.3f time_ns=%.6f" d
               s.Gpusim.Driver.st_entry c.Gpusim.Counters.blocks_executed
               c.Gpusim.Counters.blocks_total c.Gpusim.Counters.atomics
               c.Gpusim.Counters.thread_inst_sum
               s.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_time_ns)
           (Hostrt.Rt.device rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches))

let launches_on ctx d =
  List.length (Hostrt.Rt.device ctx.Harness.rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches

let blocks_executed ctx : int =
  let rt = ctx.Harness.rt in
  List.fold_left ( + ) 0
    (List.concat
       (List.init (Hostrt.Rt.num_devices rt) (fun d ->
            List.map
              (fun (s : Gpusim.Driver.launch_stats) ->
                s.Gpusim.Driver.st_counters.Gpusim.Counters.blocks_executed)
              (Hostrt.Rt.device rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches)))

let dead ctx d = Hostrt.Dataenv.is_dead (Hostrt.Rt.device ctx.Harness.rt d).Hostrt.Rt.dev_dataenv

(* A farm's run configuration: [devices] instances, fault seed 7. *)
let config ~devices ?(specs = []) ~jit ?(mem = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Copy)
    ?(faults = []) () =
  { Hostrt.Rt.default_config with devices; specs; jit; mem_policy = mem; faults; fault_seed = 7 }

type obs = { ob_bits : int32 array; ob_time : float; ob_log : string list }

let run_gemm ?(host_interp = false) ?(jit = true) ?mem ?specs ?faults ~devices ~n ~teams ~nthr ()
    : obs * Harness.ctx =
  let ctx = Harness.create ~config:(config ~devices ?specs ~jit ?mem ?faults ()) () in
  Harness.set_sampling ctx None;
  let nn = n * n in
  let a = Harness.alloc_f32 ctx nn and b = Harness.alloc_f32 ctx nn in
  let c = Harness.alloc_f32 ctx nn in
  Harness.fill_f32 ctx a nn f_a;
  Harness.fill_f32 ctx b nn f_b;
  Harness.fill_f32 ctx c nn f_c;
  let p = Harness.prepare_omp ~host_interp ctx ~name:"md_gemm" gemm_src in
  let t =
    Harness.measure ctx (fun () ->
        Harness.call_omp p "gemm_md"
          [ Harness.vint n; Harness.vint teams; Harness.vint nthr; Harness.fptr a; Harness.fptr b;
            Harness.fptr c ])
  in
  ( { ob_bits = Array.map Int32.bits_of_float (Harness.read_f32_array ctx c nn);
      ob_time = t;
      ob_log = launch_log ctx
    },
    ctx )

let run_dot ?(host_interp = false) ?(jit = true) ?mem ?specs ~devices ~n ~teams ~nthr () :
    obs * Harness.ctx =
  let ctx = Harness.create ~config:(config ~devices ?specs ~jit ?mem ()) () in
  Harness.set_sampling ctx None;
  let x = Harness.alloc_f32 ctx n and y = Harness.alloc_f32 ctx n in
  let out = Harness.alloc_f32 ctx 1 in
  Harness.fill_f32 ctx x n f_a;
  Harness.fill_f32 ctx y n f_b;
  let p = Harness.prepare_omp ~host_interp ctx ~name:"md_dot" dot_src in
  let t =
    Harness.measure ctx (fun () ->
        Harness.call_omp p "dot_md"
          [ Harness.vint n; Harness.vint teams; Harness.vint nthr; Harness.fptr x; Harness.fptr y;
            Harness.fptr out ])
  in
  ( { ob_bits = [| Int32.bits_of_float (Harness.get_f32 ctx out 0) |];
      ob_time = t;
      ob_log = launch_log ctx
    },
    ctx )

(* ---------------------------------------------------------------- *)
(* Differential legs                                                  *)
(* ---------------------------------------------------------------- *)

let gemm_n = 24

let gemm_teams = 12

let dot_n = 1024

let dot_teams = 8

let test_gemm_farm_differential () =
  let solo, solo_ctx = run_gemm ~devices:1 ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  let host, _ = run_gemm ~host_interp:true ~devices:1 ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  Alcotest.(check bool) "1-device bytes = host interpreter" true (solo.ob_bits = host.ob_bits);
  Alcotest.(check int) "1 device: full grid executed" gemm_teams (blocks_executed solo_ctx);
  List.iter
    (fun devices ->
      let farm, ctx = run_gemm ~devices ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
      Alcotest.(check bool)
        (Printf.sprintf "%d-device bytes = 1-device bytes" devices)
        true (farm.ob_bits = solo.ob_bits);
      for d = 0 to devices - 1 do
        Alcotest.(check int) (Printf.sprintf "%d devices: one shard on device %d" devices d) 1
          (launches_on ctx d)
      done;
      Alcotest.(check int)
        (Printf.sprintf "%d devices: shard blocks sum to the grid" devices)
        gemm_teams (blocks_executed ctx))
    [ 2; 3; 4 ]

let test_dot_farm_differential () =
  let solo, _ = run_dot ~devices:1 ~n:dot_n ~teams:dot_teams ~nthr:64 () in
  let host, _ = run_dot ~host_interp:true ~devices:1 ~n:dot_n ~teams:dot_teams ~nthr:64 () in
  let dev = Int32.float_of_bits solo.ob_bits.(0) in
  let ref_ = Int32.float_of_bits host.ob_bits.(0) in
  Alcotest.(check bool) "1-device dot close to sequential host" true
    (Float.abs (dev -. ref_) <= 1e-3 *. Float.max 1.0 (Float.abs ref_));
  List.iter
    (fun devices ->
      let farm, ctx = run_dot ~devices ~n:dot_n ~teams:dot_teams ~nthr:64 () in
      Alcotest.(check bool)
        (Printf.sprintf "%d-device atomic chain bit-identical to 1 device" devices)
        true (farm.ob_bits = solo.ob_bits);
      Alcotest.(check int)
        (Printf.sprintf "%d devices: shard blocks sum to the grid" devices)
        dot_teams (blocks_executed ctx))
    [ 2; 3; 4 ]

(* The closure JIT may only move wall clock: bits, per-shard counters
   and simulated time are identical on a sharded farm. *)
let test_executors_agree_on_farm () =
  let jit, _ = run_gemm ~devices:3 ~jit:true ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  let interp, _ = run_gemm ~devices:3 ~jit:false ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  Alcotest.(check bool) "bits identical (jit vs --no-jit)" true (jit.ob_bits = interp.ob_bits);
  Alcotest.(check (list string)) "per-shard counters identical" interp.ob_log jit.ob_log;
  Alcotest.(check (float 0.0)) "simulated time identical" interp.ob_time jit.ob_time

(* Transfer elision may drop broadcasts, never bytes. *)
let test_elision_on_farm () =
  let plain, _ = run_gemm ~devices:2 ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  let elided, _ =
    run_gemm ~devices:2 ~mem:(Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide) ~n:gemm_n
      ~teams:gemm_teams ~nthr:64 ()
  in
  Alcotest.(check bool) "elided farm bytes identical" true (elided.ob_bits = plain.ob_bits)

(* Under the per-buffer auto policy the devices of a farm can pick
   different modes for one buffer: here the primary reaches the
   reduction scalar zero-copy while the secondaries copy it.  The
   exchange cannot carry in-place atomics into a device copy, so such a
   region runs unsharded on its target device, and the chain keeps the
   1-device value. *)
let test_mixed_modes_run_unsharded () =
  let auto = Hostrt.Mempolicy.Auto in
  let solo, _ = run_dot ~mem:auto ~devices:1 ~n:dot_n ~teams:dot_teams ~nthr:64 () in
  List.iter
    (fun devices ->
      let farm, ctx = run_dot ~mem:auto ~devices ~n:dot_n ~teams:dot_teams ~nthr:64 () in
      Alcotest.(check int32)
        (Printf.sprintf "auto, %d devices: chained value = 1 device" devices)
        solo.ob_bits.(0) farm.ob_bits.(0);
      Alcotest.(check int)
        (Printf.sprintf "auto, %d devices: the target device ran the whole grid" devices)
        dot_teams (blocks_executed ctx);
      Alcotest.(check int) (Printf.sprintf "auto, %d devices: device 1 idle" devices) 0
        (launches_on ctx 1))
    [ 2; 4 ]

(* A fatal fault on the second shard launch (device 1, ascending order)
   host-falls-back that shard only: same bytes, device 0 alive. *)
let test_secondary_death_fallback () =
  let rules =
    match Hostrt.Faults.parse "launch:nth=2,kind=fatal" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let solo, _ = run_gemm ~devices:1 ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  let faulted, ctx = run_gemm ~devices:2 ~faults:rules ~n:gemm_n ~teams:gemm_teams ~nthr:64 () in
  Alcotest.(check bool) "bytes survive the secondary's death" true
    (faulted.ob_bits = solo.ob_bits);
  Alcotest.(check bool) "device 1 dead" true (dead ctx 1);
  Alcotest.(check bool) "device 0 alive" false (dead ctx 0)

(* ---------------------------------------------------------------- *)
(* Cross-device RAW arbitration                                       *)
(* ---------------------------------------------------------------- *)

(* The dot publish chain makes shard 1 (device 1) read the s bytes
   shard 0 (device 0) wrote: the runtime must drain device 0's D2H
   before device 1's H2D, surfacing as an xdev_dep wait instant. *)
let test_xdev_raw_arbitration () =
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with devices = 2 } () in
  Harness.set_sampling ctx None;
  let tr = Harness.enable_trace ctx in
  let x = Harness.alloc_f32 ctx dot_n and y = Harness.alloc_f32 ctx dot_n in
  let out = Harness.alloc_f32 ctx 1 in
  Harness.fill_f32 ctx x dot_n f_a;
  Harness.fill_f32 ctx y dot_n f_b;
  let p = Harness.prepare_omp ctx ~name:"md_dot_tr" dot_src in
  Harness.call_omp p "dot_md"
    [ Harness.vint dot_n; Harness.vint dot_teams; Harness.vint 64; Harness.fptr x;
      Harness.fptr y; Harness.fptr out ];
  let solo, _ = run_dot ~devices:1 ~n:dot_n ~teams:dot_teams ~nthr:64 () in
  Alcotest.(check int32) "chained value bit-identical" solo.ob_bits.(0)
    (Int32.bits_of_float (Harness.get_f32 ctx out 0));
  Alcotest.(check bool) "cross-device dependency wait recorded" true
    (Perf.Trace.count_events tr ~cat:"shard" ~name:"xdev_dep" () >= 1);
  Alcotest.(check bool) "shard plan recorded" true
    (Perf.Trace.count_events tr ~cat:"shard" ~name:"shard_plan" () >= 1)

(* ---------------------------------------------------------------- *)
(* device(n) pinning and the omp_* device API                         *)
(* ---------------------------------------------------------------- *)

let pinned_src =
  {|
void vs1(int n, int teams, float x[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(64) \
      device(1) map(to: n, x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = 2.0f * x[i] + y[i];
}
|}

let test_device_clause_pins () =
  let n = 256 in
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with devices = 3 } () in
  Harness.set_sampling ctx None;
  let x = Harness.alloc_f32 ctx n and y = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx x n f_a;
  Harness.fill_f32 ctx y n f_b;
  let p = Harness.prepare_omp ctx ~name:"md_pin" pinned_src in
  Harness.call_omp p "vs1"
    [ Harness.vint n; Harness.vint 4; Harness.fptr x; Harness.fptr y ];
  Alcotest.(check int) "pinned device ran the whole region" 1 (launches_on ctx 1);
  Alcotest.(check int) "device 0 idle" 0 (launches_on ctx 0);
  Alcotest.(check int) "device 2 idle" 0 (launches_on ctx 2);
  let expect = Array.init n (fun i -> Refmath.r32 ((2.0 *. f_a i) +. f_b i)) in
  Alcotest.(check bool) "pinned bytes correct" true
    (Array.map Int32.bits_of_float (Harness.read_f32_array ctx y n)
    = Array.map Int32.bits_of_float expect)

let query_src =
  {|
void qdev(int out[])
{
  out[0] = omp_get_num_devices();
  out[1] = omp_get_default_device();
  omp_set_default_device(1);
  out[2] = omp_get_default_device();
  out[3] = omp_is_initial_device();
}
|}

let test_device_api () =
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with devices = 3 } () in
  let out = Harness.alloc_i32 ctx 4 in
  Harness.fill_i32 ctx out 4 (fun _ -> -1);
  let p = Harness.prepare_omp ctx ~name:"md_query" query_src in
  Harness.call_omp p "qdev" [ Harness.fptr out ];
  Alcotest.(check (list int)) "omp device API bookkeeping" [ 3; 0; 1; 1 ]
    (Array.to_list (Harness.read_i32_array ctx out 4))

let oob_src =
  {|
void vs9(int n, float x[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(2) num_threads(32) \
      device(9) map(to: n, x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = x[i] + y[i];
}
|}

let test_device_out_of_range () =
  let n = 64 in
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with devices = 2 } () in
  let x = Harness.alloc_f32 ctx n and y = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx x n f_a;
  Harness.fill_f32 ctx y n f_b;
  let p = Harness.prepare_omp ctx ~name:"md_oob" oob_src in
  match Harness.call_omp p "vs9" [ Harness.vint n; Harness.fptr x; Harness.fptr y ] with
  | () -> Alcotest.fail "device(9) on a 2-device farm did not fail"
  | exception Hostrt.Dataenv.Map_error msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("error names the device: " ^ msg) true (contains msg "device(9)")

(* ---------------------------------------------------------------- *)
(* Multidev.plan units                                                *)
(* ---------------------------------------------------------------- *)

let check_cover ~total (bounds : (int * int) array) =
  Alcotest.(check int) "first shard starts at 0" 0 (fst bounds.(0));
  Alcotest.(check int) "last shard ends at total" total (snd bounds.(Array.length bounds - 1));
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool) (Printf.sprintf "shard %d non-empty" i) true (hi > lo);
      if i > 0 then
        Alcotest.(check int) (Printf.sprintf "shard %d contiguous" i) (snd bounds.(i - 1)) lo)
    bounds

let test_plan_units () =
  let even = Hostrt.Multidev.plan ~total_blocks:64 ~weights:[| 1.0; 1.0; 1.0; 1.0 |] in
  check_cover ~total:64 even;
  Array.iter (fun (lo, hi) -> Alcotest.(check int) "even split" 16 (hi - lo)) even;
  let skew = Hostrt.Multidev.plan ~total_blocks:30 ~weights:[| 2.0; 1.0 |] in
  check_cover ~total:30 skew;
  Alcotest.(check int) "heavy device gets 2/3" 20 (snd skew.(0) - fst skew.(0));
  let tight = Hostrt.Multidev.plan ~total_blocks:3 ~weights:[| 5.0; 1.0; 1.0 |] in
  check_cover ~total:3 tight;
  Array.iter (fun (lo, hi) -> Alcotest.(check int) "one block each" 1 (hi - lo)) tight;
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "fewer blocks than devices rejected" true
    (raises (fun () -> ignore (Hostrt.Multidev.plan ~total_blocks:1 ~weights:[| 1.0; 1.0 |])));
  Alcotest.(check bool) "no weights rejected" true
    (raises (fun () -> ignore (Hostrt.Multidev.plan ~total_blocks:8 ~weights:[||])));
  let w = Hostrt.Multidev.device_weight Gpusim.Spec.jetson_nano_2gb in
  let double =
    Hostrt.Multidev.device_weight
      { Gpusim.Spec.jetson_nano_2gb with Gpusim.Spec.gpu_clock_hz = 2.0 *. Gpusim.Spec.jetson_nano_2gb.Gpusim.Spec.gpu_clock_hz }
  in
  Alcotest.(check (float 1e-6)) "weight scales with clock" (2.0 *. w) double

(* ---------------------------------------------------------------- *)
(* QCheck: bit-identity over geometry x farm x heterogeneous specs     *)
(* ---------------------------------------------------------------- *)

let spec_of_mult m =
  let base = Gpusim.Spec.jetson_nano_2gb in
  {
    base with
    Gpusim.Spec.name = Printf.sprintf "%s x%.2g" base.Gpusim.Spec.name m;
    gpu_clock_hz = base.Gpusim.Spec.gpu_clock_hz *. m;
  }

let farm_gen =
  QCheck.Gen.(
    let* devices = int_range 1 4 in
    let* mults =
      List.fold_right
        (fun _ acc ->
          let* rest = acc in
          let* m = oneofl [ 0.5; 1.0; 1.5; 2.0 ] in
          return (m :: rest))
        (List.init devices (fun i -> i))
        (return [])
    in
    let* teams = int_range 1 20 in
    let* nthr = oneofl [ 32; 64 ] in
    let* n = map (fun k -> 128 * (k + 1)) (int_range 0 7) in
    let* atomic = bool in
    return (devices, mults, teams, nthr, n, atomic))

let prop_farm_bit_identity =
  QCheck.Test.make ~name:"any farm reproduces the 1-device bytes" ~count:10
    (QCheck.make farm_gen) (fun (devices, mults, teams, nthr, n, atomic) ->
      let specs = List.map spec_of_mult mults in
      let run ~devices ~specs =
        if atomic then fst (run_dot ~devices ~specs ~n ~teams ~nthr ())
        else fst (run_gemm ~devices ~specs ~n:24 ~teams ~nthr ())
      in
      let solo = run ~devices:1 ~specs:[ Gpusim.Spec.jetson_nano_2gb ] in
      let farm = run ~devices ~specs in
      if farm.ob_bits <> solo.ob_bits then
        QCheck.Test.fail_reportf
          "bytes differ: %d device(s), mults [%s], teams=%d nthr=%d n=%d %s" devices
          (String.concat "; " (List.map string_of_float mults))
          teams nthr n
          (if atomic then "atomic dot" else "gemm");
      true)

let () =
  Alcotest.run "multidev"
    [
      ( "differential",
        [
          Alcotest.test_case "gemm across farm sizes" `Quick test_gemm_farm_differential;
          Alcotest.test_case "dot atomic chain across farm sizes" `Quick
            test_dot_farm_differential;
          Alcotest.test_case "executors agree on a farm" `Quick test_executors_agree_on_farm;
          Alcotest.test_case "elision moves no bytes" `Quick test_elision_on_farm;
          Alcotest.test_case "mixed memory modes run unsharded" `Quick
            test_mixed_modes_run_unsharded;
          Alcotest.test_case "secondary death host-falls-back its shard" `Quick
            test_secondary_death_fallback;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "cross-device RAW arbitration" `Quick test_xdev_raw_arbitration;
          Alcotest.test_case "device(n) pins without sharding" `Quick test_device_clause_pins;
          Alcotest.test_case "omp device API" `Quick test_device_api;
          Alcotest.test_case "device(n) past the farm fails gracefully" `Quick
            test_device_out_of_range;
        ] );
      ("plan", [ Alcotest.test_case "plan units" `Quick test_plan_units ]);
      ("property", [ QCheck_alcotest.to_alcotest prop_farm_bit_identity ]);
    ]
