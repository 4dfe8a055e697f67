(* Multi-device offloading, end to end (the PR 9 tentpole).

   A runtime created with [~devices:n] holds n simultaneously-live
   device instances; default-device [distribute] launches shard the
   team space across the farm under a three-phase memory protocol
   (broadcast, ascending launches with atomic-byte exchange, ascending
   merge) that must replay the single-device schedule byte for byte.
   test_oracle runs the pure-writes gemm and the atomic-chain dot over
   its whole configuration table.  This suite checks:

   - differential legs on the oracle's observations: both programs on
     1/2/3/4-device farms against the 1-device run (itself anchored on
     the host reference), one shard launch per device, the executors
     agreeing on a farm, elision moving no bytes, and auto-policy
     mixed modes running unsharded on the target device;

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

   - which device dies: a fatal fault on a secondary's shard
     host-falls-back that shard only, bit-identically, leaving the
     primary alive; a fatal fault on the primary while it receives the
     merge rescues the primary's shard to the host, bit-identically;

   - the run report ([Hostrt.Run_report]) on a farm: every device's
     launches and counts, summed totals, and the dead secondary;

   - device(n) pinning (no sharding, runs on that device alone),
     omp_get_num_devices / default-device bookkeeping and the graceful
     Map_error for device(n) past the farm. *)

open Polybench

let f_a = Oracle.f_a

let f_b = Oracle.f_b

let launches_on ctx d =
  List.length (Hostrt.Rt.device ctx.Harness.rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches

let farm ?(specs = []) ?(faults = []) devices =
  { Hostrt.Rt.default_config with devices; specs; faults; fault_seed = 7 }

(* ---------------------------------------------------------------- *)
(* Differential legs                                                  *)
(* ---------------------------------------------------------------- *)

let gemm_teams = 12

let dot_teams = 8

let gemm_farm = Oracle.gemm ~n:24 ~teams:gemm_teams ()

let dot_farm = Oracle.dot ~n:1024 ~teams:dot_teams ()

let at ?(mem = Oracle.default_point.Oracle.mem) devices =
  { Oracle.default_point with Oracle.mem; devices }

let run ?jit (p : Oracle.program) pt = p.Oracle.run (Oracle.config ?jit pt)

let blocks (o : Oracle.obs) = List.fold_left (fun acc (_, (b, _, _)) -> acc + b) 0 o.Oracle.o_sums

let log_launches_on (o : Oracle.obs) d =
  let prefix = Printf.sprintf "dev%d " d in
  List.length (List.filter (String.starts_with ~prefix) o.Oracle.o_log)

(* The 1-device run, anchored on the stripped host reference. *)
let anchored (p : Oracle.program) =
  let solo = run p (at 1) in
  Alcotest.(check (list string)) (p.Oracle.name ^ ": 1 device = host reference") []
    (Oracle.anchor p solo);
  solo

(* Oracle checks 1, 2 and 4 against the 1-device run: same bits, the
   per-entry block, instruction and atomic sums of the 1-device run,
   and every unsharded farm launch announced. *)
let check_farm (p : Oracle.program) ~solo pt (o : Oracle.obs) =
  Alcotest.(check (list string)) (Oracle.show pt) [] (Oracle.violations p ~default:solo pt o)

let test_gemm_farm_differential () =
  let solo = anchored gemm_farm in
  Alcotest.(check int) "1 device: full grid executed" gemm_teams (blocks solo);
  List.iter
    (fun devices ->
      let o = run gemm_farm (at devices) in
      check_farm gemm_farm ~solo (at devices) o;
      for d = 0 to devices - 1 do
        Alcotest.(check int) (Printf.sprintf "%d devices: one shard on device %d" devices d) 1
          (log_launches_on o d)
      done)
    [ 2; 3; 4 ]

let test_dot_farm_differential () =
  let solo = anchored dot_farm in
  List.iter
    (fun devices -> check_farm dot_farm ~solo (at devices) (run dot_farm (at devices)))
    [ 2; 3; 4 ]

(* The closure JIT may only move wall clock: bits, per-shard counters
   and simulated time are identical on a sharded farm. *)
let test_executors_agree_on_farm () =
  Check.executors "3 devices"
    (run ~jit:true gemm_farm (at 3))
    (run ~jit:false gemm_farm (at 3))

(* Transfer elision may drop broadcasts, never bytes. *)
let test_elision_on_farm () =
  let plain = run gemm_farm (at 2) in
  let elided = run gemm_farm (at ~mem:Hostrt.Mempolicy.(Forced Elide) 2) in
  Alcotest.(check (array int32)) "elided farm bytes identical" plain.Oracle.o_out
    elided.Oracle.o_out

(* Under the per-buffer auto policy the devices of a farm can pick
   different modes for one buffer: here the primary reaches the
   reduction scalar zero-copy while the secondaries copy it.  The
   exchange cannot carry in-place atomics into a device copy, so such a
   region runs unsharded on its target device (announced by
   shard_mixed_modes), and the chain keeps the 1-device value. *)
let test_mixed_modes_run_unsharded () =
  let auto = at ~mem:Hostrt.Mempolicy.Auto in
  let solo = run dot_farm (auto 1) in
  List.iter
    (fun devices ->
      let o = run dot_farm (auto devices) in
      check_farm dot_farm ~solo (auto devices) o;
      Alcotest.(check int)
        (Printf.sprintf "auto, %d devices: the target device ran the whole grid" devices)
        dot_teams (blocks o);
      Alcotest.(check int) (Printf.sprintf "auto, %d devices: device 1 idle" devices) 0
        (log_launches_on o 1))
    [ 2; 4 ]

(* A fatal fault on the second shard launch (device 1, ascending order)
   host-falls-back that shard only: same bytes, device 0 alive. *)
let test_secondary_death_fallback () =
  let rules =
    match Hostrt.Faults.parse "launch:nth=2,kind=fatal" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let gemm = Oracle.gemm () in
  let solo = gemm.Oracle.run (farm 1) in
  let faulted = gemm.Oracle.run (farm ~faults:rules 2) in
  Alcotest.(check (array int32)) "bytes survive the secondary's death" solo.Oracle.o_out
    faulted.Oracle.o_out;
  Alcotest.(check (list int)) "device 1 dead, device 0 alive" [ 1 ] faulted.Oracle.o_dead;
  Alcotest.(check bool) "its shard ran on the host" true
    (Oracle.count faulted ~cat:"shard" "shard_host_fallback" >= 1)

(* A fatal h2d during the primary refresh (the merge's push of the
   secondary's results into the primary) kills the primary after every
   shard ran.  The rescue copies the primary's own shard to the host,
   minus its atomic bytes, whose chained value the host already holds:
   gemm's shard comes back by salvage, dot's atomic-only shard must not
   (its partial sum would clobber the chain).  The h2d calls before the
   refresh are the primary's maps and the broadcast to device 1, one
   per kernel operand: 6 + 6 for gemm, 4 + 4 for dot (plus dot's
   exchange of the atomic bytes into device 1). *)
let test_primary_death_in_refresh () =
  List.iter
    (fun ((p : Oracle.program), nth, salvaged) ->
      let rules =
        match Hostrt.Faults.parse (Printf.sprintf "h2d:nth=%d,kind=fatal" nth) with
        | Ok r -> r
        | Error m -> Alcotest.fail m
      in
      let solo = p.Oracle.run (farm 1) in
      let faulted = p.Oracle.run (farm ~faults:rules 2) in
      let name = p.Oracle.name in
      Alcotest.(check (array int32)) (name ^ ": bytes survive the primary's death")
        solo.Oracle.o_out faulted.Oracle.o_out;
      Alcotest.(check (list int)) (name ^ ": device 0 dead") [ 0 ] faulted.Oracle.o_dead;
      Alcotest.(check int) (name ^ ": no shard ran on the host") 0
        (Oracle.count faulted ~cat:"shard" "shard_host_fallback");
      Alcotest.(check int) (name ^ ": primary shard salvaged") salvaged
        (Oracle.count faulted ~cat:"fault" "salvage"))
    [ (Oracle.gemm (), 13, 1); (Oracle.dot (), 10, 0) ]

(* ---------------------------------------------------------------- *)
(* Run report                                                         *)
(* ---------------------------------------------------------------- *)

let scale_src =
  {|
int main(void) {
  float a[256];
  for (int i = 0; i < 256; i++) a[i] = i;
  #pragma omp target teams distribute parallel for num_teams(4) map(tofrom: a[0:256])
  for (int i = 0; i < 256; i++) a[i] = a[i] * 2.0f;
  return 0;
}
|}

(* The run report reads every device of a farm: one shard launch per
   device, each device's own counts, totals that sum them, and a
   secondary killed on its shard named as the one dead device. *)
let test_run_report_farm () =
  let module R = Hostrt.Run_report in
  let report ?faults () =
    let config = { (farm ?faults 2) with mem_policy = Hostrt.Mempolicy.(Forced Elide) } in
    let inst = Ompi.load ~config (Ompi.compile ~name:"scale" scale_src) in
    let r = Ompi.run inst () in
    let rep = R.of_rt inst.Ompi.i_rt in
    Alcotest.(check int) "Ompi.run's count is the report's" rep.R.r_launches
      r.Ompi.run_kernel_launches;
    Alcotest.(check int) "the launch count is the launches listed" (List.length (R.launches rep))
      rep.R.r_launches;
    rep
  in
  let clean = report () in
  Alcotest.(check (list int)) "one launch per device" [ 0; 1 ] (List.map fst (R.launches clean));
  Alcotest.(check (list int)) "one resident buffer per device" [ 1; 1 ]
    (List.map (fun d -> d.R.dv_resident) clean.R.r_devices);
  Alcotest.(check int) "resident buffers summed" 2 clean.R.r_resident;
  let digested = List.map (fun d -> d.R.dv_mem.Hostrt.Dataenv.digested_bytes) clean.R.r_devices in
  Alcotest.(check bool) "both devices digest" true (List.for_all (fun b -> b > 0) digested);
  Alcotest.(check int) "digested bytes summed" (List.fold_left ( + ) 0 digested)
    clean.R.r_mem.Hostrt.Dataenv.digested_bytes;
  Alcotest.(check (option (pair int int))) "no plan, no fault counts" None clean.R.r_faults;
  let rules =
    match Hostrt.Faults.parse "launch:nth=2,kind=fatal" with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  let faulted = report ~faults:rules () in
  Alcotest.(check (list int)) "device 1 is the dead one" [ 1 ] (List.map fst faulted.R.r_dead);
  Alcotest.(check (option (pair int int))) "1 fault fired in 2 calls" (Some (1, 2))
    faulted.R.r_faults;
  Alcotest.(check (list int)) "only device 0 launched" [ 0 ] (List.map fst (R.launches faulted))

(* ---------------------------------------------------------------- *)
(* Cross-device RAW arbitration                                       *)
(* ---------------------------------------------------------------- *)

(* The dot publish chain makes shard 1 (device 1) read the s bytes
   shard 0 (device 0) wrote: the runtime must drain device 0's D2H
   before device 1's H2D, surfacing as an xdev_dep wait instant. *)
let test_xdev_raw_arbitration () =
  let dot = Oracle.dot () in
  let solo = dot.Oracle.run (farm 1) and pair = dot.Oracle.run (farm 2) in
  Alcotest.(check (array int32)) "chained value bit-identical" solo.Oracle.o_out pair.Oracle.o_out;
  Alcotest.(check bool) "cross-device dependency wait recorded" true
    (Oracle.count pair ~cat:"shard" "xdev_dep" >= 1);
  Alcotest.(check bool) "shard plan recorded" true
    (Oracle.count pair ~cat:"shard" "shard_plan" >= 1)

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
      let p = if atomic then Oracle.dot ~n ~teams ~nthr () else Oracle.gemm ~n:24 ~teams ~nthr () in
      let solo = p.Oracle.run (farm ~specs:[ Gpusim.Spec.jetson_nano_2gb ] 1) in
      let many = p.Oracle.run (farm ~specs:(List.map spec_of_mult mults) devices) in
      if many.Oracle.o_out <> solo.Oracle.o_out then
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
          Alcotest.test_case "primary death in the refresh rescues its shard" `Quick
            test_primary_death_in_refresh;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "cross-device RAW arbitration" `Quick test_xdev_raw_arbitration;
          Alcotest.test_case "device(n) pins without sharding" `Quick test_device_clause_pins;
          Alcotest.test_case "omp device API" `Quick test_device_api;
          Alcotest.test_case "device(n) past the farm fails gracefully" `Quick
            test_device_out_of_range;
        ] );
      ("report", [ Alcotest.test_case "run report covers the farm" `Quick test_run_report_farm ]);
      ("plan", [ Alcotest.test_case "plan units" `Quick test_plan_units ]);
      ("property", [ QCheck_alcotest.to_alcotest prop_farm_bit_identity ]);
    ]
