(* Fault-injection + recovery tests (Hostrt.Faults / Hostrt.Resilience):
   spec parsing, deterministic schedules, the backoff formula, and the
   three end-to-end recovery stories — retry with backoff on a transient
   fault, JIT-cache invalidation + recompile on a corrupt cache entry,
   and graceful degradation to the host path (with device-state salvage)
   when the device is declared dead. *)

open Hostrt

(* ---------------- spec parsing ---------------- *)

let parse_ok spec =
  match Faults.parse spec with
  | Ok rules -> rules
  | Error msg -> Alcotest.failf "spec %S should parse: %s" spec msg

let test_parse_ok () =
  (match parse_ok "transfer:nth=2" with
  | [ r ] ->
    Alcotest.(check bool) "transfer watches h2d+d2h" true
      (List.mem Faults.H2d r.Faults.r_sites
      && List.mem Faults.D2h r.Faults.r_sites
      && List.length r.Faults.r_sites = 2);
    Alcotest.(check (list int)) "nth" [ 2 ] r.Faults.r_nths;
    Alcotest.(check bool) "transfers default transient" true
      (Faults.equal_kind r.Faults.r_kind Faults.Transient)
  | rs -> Alcotest.failf "expected 1 rule, got %d" (List.length rs));
  (match parse_ok "alloc" with
  | [ r ] ->
    Alcotest.(check bool) "alloc defaults fatal" true
      (Faults.equal_kind r.Faults.r_kind Faults.Fatal);
    Alcotest.(check (option int)) "bare site = fail every call" (Some 1) r.Faults.r_from
  | rs -> Alcotest.failf "expected 1 rule, got %d" (List.length rs));
  (match parse_ok "jit:nth=1" with
  | [ r ] ->
    Alcotest.(check bool) "jit cache defaults corrupt" true
      (Faults.equal_kind r.Faults.r_kind Faults.Corrupt_cache)
  | rs -> Alcotest.failf "expected 1 rule, got %d" (List.length rs));
  (match parse_ok "h2d:nth=1,nth=3,kind=fatal" with
  | [ r ] ->
    Alcotest.(check (list int)) "repeatable nth" [ 1; 3 ] r.Faults.r_nths;
    Alcotest.(check bool) "kind override" true (Faults.equal_kind r.Faults.r_kind Faults.Fatal)
  | rs -> Alcotest.failf "expected 1 rule, got %d" (List.length rs));
  match parse_ok "launch:p=0.5;transfer:p=0.1" with
  | [ a; b ] ->
    Alcotest.(check (float 0.0)) "p of rule 1" 0.5 a.Faults.r_prob;
    Alcotest.(check (float 0.0)) "p of rule 2" 0.1 b.Faults.r_prob
  | rs -> Alcotest.failf "expected 2 rules, got %d" (List.length rs)

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Ok _ -> Alcotest.failf "spec %S should be rejected" spec
      | Error _ -> ())
    [ ""; ";"; "warp"; "launch:nth=x"; "launch:nth=0"; "h2d:p=1.5"; "h2d:wibble=1";
      "launch:kind=flaky"; "launch:nth" ]

(* ---------------- deterministic schedules ---------------- *)

let fire_pattern ~seed n =
  let t = Faults.create ~seed (parse_ok "launch:p=0.3") in
  List.init n (fun _ ->
      match Faults.check t Faults.Launch with
      | () -> false
      | exception Faults.Injected _ -> true)

let test_probability_deterministic () =
  Alcotest.(check (list bool)) "same seed, same schedule" (fire_pattern ~seed:7 200)
    (fire_pattern ~seed:7 200);
  Alcotest.(check bool) "different seed, different schedule" true
    (fire_pattern ~seed:7 200 <> fire_pattern ~seed:8 200)

let test_scripted_nth_and_reset () =
  let t = Faults.create (parse_ok "launch:nth=2") in
  let fires () =
    List.init 4 (fun _ ->
        match Faults.check t Faults.Launch with
        | () -> false
        | exception Faults.Injected { i_site; _ } ->
          Alcotest.(check bool) "site" true (Faults.equal_site i_site Faults.Launch);
          true)
  in
  Alcotest.(check (list bool)) "only the 2nd call" [ false; true; false; false ] (fires ());
  Alcotest.(check int) "fired once" 1 (Faults.total_fired t);
  Alcotest.(check int) "4 calls counted" 4 (Faults.total_calls t);
  Faults.reset t;
  Alcotest.(check (list bool)) "reset replays the plan" [ false; true; false; false ] (fires ())

(* ---------------- backoff formula ---------------- *)

let test_backoff_formula () =
  let p = Resilience.default_policy in
  Alcotest.(check (list (float 0.0))) "50us * 4^(attempt-1)" [ 50.0; 200.0; 800.0 ]
    (List.map (Resilience.backoff_us p) [ 1; 2; 3 ]);
  let p2 = { p with Resilience.rp_base_backoff_us = 10.0; Resilience.rp_backoff_mult = 2.0 } in
  Alcotest.(check (float 0.0)) "custom policy" 40.0 (Resilience.backoff_us p2 3)

(* ---------------- end-to-end recovery ---------------- *)

let load ?(mode = Gpusim.Nvcc.Cubin) ?(faults = "") src =
  let rules = if faults = "" then [] else parse_ok faults in
  let config = { Ompi.default_config with Ompi.binary_mode = mode; Ompi.faults = rules } in
  Ompi.load ~config ~trace:true (Ompi.compile ~name:"faults_e2e" src)

let trace_of inst =
  match inst.Ompi.i_trace with Some tr -> tr | None -> Alcotest.fail "instance has no trace"

let count inst name = Perf.Trace.count_events (trace_of inst) ~cat:"fault" ~name ()

let backoff_delays inst =
  Perf.Trace.find_events (trace_of inst) ~cat:"fault" ~name:"retry_backoff" ()
  |> List.filter_map (fun e ->
         match List.assoc_opt "delay_us" e.Perf.Trace.ev_args with
         | Some (Perf.Trace.Float f) -> Some f
         | _ -> None)

let dead_reason inst =
  Dataenv.dead_reason (Rt.device inst.Ompi.i_rt 0).Rt.dev_dataenv

let test_transient_transfer_retries () =
  (* Fail the 2nd and 3rd transfer calls: the h2d of y fails twice in a
     row, then succeeds; the two backoffs must grow geometrically and be
     charged to the simulated clock. *)
  let clean = Ompi.run (load Oracle.saxpy_src) () in
  let inst = load ~faults:"transfer:nth=2,nth=3" Oracle.saxpy_src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "result correct despite faults" Oracle.saxpy_expected r.Ompi.run_output;
  Alcotest.(check int) "two faults injected" 2 (count inst "fault_injected");
  Alcotest.(check (list (float 0.0))) "backoff grows per attempt" [ 50.0; 200.0 ]
    (backoff_delays inst);
  Alcotest.(check (option string)) "device stays alive" None (dead_reason inst);
  Alcotest.(check int) "no fallback" 0 (count inst "host_fallback");
  Alcotest.(check bool) "backoff charged to the simulated clock" true
    (r.Ompi.run_time_s -. clean.Ompi.run_time_s >= 250e-6)

let test_retry_exhaustion_falls_back () =
  (* Every launch fails: 1 try + 3 retries, then the device is declared
     dead and the target region re-executes on the host path. *)
  let inst = load ~faults:"launch:from=1" Oracle.saxpy_src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "host fallback result correct" Oracle.saxpy_expected r.Ompi.run_output;
  Alcotest.(check int) "1 try + 3 retries" 4 (count inst "fault_injected");
  Alcotest.(check (list (float 0.0))) "full backoff ladder" [ 50.0; 200.0; 800.0 ]
    (backoff_delays inst);
  Alcotest.(check int) "retries exhausted" 1 (count inst "retry_exhausted");
  Alcotest.(check int) "device declared dead" 1 (count inst "device_dead");
  Alcotest.(check int) "host fallback taken" 1 (count inst "host_fallback");
  Alcotest.(check bool) "dead reason recorded" true (dead_reason inst <> None);
  Alcotest.(check int) "nothing ran on the device" 0 r.Ompi.run_kernel_launches

let test_fatal_alloc_no_retry () =
  (* Alloc faults are fatal (OOM on a 2GB board): no retries, immediate
     degradation, still the right answer. *)
  let inst = load ~faults:"alloc:nth=1" Oracle.saxpy_src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "host fallback result correct" Oracle.saxpy_expected r.Ompi.run_output;
  Alcotest.(check int) "fatal recorded" 1 (count inst "fault_fatal");
  Alcotest.(check int) "no retries for fatal faults" 0 (count inst "retry_backoff");
  Alcotest.(check int) "host fallback taken" 1 (count inst "host_fallback");
  Alcotest.(check bool) "device dead" true (dead_reason inst <> None)

let test_corrupt_jit_cache_recompiles () =
  (* PTX mode.  First run JIT-compiles and populates the cache.  After a
     device reset (which keeps the on-disk JIT cache), the reload hits
     the cache — injected as corrupt — so recovery must invalidate the
     entry and recompile, visible as a second jit_compile event.  The
     plan is armed from the start: a cold compile is not a cache hit, so
     the first run consults the "jit" site zero times. *)
  let inst = load ~mode:Gpusim.Nvcc.Ptx ~faults:"jit:nth=1" Oracle.saxpy_src in
  let r1 = Ompi.run inst () in
  Alcotest.(check string) "warm run correct" Oracle.saxpy_expected r1.Ompi.run_output;
  Alcotest.(check int) "cold compile injects nothing" 0 (count inst "fault_injected");
  let tr = trace_of inst in
  Alcotest.(check int) "one initial jit compile" 1
    (Perf.Trace.count_events tr ~cat:"jit" ~name:"jit_compile" ());
  Gpusim.Driver.reset (Rt.device inst.Ompi.i_rt 0).Rt.dev_driver;
  let r2 = Ompi.run inst () in
  Alcotest.(check string) "recovered run correct" Oracle.saxpy_expected r2.Ompi.run_output;
  Alcotest.(check int) "corrupt cache entry injected" 1 (count inst "fault_injected");
  Alcotest.(check int) "retried after invalidation" 1 (count inst "retry_backoff");
  Alcotest.(check int) "recompiled from source" 2
    (Perf.Trace.count_events tr ~cat:"jit" ~name:"jit_compile" ());
  Alcotest.(check (option string)) "device stays alive" None (dead_reason inst)

let test_dead_device_salvages_resident_data () =
  (* [target enter data] keeps [a] resident across two regions; the
     second region's launches all fail.  The first region's result lives
     only in device memory at that point, so declaring the device dead
     must salvage it back before the host path re-runs region two. *)
  let src =
    {|
int main(void)
{
  float a[4];
  int i;
  for (i = 0; i < 4; i++) a[i] = 1.0f;
  #pragma omp target enter data map(to: a[0:4])
  #pragma omp target map(tofrom: a[0:4])
  {
    #pragma omp parallel for
    for (i = 0; i < 4; i++)
      a[i] = a[i] + 1.0f;
  }
  #pragma omp target map(tofrom: a[0:4])
  {
    #pragma omp parallel for
    for (i = 0; i < 4; i++)
      a[i] = a[i] * 2.0f;
  }
  #pragma omp target exit data map(from: a[0:4])
  printf("a0=%f a3=%f\n", a[0], a[3]);
  return 0;
}
|}
  in
  let inst = load ~faults:"launch:from=2" src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "salvaged (1+1)*2" "a0=4.000000 a3=4.000000\n" r.Ompi.run_output;
  Alcotest.(check int) "first region ran on the device" 1 r.Ompi.run_kernel_launches;
  Alcotest.(check bool) "resident data salvaged" true (count inst "salvage" >= 1);
  Alcotest.(check int) "second region fell back" 1 (count inst "host_fallback");
  Alcotest.(check bool) "device dead" true (dead_reason inst <> None)

(* ----------------- faults under asynchronous offloading ----------------- *)

(* Two nowait tiles behind a taskwait; each tile writes its half of y
   through a pointer local (array sections must start at 0). *)
let nowait_src =
  {|
int main(void)
{
  float x[8];
  float y[16];
  int t;
  int i;
  for (i = 0; i < 8; i++) x[i] = i;
  for (i = 0; i < 16; i++) y[i] = 0.0f;
  #pragma omp target data map(to: x[0:8])
  {
    for (t = 0; t < 2; t++) {
      float *yt = y + t * 8;
      #pragma omp target nowait map(to: x[0:8]) map(from: yt[0:8])
      {
        #pragma omp parallel for
        for (i = 0; i < 8; i++)
          yt[i] = 2.0f * x[i] + 1.0f;
      }
    }
    #pragma omp taskwait
  }
  printf("y[0]=%f y[15]=%f\n", y[0], y[15]);
  return 0;
}
|}

let nowait_expected = "y[0]=1.000000 y[15]=15.000000\n"

let test_async_transient_launch_recovers () =
  (* The second tile's launch fails once inside its nowait region; the
     retry ladder absorbs it without abandoning the device. *)
  let inst = load ~faults:"launch:nth=2" nowait_src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "async result correct despite fault" nowait_expected r.Ompi.run_output;
  Alcotest.(check int) "one fault injected" 1 (count inst "fault_injected");
  Alcotest.(check bool) "absorbed by retry" true (List.length (backoff_delays inst) >= 1);
  Alcotest.(check int) "no fallback" 0 (count inst "host_fallback");
  Alcotest.(check (option string)) "device stays alive" None (dead_reason inst);
  Alcotest.(check bool) "both tiles enqueued async" true
    (Perf.Trace.count_events (trace_of inst) ~cat:"async" ~name:"enqueue" () >= 2)

let test_async_persistent_transfer_falls_back () =
  (* From the 3rd transfer on, every copy fails: retries exhaust inside
     a nowait region, the queue is quiesced, the device declared dead,
     and the region re-executes inline on the host.  Eager effects keep
     the already-completed tile's result intact. *)
  let inst = load ~faults:"transfer:from=3" nowait_src in
  let r = Ompi.run inst () in
  Alcotest.(check string) "host fallback converges to the reference" nowait_expected
    r.Ompi.run_output;
  Alcotest.(check bool) "faults injected" true (count inst "fault_injected" >= 1);
  Alcotest.(check bool) "host fallback taken" true (count inst "host_fallback" >= 1);
  Alcotest.(check int) "device declared dead" 1 (count inst "device_dead");
  Alcotest.(check bool) "dead reason recorded" true (dead_reason inst <> None)

let () =
  Alcotest.run "faults"
    [
      ( "spec",
        [
          Alcotest.test_case "parse accepts the documented grammar" `Quick test_parse_ok;
          Alcotest.test_case "parse rejects malformed specs" `Quick test_parse_errors;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "probabilistic rules are seed-deterministic" `Quick
            test_probability_deterministic;
          Alcotest.test_case "scripted nth plan and reset" `Quick test_scripted_nth_and_reset;
        ] );
      ( "policy",
        [ Alcotest.test_case "exponential backoff formula" `Quick test_backoff_formula ] );
      ( "recovery",
        [
          Alcotest.test_case "transient transfer fault retries with backoff" `Quick
            test_transient_transfer_retries;
          Alcotest.test_case "retry exhaustion degrades to the host path" `Quick
            test_retry_exhaustion_falls_back;
          Alcotest.test_case "fatal alloc fault skips retries" `Quick test_fatal_alloc_no_retry;
          Alcotest.test_case "corrupt JIT cache invalidates and recompiles" `Quick
            test_corrupt_jit_cache_recompiles;
          Alcotest.test_case "dead device salvages kernel-written residents" `Quick
            test_dead_device_salvages_resident_data;
        ] );
      ( "async",
        [
          Alcotest.test_case "transient launch fault in a nowait region recovers" `Quick
            test_async_transient_launch_recovers;
          Alcotest.test_case "persistent transfer faults fall back to the host" `Quick
            test_async_persistent_transfer_falls_back;
        ] );
    ]
