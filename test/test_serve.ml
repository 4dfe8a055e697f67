(* Offload-server tests: the Serve library's session/request machinery
   (bit-identical responses, persistent data environments, resident-
   cache warm re-opens, admission control, serve-event pairing), its
   composition with fault injection, and the QCheck isolation property:
   random interleavings of N sessions — including sessions whose
   persistent matrices are overlapping slices of one shared pool —
   produce bit-identical per-session outputs vs running each session
   alone. *)

let mk_spec ?(shared = None) ?(device = 0) ~tag ~app ~n ~requests ~rate () =
  {
    Serve.ss_tag = tag;
    ss_app = app;
    ss_n = n;
    ss_requests = requests;
    ss_rate_hz = rate;
    ss_shared_off = shared;
    ss_device = device;
  }

let base_cfg =
  {
    Serve.cf_rt =
      {
        Hostrt.Rt.default_config with
        devices = 1;
        streams = 4;
        mem_policy = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide;
        faults = [];
        fault_seed = 7;
        max_retries = None;
      };
    cf_max_inflight = 8;
    cf_generations = 2;
    cf_seed = 42;
    cf_resident_cap_bytes = None;
    cf_trace = false;
  }

(* [base_cfg] with its runtime settings changed by [f]. *)
let with_rt f = { base_cfg with Serve.cf_rt = f base_cfg.Serve.cf_rt }

let small_mix =
  [
    mk_spec ~tag:0 ~app:Serve.Matvec ~n:24 ~requests:3 ~rate:5000.0 ~shared:(Some 0) ();
    mk_spec ~tag:1 ~app:Serve.Matvec ~n:24 ~requests:3 ~rate:5000.0 ~shared:(Some (24 * 12)) ();
    mk_spec ~tag:2 ~app:Serve.Ingest ~n:32 ~requests:3 ~rate:6000.0 ();
    mk_spec ~tag:3 ~app:Serve.Scale ~n:32 ~requests:4 ~rate:7000.0 ();
  ]

(* ---------------------------------------------------------------- *)
(* Unit tests                                                         *)
(* ---------------------------------------------------------------- *)

let test_smoke_run () =
  let r, _ = Serve.run base_cfg small_mix in
  Alcotest.(check bool) "all responses bit-identical" true r.Serve.rp_all_identical;
  Alcotest.(check int) "every request completed" r.Serve.rp_requests r.Serve.rp_completed;
  Alcotest.(check int) "13 requests per generation, 2 generations" 26 r.Serve.rp_requests;
  Alcotest.(check bool) "positive throughput" true (r.Serve.rp_throughput_rps > 0.0);
  Alcotest.(check bool) "latency percentiles ordered" true
    (r.Serve.rp_p50_ms <= r.Serve.rp_p95_ms && r.Serve.rp_p95_ms <= r.Serve.rp_p99_ms);
  List.iter
    (fun s -> Alcotest.(check bool) (s.Serve.sr_app ^ " session ok") true s.Serve.sr_ok)
    r.Serve.rp_sessions

(* Sessions with persistent inputs must hit their data environment on
   every request; generation 2 re-opens against the resident cache. *)
let test_persistent_env_and_warm_reopen () =
  let r, _ = Serve.run base_cfg small_mix in
  Alcotest.(check bool) "persistent maps all hit" true (r.Serve.rp_env_hit_rate >= 0.999);
  Alcotest.(check bool) "warm re-open elided at least one h2d" true (r.Serve.rp_open_elisions >= 1);
  List.iter
    (fun s ->
      if s.Serve.sr_app <> "scale" then begin
        Alcotest.(check bool) (s.Serve.sr_app ^ " had env lookups") true (s.Serve.sr_env_lookups > 0);
        Alcotest.(check int)
          (s.Serve.sr_app ^ " env hits = lookups")
          s.Serve.sr_env_lookups s.Serve.sr_env_hits
      end)
    r.Serve.rp_sessions

(* Scheduling must move time, never bytes: per-session outputs are
   bit-identical across stream-pool sizes and admission bounds. *)
let test_outputs_invariant_under_scheduling () =
  let out cfg =
    let r, _ = Serve.run cfg small_mix in
    Alcotest.(check bool) "leg bit-identical" true r.Serve.rp_all_identical;
    List.map (fun s -> s.Serve.sr_output_bits) r.Serve.rp_sessions
  in
  let reference = out base_cfg in
  List.iter
    (fun cfg ->
      List.iter2
        (fun a b ->
          Alcotest.(check bool) "outputs bit-identical across scheduling configs" true (a = b))
        reference (out cfg))
    [
      with_rt (fun rt -> { rt with streams = 1 });
      { (with_rt (fun rt -> { rt with streams = 2 })) with Serve.cf_max_inflight = 1 };
      { base_cfg with Serve.cf_max_inflight = 3 };
    ]

(* Transient faults recover in place; a fatal fault kills the device
   and every later request rides the host fallback — in both cases
   every response stays bit-identical. *)
let test_fault_legs () =
  let rules spec =
    match Hostrt.Faults.parse spec with Ok r -> r | Error m -> Alcotest.fail m
  in
  let transient, _ =
    Serve.run
      (with_rt (fun rt ->
           { rt with faults = rules "h2d:every=5,kind=transient;launch:every=7,kind=transient" }))
      small_mix
  in
  Alcotest.(check bool) "transient leg injected" true (transient.Serve.rp_faults_injected >= 1);
  Alcotest.(check bool) "transient leg bit-identical" true transient.Serve.rp_all_identical;
  Alcotest.(check bool) "transient leg device alive" false transient.Serve.rp_device_dead;
  let fatal, _ =
    Serve.run (with_rt (fun rt -> { rt with faults = rules "launch:nth=5,kind=fatal" })) small_mix
  in
  Alcotest.(check bool) "fatal leg kills the device" true fatal.Serve.rp_device_dead;
  Alcotest.(check bool) "fatal leg still bit-identical" true fatal.Serve.rp_all_identical;
  Alcotest.(check int) "fatal leg completes everything" fatal.Serve.rp_requests
    fatal.Serve.rp_completed

(* Two sessions pinned to distinct devices of a 2-device farm: every
   request resolves on its own device (its persistent environment lives
   there), and each session's output is bit-identical to the same
   session running alone on the farm. *)
let test_two_device_pinning () =
  let cfg = with_rt (fun rt -> { rt with devices = 2 }) in
  let mix =
    [
      mk_spec ~tag:0 ~app:Serve.Matvec ~n:24 ~requests:3 ~rate:5000.0 ~device:0 ();
      mk_spec ~tag:1 ~app:Serve.Ingest ~n:32 ~requests:3 ~rate:6000.0 ~device:1 ();
      mk_spec ~tag:2 ~app:Serve.Scale ~n:32 ~requests:4 ~rate:7000.0 ~device:1 ();
    ]
  in
  let mixed, _ = Serve.run cfg mix in
  Alcotest.(check bool) "2-device mix bit-identical" true mixed.Serve.rp_all_identical;
  Alcotest.(check int) "every request completed" mixed.Serve.rp_requests mixed.Serve.rp_completed;
  List.iteri
    (fun i spec ->
      let alone, _ = Serve.run cfg [ spec ] in
      Alcotest.(check bool) "solo leg bit-identical" true alone.Serve.rp_all_identical;
      Alcotest.(check bool)
        (Printf.sprintf "session %d (device %d) matches its solo run" i spec.Serve.ss_device)
        true
        ((List.nth mixed.Serve.rp_sessions i).Serve.sr_output_bits
        = (List.hd alone.Serve.rp_sessions).Serve.sr_output_bits))
    mix

let test_device_out_of_range_rejected () =
  let bad = [ mk_spec ~tag:0 ~app:Serve.Scale ~n:16 ~requests:1 ~rate:5000.0 ~device:2 () ] in
  match Serve.run (with_rt (fun rt -> { rt with devices = 2 })) bad with
  | _ -> Alcotest.fail "session pinned past the farm must be rejected"
  | exception Invalid_argument _ -> ()

(* The resident cache is per device: parking and byte-accounted
   eviction on one device never touch what another device has parked. *)
let test_resident_cache_isolation () =
  let rt =
    Hostrt.Rt.create
      ~config:
        {
          Hostrt.Rt.default_config with
          devices = 2;
          mem_policy = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide;
        }
      ()
  in
  let env d = (Hostrt.Rt.device rt d).Hostrt.Rt.dev_dataenv in
  let host = rt.Hostrt.Rt.host_mem in
  Hostrt.Dataenv.set_resident_cap_bytes (env 0) 512;
  Hostrt.Dataenv.set_resident_cap_bytes (env 1) 4096;
  (* park one buffer on device 1 *)
  let h1 = Machine.Mem.alloc host 256 in
  ignore (Hostrt.Dataenv.map (env 1) h1 ~bytes:256 Hostrt.Dataenv.To);
  Hostrt.Dataenv.unmap (env 1) h1 Hostrt.Dataenv.To;
  Alcotest.(check int) "device 1 parked its buffer" 1 (Hostrt.Dataenv.resident_buffers (env 1));
  (* churn device 0 past its byte budget *)
  for _ = 1 to 4 do
    let h = Machine.Mem.alloc host 256 in
    ignore (Hostrt.Dataenv.map (env 0) h ~bytes:256 Hostrt.Dataenv.To);
    Hostrt.Dataenv.unmap (env 0) h Hostrt.Dataenv.To
  done;
  Alcotest.(check bool) "device 0 evicted down to its budget" true
    (Hostrt.Dataenv.resident_bytes (env 0) <= 512);
  Alcotest.(check int) "device 1's parked buffer untouched" 1
    (Hostrt.Dataenv.resident_buffers (env 1));
  Alcotest.(check int) "device 1's bytes untouched" 256 (Hostrt.Dataenv.resident_bytes (env 1));
  (* re-opening device 1's range elides its H2D; device 0's stats don't move *)
  let d0_elided = (Hostrt.Dataenv.stats (env 0)).Hostrt.Dataenv.elided_h2d in
  ignore (Hostrt.Dataenv.map (env 1) h1 ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check bool) "warm re-open elided on device 1" true
    ((Hostrt.Dataenv.stats (env 1)).Hostrt.Dataenv.elided_h2d >= 1);
  Alcotest.(check int) "device 0 accounting unmoved" d0_elided
    (Hostrt.Dataenv.stats (env 0)).Hostrt.Dataenv.elided_h2d

(* Every admitted request must emit a matching complete instant. *)
let test_serve_trace_pairing () =
  let r, tr = Serve.run { base_cfg with Serve.cf_trace = true } small_mix in
  let tr = match tr with Some tr -> tr | None -> Alcotest.fail "no trace ring" in
  let count name = Perf.Trace.count_events tr ~cat:"serve" ~name () in
  Alcotest.(check int) "one enqueue per request" r.Serve.rp_requests (count "enqueue");
  Alcotest.(check int) "one admit per request" r.Serve.rp_requests (count "admit");
  Alcotest.(check int) "one map per request" r.Serve.rp_requests (count "map");
  Alcotest.(check int) "one launch per request" r.Serve.rp_requests (count "launch");
  Alcotest.(check int) "one complete per admit" (count "admit") (count "complete")

let test_invalid_configs () =
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "empty workload rejected" true
    (raises (fun () -> ignore (Serve.run base_cfg [])));
  Alcotest.(check bool) "zero streams rejected" true
    (raises (fun () -> ignore (Serve.run (with_rt (fun rt -> { rt with streams = 0 })) small_mix)));
  Alcotest.(check bool) "zero inflight rejected" true
    (raises (fun () -> ignore (Serve.run { base_cfg with Serve.cf_max_inflight = 0 } small_mix)));
  Alcotest.(check bool) "zero generations rejected" true
    (raises (fun () -> ignore (Serve.run { base_cfg with Serve.cf_generations = 0 } small_mix)))

(* Session order must not matter to the overlapping shared slices: the
   reversed smoke mix, and the smoke mix with its two matvec sessions
   swapped, close every session's own maps and answer every request
   bit-identically. *)
let test_session_order () =
  let smoke = Serve.default_sessions ~smoke:true in
  let swapped = match smoke with a :: b :: rest -> b :: a :: rest | l -> l in
  List.iter
    (fun (name, specs) ->
      let r, _ = Serve.run Serve.default_config specs in
      Alcotest.(check int) (name ^ ": every request completed") r.Serve.rp_requests
        r.Serve.rp_completed;
      Alcotest.(check bool) (name ^ ": all responses bit-identical") true r.Serve.rp_all_identical)
    [ ("reversed", List.rev smoke); ("matvec swapped", swapped) ]

(* -------------------- QCheck isolation property -------------------- *)

(* Random workloads of 2-3 sessions; matvec sessions draw their
   persistent matrices from overlapping offsets of the shared pool. *)
let workload_gen =
  QCheck.Gen.(
    let session_gen i =
      let* kind = int_range 0 2 in
      let* n = map (fun k -> 16 + (8 * k)) (int_range 0 2) in
      let* requests = int_range 1 3 in
      let* rate = map (fun k -> 3000.0 +. (1000.0 *. float_of_int k)) (int_range 0 3) in
      let* tag = int_range 0 5 in
      match kind with
      | 0 ->
        (* overlapping slices: session i starts at half the previous
           slice, so neighbours share half their matrix *)
        let shared = Some (i * n * n / 2) in
        return (mk_spec ~tag ~app:Serve.Matvec ~n ~requests ~rate ~shared ())
      | 1 -> return (mk_spec ~tag ~app:Serve.Ingest ~n ~requests ~rate ())
      | _ -> return (mk_spec ~tag ~app:Serve.Scale ~n ~requests ~rate ())
    in
    let* count = int_range 2 3 in
    let* seed = int_range 0 1000 in
    let* sessions =
      List.fold_right
        (fun i acc ->
          let* rest = acc in
          let* s = session_gen i in
          return (s :: rest))
        (List.init count (fun i -> i))
        (return [])
    in
    return (seed, sessions))

let prop_interleaving_isolation =
  QCheck.Test.make ~name:"interleaved sessions match each session run alone" ~count:8
    (QCheck.make workload_gen) (fun (seed, specs) ->
      let cfg = { base_cfg with Serve.cf_seed = seed; cf_generations = 1 } in
      let mixed, _ = Serve.run cfg specs in
      if not mixed.Serve.rp_all_identical then
        QCheck.Test.fail_report "mixed run not bit-identical to host reference";
      List.iteri
        (fun i spec ->
          let alone, _ = Serve.run cfg [ spec ] in
          if not alone.Serve.rp_all_identical then
            QCheck.Test.fail_report "solo run not bit-identical to host reference";
          let mixed_out = (List.nth mixed.Serve.rp_sessions i).Serve.sr_output_bits in
          let alone_out = (List.hd alone.Serve.rp_sessions).Serve.sr_output_bits in
          if mixed_out <> alone_out then
            QCheck.Test.fail_reportf "session %d (tag %d) output differs mixed vs alone" i
              spec.Serve.ss_tag)
        specs;
      true)

let () =
  Alcotest.run "serve"
    [
      ( "server",
        [
          Alcotest.test_case "smoke run" `Quick test_smoke_run;
          Alcotest.test_case "persistent env + warm re-open" `Quick
            test_persistent_env_and_warm_reopen;
          Alcotest.test_case "outputs invariant under scheduling" `Quick
            test_outputs_invariant_under_scheduling;
          Alcotest.test_case "fault legs stay bit-identical" `Quick test_fault_legs;
          Alcotest.test_case "two-device pinning" `Quick test_two_device_pinning;
          Alcotest.test_case "pin past the farm rejected" `Quick
            test_device_out_of_range_rejected;
          Alcotest.test_case "resident cache is per device" `Quick
            test_resident_cache_isolation;
          Alcotest.test_case "serve trace pairing" `Quick test_serve_trace_pairing;
          Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs;
          Alcotest.test_case "session order with overlapping slices" `Quick test_session_order;
        ] );
      ("isolation", [ QCheck_alcotest.to_alcotest prop_interleaving_isolation ]);
    ]
