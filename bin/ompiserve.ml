(* ompiserve — a long-lived offload server on the simulated Jetson Nano
   2GB: many clients, one device context.  Sessions keep persistent
   data environments, requests multiplex onto the stream pool, closed
   sessions warm the resident cache for the next generation.  Prints
   throughput/latency/queue statistics and verifies every response
   bit-identical against a sequential host reference. *)

open Cmdliner

let run_cmd devices streams inflight generations seed smoke mem_policy resident_cap
    faults_spec fault_seed max_retries trace_file =
  let cf_mem_policy =
    match Hostrt.Mempolicy.sel_of_string mem_policy with
    | Some sel -> sel
    | None ->
      Printf.eprintf "ompiserve: bad --mem-policy %s (want auto|copy|elide|zerocopy)\n" mem_policy;
      exit 1
  in
  let faults =
    match faults_spec with
    | None -> []
    | Some spec -> (
      match Hostrt.Faults.parse spec with
      | Ok rules -> rules
      | Error msg ->
        Printf.eprintf "ompiserve: bad --faults spec: %s\n%s\n" msg Hostrt.Faults.spec_syntax;
        exit 1)
  in
  let cfg =
    {
      Serve.cf_devices = devices;
      cf_streams = streams;
      cf_max_inflight = inflight;
      cf_generations = generations;
      cf_seed = seed;
      cf_mem_policy;
      cf_resident_cap_bytes = resident_cap;
      cf_faults = faults;
      cf_fault_seed = fault_seed;
      cf_max_retries = max_retries;
      cf_trace = trace_file <> None;
    }
  in
  let sessions = Serve.default_sessions ~smoke in
  (* spread the default workload round-robin across the farm *)
  let sessions =
    if devices > 1 then
      List.mapi (fun i s -> { s with Serve.ss_device = i mod devices }) sessions
    else sessions
  in
  match Serve.run cfg sessions with
  | exception Invalid_argument msg ->
    Printf.eprintf "ompiserve: %s\n" msg;
    exit 1
  | r, trace ->
    Printf.printf "ompiserve: %d clients, %d device(s), %d stream(s), max %d in flight, %d generation(s)\n"
      (List.length sessions) devices streams inflight generations;
    Printf.printf "  %d/%d requests served in %.6f s busy time -> %.1f req/s\n"
      r.Serve.rp_completed r.Serve.rp_requests r.Serve.rp_busy_s r.Serve.rp_throughput_rps;
    Printf.printf "  latency p50/p95/p99: %.3f / %.3f / %.3f ms; queue depth mean %.2f max %d\n"
      r.Serve.rp_p50_ms r.Serve.rp_p95_ms r.Serve.rp_p99_ms r.Serve.rp_mean_queue_depth
      r.Serve.rp_max_queue_depth;
    Printf.printf
      "  data env: %.0f%% persistent-map hits; %d warm-open H2Ds elided (%d h2d + %d d2h total), \
       %d resident buffer(s)\n"
      (100.0 *. r.Serve.rp_env_hit_rate)
      r.Serve.rp_open_elisions r.Serve.rp_elided_h2d r.Serve.rp_elided_d2h
      r.Serve.rp_resident_buffers_end;
    if r.Serve.rp_elided_pages > 0 then
      Printf.printf "  dirty tracking: %d clean page(s) skipped by partial transfers\n"
        r.Serve.rp_elided_pages;
    Printf.printf "  mem policy: %s\n" (Hostrt.Mempolicy.sel_name cf_mem_policy);
    List.iter
      (fun (dev, rows) ->
        List.iter
          (fun ((off, bytes), row) ->
            Printf.printf "    dev %d buffer 0x%x+%d -> %s\n" dev off bytes
              (String.concat ", " (List.map (fun (m, n) -> Printf.sprintf "%s x%d" m n) row)))
          rows)
      r.Serve.rp_policy;
    if r.Serve.rp_faults_injected > 0 || r.Serve.rp_device_dead then
      Printf.printf "  faults: %d injected%s\n" r.Serve.rp_faults_injected
        (if r.Serve.rp_device_dead then "; device dead, host fallback" else "");
    List.iter
      (fun s ->
        Printf.printf "    session %d %-7s n=%-4d %3d req, mean %.3f ms, env %d/%d, %s\n"
          s.Serve.sr_id s.Serve.sr_app s.Serve.sr_n s.Serve.sr_requests s.Serve.sr_mean_ms
          s.Serve.sr_env_hits s.Serve.sr_env_lookups
          (if s.Serve.sr_ok then "ok" else "MISMATCH"))
      r.Serve.rp_sessions;
    (match (trace_file, trace) with
    | Some path, Some tr ->
      Perf.Chrome_trace.write_file path tr;
      Printf.printf "  [trace: %d events written to %s]\n" (Perf.Trace.length tr) path
    | _ -> ());
    if r.Serve.rp_all_identical then print_endline "  all responses bit-identical to host reference"
    else begin
      print_endline "  RESPONSE MISMATCH against host reference";
      exit 1
    end

let devices_arg =
  Arg.(
    value
    & opt int 1
    & info [ "devices" ] ~docv:"N"
        ~doc:
          "Number of simulated device instances; the default workload's sessions are pinned \
           round-robin across the farm, each with its own data environment and resident cache")

let streams_arg =
  Arg.(value & opt int 4 & info [ "streams" ] ~docv:"N" ~doc:"Stream-pool size (1 = serialized)")

let inflight_arg =
  Arg.(
    value & opt int 8 & info [ "inflight" ] ~docv:"N" ~doc:"Admission bound on in-flight requests")

let generations_arg =
  Arg.(
    value
    & opt int 2
    & info [ "generations" ] ~docv:"N"
        ~doc:"Open-serve-close cycles; generation 2+ re-opens sessions against the resident cache")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Arrival-process seed")

let smoke_arg = Arg.(value & flag & info [ "smoke" ] ~doc:"Small CI-sized workload")

let mem_policy_arg =
  Arg.(
    value
    & opt string "elide"
    & info [ "mem-policy" ] ~docv:"MODE"
        ~doc:
          "Memory mode for every session's persistent data environment: $(b,elide) (default) \
           parks closed sessions' buffers in the resident cache and skips provably redundant \
           transfers; $(b,copy) always transfers; $(b,zerocopy) maps pinned host memory; \
           $(b,auto) classifies each buffer copy/elide/zerocopy from its observed history")

let resident_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "resident-cap" ] ~docv:"BYTES" ~doc:"Resident-cache byte budget override")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          ("Inject deterministic device faults under load; responses must stay bit-identical. "
          ^ Hostrt.Faults.spec_syntax))

let fault_seed_arg =
  Arg.(
    value & opt int 7 & info [ "fault-seed" ] ~docv:"SEED" ~doc:"Seed for probabilistic fault rules")

let max_retries_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-retries" ] ~docv:"N"
        ~doc:"Bound the per-operation retries of the recovery policy")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record the request lifecycle (cat:\"serve\": enqueue/admit/map/launch/complete) \
           alongside the runtime's async/mem/launch events and write a Chrome-trace JSON file")

let cmd =
  let doc = "serve concurrent offload requests on one simulated device context" in
  Cmd.v
    (Cmd.info "ompiserve" ~doc)
    Term.(
      const run_cmd $ devices_arg $ streams_arg $ inflight_arg $ generations_arg $ seed_arg
      $ smoke_arg $ mem_policy_arg $ resident_cap_arg $ faults_arg $ fault_seed_arg
      $ max_retries_arg $ trace_arg)

let () = exit (Cmd.eval cmd)
