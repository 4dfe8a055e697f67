(* ompiserve — a long-lived offload server on the simulated Jetson Nano
   2GB: many clients, one device context.  Sessions keep persistent
   data environments, requests multiplex onto the stream pool, closed
   sessions warm the resident cache for the next generation.  Prints
   throughput/latency/queue statistics and verifies every response
   bit-identical against a sequential host reference. *)

open Cmdliner

let run_cmd inflight generations seed smoke resident_cap trace_file (rt : Hostrt.Rt.config) =
  let cfg =
    {
      Serve.cf_rt = rt;
      cf_max_inflight = inflight;
      cf_generations = generations;
      cf_seed = seed;
      cf_resident_cap_bytes = resident_cap;
      cf_trace = trace_file <> None;
    }
  in
  let devices = rt.Hostrt.Rt.devices in
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
      (List.length sessions) devices rt.Hostrt.Rt.streams inflight generations;
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
    Printf.printf "  mem policy: %s\n" (Hostrt.Mempolicy.sel_name rt.Hostrt.Rt.mem_policy);
    List.iter
      (fun (dev, rows) ->
        List.iter
          (fun row -> Printf.printf "    dev %d %s\n" dev (Hostrt.Run_report.policy_row row))
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
      if Cli.write_trace ~tool:"ompiserve" path tr then
        Printf.printf "  [trace: %d events written to %s]\n" (Perf.Trace.length tr) path
    | _ -> ());
    if r.Serve.rp_all_identical then print_endline "  all responses bit-identical to host reference"
    else begin
      print_endline "  RESPONSE MISMATCH against host reference";
      exit 1
    end

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

let resident_cap_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "resident-cap" ] ~docv:"BYTES" ~doc:"Resident-cache byte budget override")

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
      const run_cmd $ inflight_arg $ generations_arg $ seed_arg $ smoke_arg $ resident_cap_arg
      $ trace_arg
      $ Cli.runtime_config ~tool:"ompiserve" ~defaults:Serve.default_config.Serve.cf_rt)

let () = exit (Cmd.eval cmd)
