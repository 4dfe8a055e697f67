(* ompirun — compile an OpenMP C program and execute it end-to-end on
   the simulated Jetson Nano 2GB, reporting device statistics. *)

open Cmdliner

(* Accept "examples/quickstart" as shorthand for "examples/quickstart.c". *)
let resolve_input path =
  if Sys.file_exists path && not (Sys.is_directory path) then Some path
  else if Sys.file_exists (path ^ ".c") then Some (path ^ ".c")
  else None

let run_cmd input entry binary_mode trace_file no_jit verbose (config : Hostrt.Rt.config) =
  let input =
    match resolve_input input with
    | Some p -> p
    | None ->
      Printf.eprintf "ompirun: no such file: %s (also tried %s.c)\n" input input;
      exit 1
  in
  let source = Cli.read_file input in
  let stem = Filename.remove_extension (Filename.basename input) in
  let mode = if binary_mode = "ptx" then Gpusim.Nvcc.Ptx else Gpusim.Nvcc.Cubin in
  let config = { config with binary_mode = mode; jit = not no_jit } in
  Cli.report_errors ~input (fun () ->
      let compiled = Ompi.compile ~name:stem source in
      let instance = Ompi.load ~config ~trace:(trace_file <> None) compiled in
      let result = Ompi.run instance ~entry () in
      print_string result.Ompi.run_output;
      Printf.eprintf "[%s on %s%s]\n" stem Gpusim.Spec.jetson_nano_2gb.Gpusim.Spec.name
        (if config.devices > 1 then Printf.sprintf " x%d devices" config.devices else "");
      (match instance.Ompi.i_rt.Hostrt.Rt.faults with
      | Some f ->
        let dataenv = (Hostrt.Rt.device instance.Ompi.i_rt 0).Hostrt.Rt.dev_dataenv in
        Printf.eprintf "[faults: %d injected out of %d fallible calls%s]\n"
          (Hostrt.Faults.total_fired f) (Hostrt.Faults.total_calls f)
          (match Hostrt.Dataenv.dead_reason dataenv with
          | Some reason -> Printf.sprintf "; device dead (%s), host fallback used" reason
          | None -> "")
      | None -> ());
      (if not Hostrt.Mempolicy.(equal_sel config.mem_policy (Forced Copy)) then begin
         let dataenv = (Hostrt.Rt.device instance.Ompi.i_rt 0).Hostrt.Rt.dev_dataenv in
         let st = Hostrt.Dataenv.stats dataenv in
         Printf.eprintf
           "[mem: %d h2d + %d d2h elided, %d zero-copy accesses, %d resident buffer(s), %d byte(s) \
            digested]\n"
           st.Hostrt.Dataenv.elided_h2d st.Hostrt.Dataenv.elided_d2h
           st.Hostrt.Dataenv.zerocopy_accesses
           (Hostrt.Dataenv.resident_buffers dataenv)
           st.Hostrt.Dataenv.digested_bytes;
         if
           st.Hostrt.Dataenv.elided_h2d_pages + st.Hostrt.Dataenv.elided_d2h_pages
           + st.Hostrt.Dataenv.elided_update_to + st.Hostrt.Dataenv.elided_update_from
           > 0
         then
           Printf.eprintf
             "[mem: dirty tracking: %d h2d + %d d2h clean page(s) skipped, %d update-to + %d \
              update-from elided]\n"
             st.Hostrt.Dataenv.elided_h2d_pages st.Hostrt.Dataenv.elided_d2h_pages
             st.Hostrt.Dataenv.elided_update_to st.Hostrt.Dataenv.elided_update_from;
         List.iter
           (fun ((off, bytes), row) ->
             Printf.eprintf "[mem: buffer 0x%x+%d -> %s]\n" off bytes
               (String.concat ", " (List.map (fun (m, n) -> Printf.sprintf "%s x%d" m n) row)))
           (Hostrt.Dataenv.policy_decisions dataenv)
       end);
      Printf.eprintf "[simulated time: %.6f s, %d kernel launch(es), exit code %d]\n"
        result.Ompi.run_time_s result.Ompi.run_kernel_launches result.Ompi.run_exit;
      (match (trace_file, instance.Ompi.i_trace) with
      | Some path, Some tr ->
        if Cli.write_trace ~tool:"ompirun" path tr then
          Printf.eprintf "[trace: %d events written to %s (Chrome trace format)]\n"
            (Perf.Trace.length tr) path;
        if verbose then Perf.Report.print_trace_summary ~oc:stderr tr
      | _ -> ());
      if verbose then begin
        let dev = Hostrt.Rt.device instance.Ompi.i_rt 0 in
        List.iter
          (fun (s : Gpusim.Driver.launch_stats) ->
            Printf.eprintf "  launch %s grid=(%d,%d,%d) block=(%d,%d,%d): %s\n"
              s.Gpusim.Driver.st_entry s.Gpusim.Driver.st_grid.Gpusim.Simt.x
              s.Gpusim.Driver.st_grid.Gpusim.Simt.y s.Gpusim.Driver.st_grid.Gpusim.Simt.z
              s.Gpusim.Driver.st_block.Gpusim.Simt.x s.Gpusim.Driver.st_block.Gpusim.Simt.y
              s.Gpusim.Driver.st_block.Gpusim.Simt.z
              (Format.asprintf "%a" Gpusim.Costmodel.pp_breakdown s.Gpusim.Driver.st_breakdown))
          (List.rev dev.Hostrt.Rt.dev_driver.Gpusim.Driver.launches)
      end;
      exit result.Ompi.run_exit)

let input_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE.c" ~doc:"OpenMP C source file (the .c suffix may be omitted)")

let entry_arg = Arg.(value & opt string "main" & info [ "e"; "entry" ] ~docv:"FN" ~doc:"Entry function")

let mode_arg =
  Arg.(value & opt string "cubin" & info [ "b"; "binary-mode" ] ~docv:"MODE" ~doc:"cubin or ptx")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record device init, transfers, the three launch phases and JIT-cache activity, and \
           write a Chrome-trace JSON file (open in chrome://tracing or Perfetto)")

let no_jit_arg =
  Arg.(
    value
    & flag
    & info [ "no-jit" ]
        ~doc:
          "Disable the closure JIT: execute the host program and the kernels with the reference \
           tree-walking interpreter instead of their closure-compiled forms.  Output, counters \
           and simulated times are identical; only real (host) execution is slower")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print per-launch statistics")

let cmd =
  let doc = "run an OpenMP C program on the simulated Jetson Nano 2GB" in
  Cmd.v
    (Cmd.info "ompirun" ~doc)
    Term.(
      const run_cmd $ input_arg $ entry_arg $ mode_arg $ trace_arg $ no_jit_arg $ verbose_arg
      $ Cli.runtime_config ~tool:"ompirun"
          ~defaults:{ Hostrt.Rt.default_config with mem_policy = Hostrt.Mempolicy.Auto })

let () = exit (Cmd.eval cmd)
