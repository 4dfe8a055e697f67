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
      let report = Hostrt.Run_report.of_rt instance.Ompi.i_rt in
      Hostrt.Run_report.print stderr report
        ~mem:(not Hostrt.Mempolicy.(equal_sel config.mem_policy (Forced Copy)));
      Printf.eprintf "[simulated time: %.6f s, %d kernel launch(es), exit code %d]\n"
        result.Ompi.run_time_s result.Ompi.run_kernel_launches result.Ompi.run_exit;
      (match (trace_file, instance.Ompi.i_trace) with
      | Some path, Some tr ->
        if Cli.write_trace ~tool:"ompirun" path tr then
          Printf.eprintf "[trace: %d events written to %s (Chrome trace format)]\n"
            (Perf.Trace.length tr) path;
        if verbose then Perf.Report.print_trace_summary ~oc:stderr tr
      | _ -> ());
      if verbose then Hostrt.Run_report.print_launches stderr report;
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
