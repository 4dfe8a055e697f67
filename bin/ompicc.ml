(* ompicc — the source-to-source compiler CLI (paper Fig. 2).

   Takes a C file with OpenMP directives and emits:
   - <stem>_host.c       the translated host program (ort_* calls), and
   - <kernel>.cu         one CUDA C file per target region,
   exactly the artefact layout OMPi produces before handing the kernel
   files to nvcc.  ompicc only compiles; ompirun compiles and runs the
   program on the simulated Jetson Nano. *)

open Cmdliner

let compile_cmd input output_dir binary_mode show opencl =
  Cli.report_errors ~input (fun () ->
      let source = Cli.read_file input in
      let stem = Filename.remove_extension (Filename.basename input) in
      if not (List.mem binary_mode [ "ptx"; "cubin" ]) then begin
        prerr_endline ("unknown binary mode '" ^ binary_mode ^ "' (expected ptx or cubin)");
        exit 2
      end;
      let compiled = Ompi.compile ~name:stem source in
      if show then begin
        print_endline "/* ---------------- translated host file ---------------- */";
        print_string compiled.Ompi.c_host_text;
        List.iter
          (fun (name, text) ->
            Printf.printf "/* ---------------- kernel file %s.cu ---------------- */\n%s" name text)
          compiled.Ompi.c_kernel_texts
      end;
      let files = Ompi.emit_files compiled ~dir:output_dir in
      List.iter (fun f -> Printf.eprintf "wrote %s\n" f) files;
      if opencl then
        List.iter
          (fun (k : Translator.Kernelgen.kernel) ->
            let path = Filename.concat output_dir (k.Translator.Kernelgen.k_entry ^ ".cl") in
            let oc = open_out path in
            output_string oc (Translator.Opencl.of_kernel k);
            close_out oc;
            Printf.eprintf "wrote %s (preliminary OpenCL module)\n" path)
          compiled.Ompi.c_kernels;
      Printf.eprintf "%d kernel file(s) generated (mode: %s)\n"
        (List.length compiled.Ompi.c_kernel_texts)
        binary_mode)

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc:"OpenMP C source file")

let output_arg =
  Arg.(value & opt string "." & info [ "o"; "output-dir" ] ~docv:"DIR" ~doc:"Output directory")

let mode_arg =
  Arg.(
    value
    & opt string "cubin"
    & info [ "b"; "binary-mode" ] ~docv:"MODE" ~doc:"Kernel binary mode: cubin (default) or ptx")

let show_arg = Arg.(value & flag & info [ "s"; "show" ] ~doc:"Print the generated files to stdout")

let opencl_arg =
  Arg.(value & flag & info [ "opencl" ] ~doc:"Also emit OpenCL C kernel files (preliminary back end)")

let cmd =
  let doc = "OMPi-style OpenMP-to-CUDA source-to-source compiler for the simulated Jetson Nano" in
  Cmd.v
    (Cmd.info "ompicc" ~doc)
    Term.(const compile_cmd $ input_arg $ output_arg $ mode_arg $ show_arg $ opencl_arg)

let () = exit (Cmd.eval cmd)
