(* perfbench: the repository's benchmark.

     perfbench --workload kernels-full|fig4-bigmap|serve-mixed
               --seed N --seconds S --trace 0|1

   Prints a report, then, as its last line, one JSON object with the
   keys correct, attempted, failed and metrics (end-to-end metrics with
   --trace 0, per-layer metrics with --trace 1). *)

let usage = "perfbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat "|" Perfbench_lib.Workload.names);
      ("--seed", Arg.Set_int seed, "N seed of inputs, op order and arrivals");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure for");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload Perfbench_lib.Workload.names) || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let s =
    Perfbench_lib.Run.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) ()
  in
  Perfbench_lib.Run.print_report stdout s;
  print_endline (Perf.Json.to_string (Perfbench_lib.Run.result_json s))
