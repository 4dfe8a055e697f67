(* Alcotest over the oracle's checks (test/oracle), shared by the
   suites. *)

(* Check 3: the executor switch must be invisible: outputs, printed
   output, every launch record and the simulated time. *)
let executors (label : string) (jit : Oracle.obs) (interp : Oracle.obs) : unit =
  Alcotest.(check (list string))
    (label ^ ": identical outputs, launch counters, cycle costs and simulated time")
    [] (Oracle.executor_violations jit interp)
