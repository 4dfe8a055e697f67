(* Cost-model and reporting tests. *)

open Gpusim

let spec = Spec.jetson_nano_2gb

let base_counters () =
  let c = Counters.create spec in
  c.Counters.blocks_total <- 1;
  c.Counters.blocks_executed <- 1;
  c

let time c = (Costmodel.kernel_time spec c ~block_threads:256 ~total_blocks:64).Costmodel.bd_time_ns

let test_monotone_in_instructions () =
  let c1 = base_counters () in
  c1.Counters.warp_inst_sum <- 1000.0;
  c1.Counters.thread_inst_sum <- 32000.0;
  c1.Counters.classes.Counters.arith <- 32000;
  let c2 = base_counters () in
  c2.Counters.warp_inst_sum <- 2000.0;
  c2.Counters.thread_inst_sum <- 64000.0;
  c2.Counters.classes.Counters.arith <- 64000;
  Alcotest.(check bool) "more instructions, more time" true (time c2 > time c1)

let test_barrier_cost () =
  let c1 = base_counters () in
  let c2 = base_counters () in
  c2.Counters.barrier_warp_arrivals <- 1000;
  Alcotest.(check bool) "barriers cost cycles" true (time c2 > time c1)

let test_divergence_ratio () =
  let c = base_counters () in
  c.Counters.warp_inst_sum <- 1000.0;
  c.Counters.thread_inst_sum <- 8000.0 (* avg 250 per warp of 32 lanes -> divergence 4 *);
  let b = Costmodel.kernel_time spec c ~block_threads:256 ~total_blocks:64 in
  Alcotest.(check bool) "divergence = warp-max vs average" true
    (Float.abs (b.Costmodel.bd_divergence -. 4.0) < 0.01)

let test_latency_floor_low_occupancy () =
  (* same access volume: 1 resident warp pays latency, 64 blocks hide it *)
  let mk () =
    let c = base_counters () in
    let s =
      {
        Counters.a_loads = 100000;
        a_stores = 0;
        a_store_lo = max_int;
        a_store_hi = 0;
        a_atomic_lo = max_int;
        a_atomic_hi = 0;
        samples = [||];
      }
    in
    Hashtbl.replace c.Counters.per_alloc 0 s;
    c
  in
  let busy = Costmodel.kernel_time spec (mk ()) ~block_threads:256 ~total_blocks:64 in
  let lonely = Costmodel.kernel_time spec (mk ()) ~block_threads:32 ~total_blocks:1 in
  Alcotest.(check bool) "low occupancy pays memory latency" true
    (lonely.Costmodel.bd_mem_cycles > busy.Costmodel.bd_mem_cycles *. 2.0)

(* ------------------------- report ------------------------- *)

let fig () =
  {
    Perf.Report.f_id = "figX";
    f_title = "test";
    f_series =
      [
        { Perf.Report.s_label = "A"; s_points = [ (1, 1.0); (2, 2.0); (4, 4.0) ] };
        { Perf.Report.s_label = "B"; s_points = [ (1, 1.1); (2, 2.4); (4, 4.0) ] };
      ];
    f_notes = [];
  }

let test_max_gap () =
  match Perf.Report.max_relative_gap (fig ()) with
  | Some (size, gap) ->
    Alcotest.(check int) "worst size" 2 size;
    Alcotest.(check bool) "gap 20%" true (Float.abs (gap -. 0.2) < 1e-9)
  | None -> Alcotest.fail "expected a gap"

let test_csv_format () =
  let buf = Buffer.create 64 in
  let tmp = Filename.temp_file "fig" ".csv" in
  let oc = open_out tmp in
  Perf.Report.print_csv ~oc (fig ());
  close_out oc;
  let ic = open_in tmp in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove tmp;
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  Alcotest.(check string) "header" "size,A,B" (List.nth lines 1);
  Alcotest.(check string) "row" "1,1.000000,1.100000" (List.nth lines 2)

let () =
  Alcotest.run "perf"
    [
      ( "costmodel",
        [
          Alcotest.test_case "monotone in instructions" `Quick test_monotone_in_instructions;
          Alcotest.test_case "barrier cost" `Quick test_barrier_cost;
          Alcotest.test_case "divergence ratio" `Quick test_divergence_ratio;
          Alcotest.test_case "latency floor at low occupancy" `Quick test_latency_floor_low_occupancy;
        ] );
      ( "report",
        [
          Alcotest.test_case "max relative gap" `Quick test_max_gap;
          Alcotest.test_case "CSV output" `Quick test_csv_format;
        ] );
    ]
