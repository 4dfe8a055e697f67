(* Every metric the benchmark reports, with its unit and direction, and
   for per-layer metrics the end-to-end metric and workload it should
   move.  BENCHMARK.json lists the same names, units and directions (a
   test keeps the two in step).  Units name their clock: "s"/"ms"/"ns"
   are host wall clock, "sim_s"/"sim_ms"/"sim_ns" the simulated Nano
   clock, which is deterministic for one seed. *)

type better = Lower | Higher

type metric = {
  m_name : string;
  m_unit : string;
  m_better : better;
  m_moves : string;  (** end-to-end metric and workload this layer metric should move *)
}

let m ?(better = Lower) ?(moves = "") m_name m_unit = { m_name; m_unit; m_better = better; m_moves = moves }

let end_to_end =
  [
    m "wall_s" "s" ~moves:"host wall clock of one workload pass, tracing off (fastest pass of the run)";
    m "setup_s" "s"
      ~moves:
        "Fig. 4 workloads: Harness.create + front end + translator + nvcc + module load per pass; \
         serve-mixed: a server start-up serving one request of each class";
    m "alloc_mb" "MB" ~moves:"OCaml heap allocation of one pass (minor + major - promoted words; median over passes)";
  ]

let setup_moves = "setup_s on kernels-full (12 modules per pass)"

let data_moves = "wall_s, alloc_mb and peak_heap_mb on fig4-bigmap; near zero on kernels-full"

let kernel_moves = "wall_s and sim_minst_per_s on kernels-full"

let sim_moves = "sim_s and ompi_vs_cuda_sim on kernels-full"

let mem_moves = "sim_s, req_p95_ms and req_per_s on serve-mixed"

let serve_moves = "wall_s, req_p95_ms and req_per_s on serve-mixed"

let phase_moves = "sim_s on every workload"

(* The apps and variants of the Fig. 4 workloads, for the per-app rows. *)
let app_names = List.map (fun a -> a.Apps.a_name) Apps.all

let variant_names = [ "cuda"; "ompi" ]

let per_layer =
  [
    (* the simulated end-to-end figures, deterministic for one seed *)
    m "sim_s" "sim_s" ~moves:"simulated Nano seconds summed over the measured windows";
    m "ompi_vs_cuda_sim" "ratio"
      ~moves:"geometric mean over apps of OMPi / CUDA sim_s (Fig. 4 workloads; 0 on serve-mixed)";
    m "sim_minst_per_s" "Minst/s" ~better:Higher
      ~moves:"simulated thread-instructions per host second, untraced (0 on serve-mixed)";
    m "failed_frac" "ratio" ~moves:"failed / attempted operations";
    m "peak_heap_mb" "MB"
      ~moves:"largest OCaml top heap of the first pass's op processes; data-path changes on fig4-bigmap";
    m "req_per_s" "req/sim_s" ~better:Higher ~moves:"completed requests per simulated second (serve-mixed)";
    m "req_p50_ms" "sim_ms" ~moves:"simulated latency from scheduled arrival (serve-mixed)";
    m "req_p95_ms" "sim_ms" ~moves:"simulated latency from scheduled arrival (serve-mixed)";
    m "req_count" "count" ~better:Higher ~moves:"latency samples behind req_p50_ms and req_p95_ms";
    (* front end, translator, nvcc, module load *)
    m "harness.create_ms" "ms" ~moves:setup_moves;
    m "minic.parse_ms" "ms" ~moves:setup_moves;
    m "omp.rewrite_ms" "ms" ~moves:setup_moves;
    m "minic.typecheck_ms" "ms" ~moves:setup_moves;
    m "translator.translate_ms" "ms" ~moves:setup_moves;
    m "translator.kernels" "count" ~moves:setup_moves;
    m "nvcc.compile_ms" "ms" ~moves:setup_moves;
    m "nvcc.artifact_bytes" "bytes" ~moves:setup_moves;
    m "driver.load_ms" "ms" ~moves:setup_moves;
    m "driver.load_sim_ns" "sim_ns" ~moves:"sim_s on kernels-full (CUDA module loads)";
    m "hostrt.context_ms" "ms" ~moves:setup_moves;
    (* host data path *)
    m "harness.fill_ms" "ms" ~moves:data_moves;
    m "harness.readback_ms" "ms" ~moves:data_moves;
    m "harness.bytes" "bytes" ~moves:data_moves;
    m "driver.alloc_ms" "ms" ~moves:data_moves;
    m "driver.h2d_ms" "ms" ~moves:data_moves;
    m "driver.d2h_ms" "ms" ~moves:data_moves;
    m "driver.copy_bytes" "bytes" ~moves:data_moves;
    m "hostrt.offload_ms" "ms" ~moves:data_moves;
    m "hostrt.ompi_overhead_ms" "ms" ~moves:data_moves;
    m "gc.offload_alloc_mb" "MB" ~moves:data_moves;
    (* kernel execution and cost model *)
    m "driver.launch_ms" "ms" ~moves:kernel_moves;
    m "simt.launches" "count" ~moves:kernel_moves;
    m "simt.blocks" "count" ~moves:kernel_moves;
    m "simt.threads" "count" ~moves:kernel_moves;
    m "simt.thread_insts" "count" ~moves:kernel_moves;
    m "simt.ns_per_thread" "ns" ~moves:kernel_moves;
    m "simt.ns_per_inst" "ns" ~moves:kernel_moves;
    m "gc.launch_alloc_mb" "MB" ~moves:kernel_moves;
    m "costmodel.issue_cycles" "sim_cycles" ~moves:sim_moves;
    m "costmodel.mem_cycles" "sim_cycles" ~moves:sim_moves;
    m "costmodel.barrier_cycles" "sim_cycles" ~moves:sim_moves;
    (* memory policy *)
    m "dataenv.elided_h2d" "count" ~better:Higher ~moves:mem_moves;
    m "dataenv.elided_d2h" "count" ~better:Higher ~moves:mem_moves;
    m "dataenv.elided_pages" "count" ~better:Higher ~moves:mem_moves;
    (* serve *)
    m "serve.run_ms" "ms" ~moves:serve_moves;
    m "serve.host_ms_per_req" "ms" ~moves:serve_moves;
    m "serve.queue_depth_mean" "count" ~moves:serve_moves;
    m "serve.queue_depth_max" "count" ~moves:serve_moves;
    m "serve.env_hit_rate" "ratio" ~better:Higher ~moves:serve_moves;
    m "serve.env_lookups" "count" ~moves:"base of serve.env_hit_rate";
    m "serve.open_elisions" "count" ~better:Higher ~moves:serve_moves;
    (* simulated phases, from Perf.Trace spans of the traced passes *)
    m "sim.load_ns" "sim_ns" ~moves:phase_moves;
    m "sim.prep_ns" "sim_ns" ~moves:phase_moves;
    m "sim.launch_ns" "sim_ns" ~moves:phase_moves;
    m "sim.transfer_ns" "sim_ns" ~moves:phase_moves;
    m "sim.kernel_ns" "sim_ns" ~moves:phase_moves;
    (* coverage and tracing cost *)
    m "bench.check_ms" "ms" ~moves:"the benchmark's own output checks and digests";
    m "bench.unattributed_frac" "ratio" ~moves:"share of wall_s no top-level layer span covers";
    m "bench.trace_overhead_s" "s" ~moves:"traced wall_s minus untraced wall_s of the same run";
  ]
  @ List.concat_map
      (fun app ->
        List.map
          (fun v ->
            m (Printf.sprintf "harness.app_wall_ms.%s.%s" app v) "ms"
              ~moves:"wall_s on kernels-full and fig4-bigmap, per app: the worst app as well as the best")
          variant_names)
      app_names

let find name = List.find (fun x -> x.m_name = name) (end_to_end @ per_layer)

let better_name = function Lower -> "lower" | Higher -> "higher"
