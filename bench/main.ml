(* Benchmark harness: regenerates every figure of the paper's evaluation
   (Fig. 4a-f) plus ablations for the design choices discussed in the
   text, and a set of Bechamel micro-benchmarks of the infrastructure
   itself.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe -- fig4e   -- a single figure
     dune exec bench/main.exe -- ablate-binmode | ablate-masterworker |
                                 ablate-schedule | ablate-barrier |
                                 ablate-sections | micro
     dune exec bench/main.exe -- trace gemm 256 gemm.json
                                        -- one traced run + Chrome JSON
     dune exec bench/main.exe -- overlap [--smoke]
                                        -- target-nowait pipeline: async vs
                                           sync vs host, overlap evidence
     dune exec bench/main.exe -- autopolicy [--smoke]
                                        -- per-buffer auto policy vs forced
                                           copy / elide / zerocopy, bit-
                                           checked vs host, elision and
                                           map(always) ablation + fault cell
     dune exec bench/main.exe -- jit [--smoke]
                                        -- closure-JIT vs tree-walking
                                           interpreter wall clock, best
                                           and worst app; fails unless
                                           one app clears 3x
     dune exec bench/main.exe -- serve [--smoke]
                                        -- ompiserve under load: multi-
                                           stream vs serialized throughput,
                                           plus a fault-injected leg; every
                                           response bit-checked
     dune exec bench/main.exe -- reduction [--smoke]
                                        -- multi-team tree reduce vs a
                                           single-team serialized reduce,
                                           bit-checked against the order-
                                           exact host model + fault cells
     dune exec bench/main.exe -- multidev [--smoke]
                                        -- sharded distribute across 1/2/4
                                           device farms, bit-checked across
                                           farm sizes + a secondary-death
                                           fault cell; gates the 4-device
                                           gemm speedup at 1.5x

   Times are simulated seconds on the modelled Jetson Nano 2GB (see
   DESIGN.md for the substitution rules); shapes, not absolute values,
   are the reproduction target. *)

let say fmt = Printf.printf fmt

(* The self-checking modes share one scaffold: [check ok what] counts a
   failed check and reports [what] on a "  <prefix>: " line; [tally ok]
   counts a cell that already printed its own verdict; [verdict pass]
   ends the mode with "<bench>: FAIL (k check(s))" and exit 1, or with
   "<bench>: PASS<pass>". *)
type checks = { check : bool -> string -> unit; tally : bool -> unit; verdict : string -> unit }

let checks ?(prefix = "FAIL") bench =
  let failed = ref 0 in
  let tally ok = if not ok then incr failed in
  let check ok what =
    tally ok;
    if not ok then say "  %s: %s\n" prefix what
  in
  let verdict pass =
    if !failed > 0 then begin
      say "%s: FAIL (%d check(s))\n" bench !failed;
      exit 1
    end;
    say "%s: PASS%s\n" bench pass
  in
  { check; tally; verdict }

(* Each bench gated in CI writes one envelope to BENCH_<bench>.json:
   [bench], [smoke], [bit_identical] (its results matched their
   references bit for bit), [headlines] (the gated ratios, higher is
   better, each a [{metric, value}]) and [detail] (everything else it
   reports).  bench_regression reads only the envelope, so a new bench
   needs a baseline file and no gate code.  Numbers are rounded to the
   precision the bench prints them with. *)
let fixed digits x = float_of_string (Printf.sprintf "%.*f" digits x)

let num digits x = Perf.Json.Num (fixed digits x)

let int n = Perf.Json.Num (float_of_int n)

let write_bench ~bench ~smoke ~bit_identical ~headlines detail =
  let open Perf.Json in
  let file = "BENCH_" ^ bench ^ ".json" in
  let headline (metric, value) = Obj [ ("metric", Str metric); ("value", Num value) ] in
  let fields =
    [
      ("bench", Str bench);
      ("smoke", Bool smoke);
      ("bit_identical", Bool bit_identical);
      ("headlines", List (List.map headline headlines));
      ("detail", Obj detail);
    ]
  in
  (* one top-level field per line keeps baseline diffs readable *)
  let line (k, v) = "  " ^ to_string (Str k) ^ ": " ^ to_string v in
  let oc = open_out file in
  output_string oc ("{\n" ^ String.concat ",\n" (List.map line fields) ^ "\n}\n");
  close_out oc;
  say "  [written: %s]\n" file

let rules_of spec =
  match Hostrt.Faults.parse spec with
  | Ok rules -> rules
  | Error msg -> failwith (Printf.sprintf "bad fault spec '%s': %s" spec msg)

(* ------------------------------------------------------------------ *)
(* Figures 4a-4f                                                        *)
(* ------------------------------------------------------------------ *)

(* Per-app block-sampling caps, tuned so the whole sweep stays within
   minutes of wall time while simulating >= 1 block per launch. *)
let sample_blocks_for (app : Polybench.Suite.app) =
  match app.Polybench.Suite.ap_name with "gramschmidt" -> Some 1 | _ -> Some 2

let run_figure (app : Polybench.Suite.app) =
  let t0 = Unix.gettimeofday () in
  let fig = Polybench.Suite.figure app ~sample_blocks:(sample_blocks_for app) () in
  Perf.Report.print_figure fig;
  (match Perf.Report.max_relative_gap fig with
  | Some (size, gap) -> say "  max CUDA-vs-OMPi gap: %.1f%% (at size %d)\n" (gap *. 100.0) size
  | None -> ());
  say "  [harness wall time: %.1fs]\n" (Unix.gettimeofday () -. t0);
  fig

let figure_by_id id = List.find_opt (fun a -> a.Polybench.Suite.ap_figure = id) Polybench.Suite.all

(* ------------------------------------------------------------------ *)
(* A1: PTX + JIT (cold / warm disk cache) vs CUBIN (paper §3.3)         *)
(* ------------------------------------------------------------------ *)

let saxpy_source =
  {|
void saxpy(int n, int teams, float alpha, float x[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      map(to: n, alpha, x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = alpha * x[i] + y[i];
}
|}

let ablate_binmode () =
  say "\n=== A1: kernel binary mode — PTX/JIT vs CUBIN (paper section 3.3) ===\n";
  say "%-28s %14s %14s\n" "configuration" "1st launch (s)" "2nd launch (s)";
  let shared_jit_cache = ref None in
  let run mode ~reuse_cache =
    let ctx =
      Polybench.Harness.create ~config:{ Hostrt.Rt.default_config with binary_mode = mode } ()
    in
    (match (reuse_cache, !shared_jit_cache) with
    | true, Some cache ->
      (* simulate the CUDA disk cache persisting across process runs *)
      let d = Polybench.Harness.driver ctx in
      Hashtbl.iter (fun k v -> Hashtbl.replace d.Gpusim.Driver.jit_cache k v) cache
    | _ -> ());
    let n = 4096 in
    let x = Polybench.Harness.alloc_f32 ctx n and y = Polybench.Harness.alloc_f32 ctx n in
    Polybench.Harness.fill_f32 ctx x n float_of_int;
    let p = Polybench.Harness.prepare_omp ctx ~name:"saxpy" saxpy_source in
    let args = Polybench.Harness.[ vint n; vint 32; vf32 2.0; fptr x; fptr y ] in
    let t1 = Polybench.Harness.measure ctx (fun () -> Polybench.Harness.call_omp p "saxpy" args) in
    let t2 = Polybench.Harness.measure ctx (fun () -> Polybench.Harness.call_omp p "saxpy" args) in
    let d = Polybench.Harness.driver ctx in
    shared_jit_cache := Some (Hashtbl.copy d.Gpusim.Driver.jit_cache);
    (t1, t2)
  in
  let t1, t2 = run Gpusim.Nvcc.Ptx ~reuse_cache:false in
  say "%-28s %14.6f %14.6f\n" "PTX (JIT, cold cache)" t1 t2;
  let t1, t2 = run Gpusim.Nvcc.Ptx ~reuse_cache:true in
  say "%-28s %14.6f %14.6f\n" "PTX (JIT, warm disk cache)" t1 t2;
  let t1, t2 = run Gpusim.Nvcc.Cubin ~reuse_cache:false in
  say "%-28s %14.6f %14.6f\n" "CUBIN (OMPi default)" t1 t2

(* ------------------------------------------------------------------ *)
(* A2: master/worker vs combined-construct lowering (§3.1 vs §3.2)      *)
(* ------------------------------------------------------------------ *)

let mw_vs_combined_source =
  {|
void scale_combined(int n, int teams, float x[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++)
    x[i] = x[i] * 2.0f + 1.0f;
}

void scale_mw(int n, float x[])
{
  #pragma omp target map(to: n) map(tofrom: x[0:n])
  {
    #pragma omp parallel for
    for (int i = 0; i < n; i++)
      x[i] = x[i] * 2.0f + 1.0f;
  }
}
|}

let ablate_masterworker () =
  say "\n=== A2: combined construct vs master/worker scheme on one loop ===\n";
  say "(the combined form spreads work over the whole grid; a standalone\n";
  say " parallel region runs on a single 128-thread block with 96 workers)\n";
  say "%-8s %18s %18s %8s  (kernel time only, transfers excluded)\n" "n" "combined (s)"
    "master/worker (s)" "ratio";
  List.iter
    (fun n ->
      let ctx = Polybench.Harness.create () in
      let p = Polybench.Harness.prepare_omp ctx ~name:"scale" mw_vs_combined_source in
      let x = Polybench.Harness.alloc_f32 ctx n in
      Polybench.Harness.fill_f32 ctx x n float_of_int;
      let teams = (n + 127) / 128 in
      let kernel_time () =
        match (Polybench.Harness.driver ctx).Gpusim.Driver.launches with
        | s :: _ -> s.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_time_ns *. 1e-9
        | [] -> nan
      in
      Polybench.Harness.(call_omp p "scale_combined" [ vint n; vint teams; fptr x ]);
      let tc = kernel_time () in
      Polybench.Harness.(call_omp p "scale_mw" [ vint n; fptr x ]);
      let tm = kernel_time () in
      say "%-8d %18.6f %18.6f %8.1f\n" n tc tm (tm /. tc))
    [ 4096; 16384; 65536 ]

(* ------------------------------------------------------------------ *)
(* A3: loop schedules on an imbalanced (triangular) loop (§4.2.2)       *)
(* ------------------------------------------------------------------ *)

let schedule_source sched =
  Printf.sprintf
    {|
void tri(int n, float x[])
{
  #pragma omp target teams distribute parallel for num_teams(1) num_threads(128) \
      schedule(%s) map(to: n) map(tofrom: x[0:n])
  for (int i = 0; i < n; i++) {
    float s = 0.0f;
    for (int j = 0; j < i; j++)
      s += j * 0.5f;
    x[i] = s;
  }
}
|}
    sched

let ablate_schedule () =
  say "\n=== A3: schedule clause on a triangular loop (single team, 128 threads) ===\n";
  say "%-20s %14s\n" "schedule" "time (s)";
  List.iter
    (fun sched ->
      let ctx = Polybench.Harness.create () in
      let p = Polybench.Harness.prepare_omp ctx ~name:"tri" (schedule_source sched) in
      let n = 4096 in
      let x = Polybench.Harness.alloc_f32 ctx n in
      let t =
        Polybench.Harness.measure ctx (fun () ->
            Polybench.Harness.(call_omp p "tri" [ vint n; fptr x ]))
      in
      say "%-20s %14.6f\n" sched t)
    [ "static"; "static, 16"; "dynamic, 16"; "guided, 16" ]

(* ------------------------------------------------------------------ *)
(* A4: named-barrier rounding X = W ceil(N/W) (§4.2.2)                  *)
(* ------------------------------------------------------------------ *)

let barrier_source nt =
  Printf.sprintf
    {|
void barbench(int iters, float x[])
{
  #pragma omp target map(to: iters) map(tofrom: x[0:128])
  {
    #pragma omp parallel num_threads(%d)
    {
      for (int it = 0; it < iters; it++) {
        x[omp_get_thread_num()] += 1.0f;
        #pragma omp barrier
      }
    }
  }
}
|}
    nt

let ablate_barrier () =
  say "\n=== A4: barrier with N participants -> bar.sync over X = 32*ceil(N/32) ===\n";
  say "(barrier cycles depend on the rounded warp count X/32, not on N)\n";
  say "%-6s %-6s %14s %16s\n" "N" "X" "time (s)" "barrier cycles";
  List.iter
    (fun nt ->
      let ctx = Polybench.Harness.create () in
      let p = Polybench.Harness.prepare_omp ctx ~name:"barbench" (barrier_source nt) in
      let x = Polybench.Harness.alloc_f32 ctx 128 in
      let t =
        Polybench.Harness.measure ctx (fun () ->
            Polybench.Harness.(call_omp p "barbench" [ vint 2000; fptr x ]))
      in
      let barrier_cycles =
        match (Polybench.Harness.driver ctx).Gpusim.Driver.launches with
        | s :: _ -> s.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_barrier_cycles
        | [] -> nan
      in
      say "%-6d %-6d %14.6f %16.0f\n" nt
        (Gpusim.Spec.barrier_round Gpusim.Spec.jetson_nano_2gb nt)
        t barrier_cycles)
    [ 32; 33; 64; 65; 96 ]

(* ------------------------------------------------------------------ *)
(* A5: sections anti-divergence assignment (§4.2.2)                     *)
(* ------------------------------------------------------------------ *)

let sections_source =
  {|
void secbench(int n, float x[])
{
  #pragma omp target map(to: n) map(tofrom: x[0:16])
  {
    #pragma omp parallel num_threads(96)
    {
      #pragma omp sections
      {
        #pragma omp section
        { for (int i = 0; i < n; i++) x[0] += 1.0f; }
        #pragma omp section
        { for (int i = 0; i < n; i++) x[1] += 1.0f; }
        #pragma omp section
        { for (int i = 0; i < n; i++) x[2] += 1.0f; }
      }
    }
  }
}
|}

let ablate_sections () =
  say "\n=== A5: sections assignment policy (anti-divergence vs naive counter) ===\n";
  say "(same-warp grants serialise the sections under SIMT on real hardware;\n";
  say " the paper's policy spreads them over one leader lane per warp)\n";
  say "%-28s %14s %18s\n" "policy" "time (s)" "same-warp grants";
  List.iter
    (fun (label, anti) ->
      Devrt.Config.sections_anti_divergence := anti;
      Devrt.Config.reset_sections_stats ();
      let ctx = Polybench.Harness.create () in
      let p = Polybench.Harness.prepare_omp ctx ~name:"secbench" sections_source in
      let x = Polybench.Harness.alloc_f32 ctx 16 in
      let t =
        Polybench.Harness.measure ctx (fun () ->
            Polybench.Harness.(call_omp p "secbench" [ vint 20000; fptr x ]))
      in
      say "%-28s %14.6f %11d of %-4d\n" label t !Devrt.Config.sections_same_warp_grants
        !Devrt.Config.sections_total_grants)
    [ ("different warps (paper)", true); ("naive shared counter", false) ];
  Devrt.Config.sections_anti_divergence := true

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the infrastructure                      *)
(* ------------------------------------------------------------------ *)

let micro () =
  say "\n=== micro: infrastructure benchmarks (real wall time, Bechamel) ===\n";
  let open Bechamel in
  let translate_saxpy =
    Test.make ~name:"translate saxpy (parse+pragma+typecheck+outline)"
      (Staged.stage (fun () -> ignore (Ompi.compile ~name:"saxpy" saxpy_source)))
  in
  let simulate_block =
    let ctx = Polybench.Harness.create () in
    let p = Polybench.Harness.prepare_omp ctx ~name:"saxpy" saxpy_source in
    let n = 1024 in
    let x = Polybench.Harness.alloc_f32 ctx n and y = Polybench.Harness.alloc_f32 ctx n in
    Test.make ~name:"simulate saxpy kernel (1024 GPU threads)"
      (Staged.stage (fun () ->
           Polybench.Harness.(call_omp p "saxpy" [ vint n; vint 8; vf32 2.0; fptr x; fptr y ])))
  in
  let parse_only =
    Test.make ~name:"parse+pretty gemm OpenMP source"
      (Staged.stage (fun () ->
           let prog = Minic.Parser.parse_program Polybench.Gemm.omp_source in
           ignore (Minic.Pretty.program_to_string prog)))
  in
  let benchmark test =
    let quota = Time.second 0.5 in
    let cfg = Benchmark.cfg ~limit:200 ~quota ~kde:None () in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let measures = Benchmark.all cfg instances test in
    let results =
      Analyze.all
        (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
        Toolkit.Instance.monotonic_clock measures
    in
    Hashtbl.iter
      (fun name result ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> say "%-52s %14.1f ns/run\n" name est
        | _ -> say "%-52s %14s\n" name "n/a")
      results
  in
  List.iter benchmark [ translate_saxpy; simulate_block; parse_only ]

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let extras () =
  say "\nExtra Unibench applications (beyond the paper's six plots):\n";
  List.iter (fun app -> ignore (run_figure app)) Polybench.Suite.extras

let all_figures () =
  say "Reproduction of ICPP'22 \"OpenMP Offloading in the Jetson Nano Platform\", Fig. 4\n";
  say "(simulated Jetson Nano 2GB; times are simulated seconds; see EXPERIMENTS.md)\n";
  let figs = List.map run_figure Polybench.Suite.all in
  say "\n--- CSV dump ---\n";
  List.iter (Perf.Report.print_csv ~oc:stdout) figs

(* Run one suite application with launch-phase tracing attached and
   write the Chrome-trace JSON: `trace <app> <n> <file>`. *)
let trace_app name n file =
  match Polybench.Suite.find name with
  | None ->
    prerr_endline ("trace: unknown application: " ^ name);
    prerr_endline
      ("  known: "
      ^ String.concat ", "
          (List.map
             (fun a -> a.Polybench.Suite.ap_name)
             (Polybench.Suite.all @ Polybench.Suite.extras)));
    exit 2
  | Some app ->
    let ctx = Polybench.Harness.create () in
    Polybench.Harness.set_sampling ctx None;
    Polybench.Harness.set_translated_penalty ctx app.Polybench.Suite.ap_penalty;
    let tr = Polybench.Harness.enable_trace ctx in
    let time, _ = app.Polybench.Suite.ap_run ctx Polybench.Harness.Ompi_cudadev ~n in
    Perf.Chrome_trace.write_file file tr;
    say "%s n=%d (OMPi CUDADEV): %.6f simulated seconds\n" name n time;
    say "trace: %d events written to %s (Chrome trace format)\n" (Perf.Trace.length tr) file;
    Perf.Report.print_trace_summary tr

(* ------------------------------------------------------------------ *)
(* Overlap: transfer/compute pipelines with target nowait on streams    *)
(* ------------------------------------------------------------------ *)

(* What recovery evidence a fault plan must leave in the trace. *)
type fault_expectation =
  | Recover (* retries succeed: backoff events, no fallback, device alive *)
  | Fallback (* device declared dead: host fallback produced the result *)

(* A tiled matrix-vector pipeline (atax-style): every tile maps its own
   slab of A in, runs a matvec over it, and maps its slice of y out.
   With `nowait` the tiles spread over the stream pool and tile t+1's
   HtoD runs on the copy engine while tile t computes; without it the
   same program is the fully synchronous baseline.  Tile bases are
   pointer locals because array sections must start at offset 0. *)
let pipeline_source ~nowait =
  Printf.sprintf
    {|
void pipeline(int n, int rows, int tiles, float A[], float x[], float y[])
{
  #pragma omp target data map(to: x[0:n], n, rows)
  {
    for (int t = 0; t < tiles; t++) {
      float *At = A + t * rows * n;
      float *yt = y + t * rows;
      #pragma omp target teams distribute parallel for %s num_teams(1) num_threads(128) \
          map(to: n, rows, At[0:rows*n], x[0:n]) map(from: yt[0:rows])
      for (int i = 0; i < rows; i++) {
        float s = 0.0f;
        for (int j = 0; j < n; j++)
          s += At[i * n + j] * x[j];
        yt[i] = s;
      }
    }
    #pragma omp taskwait
  }
}
|}
    (if nowait then "nowait" else "")

type overlap_mode =
  | Ov_async of int (* nowait tiles over a pool of this many streams *)
  | Ov_sync (* same program without nowait *)
  | Ov_host (* directives stripped, sequential host reference *)

let run_pipeline ?(trace = false) ?(faults = []) mode ~n ~rows ~tiles =
  let streams =
    match mode with Ov_async s -> s | Ov_sync | Ov_host -> Hostrt.Rt.default_config.streams
  in
  let ctx =
    Polybench.Harness.create
      ~config:{ Hostrt.Rt.default_config with streams; faults; fault_seed = 7 }
      ()
  in
  Polybench.Harness.set_sampling ctx None;
  let tr = if trace then Some (Polybench.Harness.enable_trace ctx) else None in
  let total = tiles * rows in
  let a = Polybench.Harness.alloc_f32 ctx (total * n) in
  let x = Polybench.Harness.alloc_f32 ctx n in
  let y = Polybench.Harness.alloc_f32 ctx total in
  Polybench.Harness.fill_f32 ctx a (total * n) (fun i -> float_of_int ((i mod 13) - 6) *. 0.25);
  Polybench.Harness.fill_f32 ctx x n (fun i -> float_of_int ((i mod 7) - 3) *. 0.5);
  Polybench.Harness.fill_f32 ctx y total (fun _ -> 0.0);
  let nowait = match mode with Ov_async _ -> true | Ov_sync | Ov_host -> false in
  let p =
    Polybench.Harness.prepare_omp ~host_interp:(mode = Ov_host) ctx ~name:"pipeline"
      (pipeline_source ~nowait)
  in
  let t =
    Polybench.Harness.measure ctx (fun () ->
        Polybench.Harness.(
          call_omp p "pipeline" [ vint n; vint rows; vint tiles; fptr a; fptr x; fptr y ]))
  in
  (t, Polybench.Harness.read_f32_array ctx y total, tr, ctx)

(* Pairs of cat:"async" Complete intervals on DIFFERENT stream
   timelines (tid) whose time ranges intersect: the visible witness of
   transfer/compute overlap. *)
let count_overlapping_pairs tr =
  let intervals =
    List.filter_map
      (fun (e : Perf.Trace.event) ->
        if e.ev_kind = Perf.Trace.Complete then
          Some (e.ev_tid, e.ev_ts_ns, e.ev_ts_ns +. e.ev_dur_ns)
        else None)
      (Perf.Trace.find_events tr ~cat:"async" ())
  in
  let rec go acc = function
    | [] -> acc
    | (tid, s, e) :: rest ->
      let here =
        List.length (List.filter (fun (tid', s', e') -> tid' <> tid && s < e' && s' < e) rest)
      in
      go (acc + here) rest
  in
  go 0 intervals

let fault_count tr name = Perf.Trace.count_events tr ~cat:"fault" ~name ()

(* Faults landing in queued stream work: recovery must neither change
   the answer nor leave async state behind. *)
let overlap_fault_cell ~n ~rows ~tiles (y_ref : float array) (spec, expect) : bool =
  let _, y, tr, ctx =
    run_pipeline ~trace:true ~faults:(rules_of spec) (Ov_async 4) ~n ~rows ~tiles
  in
  let count = fault_count (Option.get tr) in
  let correct = y = y_ref in
  let injected = count "fault_injected" in
  let evidence_ok =
    match expect with
    | Recover ->
      injected >= 1 && count "retry_backoff" >= 1 && count "host_fallback" = 0
      && not (Polybench.Harness.device_dead ctx)
    | Fallback ->
      injected >= 1 && count "host_fallback" >= 1 && Polybench.Harness.device_dead ctx
  in
  let ok = correct && evidence_ok in
  say "  fault %-18s %-9s inj=%-3d %s\n" spec
    (match expect with Recover -> "recover" | Fallback -> "fallback")
    injected
    (if ok then "ok" else if correct then "FAIL(no evidence)" else "FAIL(wrong result)");
  ok

let overlap ~smoke () =
  say "=== overlap: target nowait pipeline, async vs sync vs host reference ===\n";
  say "(tiled matvec, rows x n per tile; times are simulated seconds)\n";
  (* One row per device thread: 128 rows of 64 columns keeps the tile's
     matvec time close to its 32 KiB HtoD time, which is where a
     double-buffered pipeline pays off most. *)
  let n = 64 and rows = 128 in
  let { check; tally; verdict } = checks "overlap" in
  let row ?(streams = 4) ~assertive tiles =
    let _, y_host, _, _ = run_pipeline Ov_host ~n ~rows ~tiles in
    let t_sync, y_sync, _, _ = run_pipeline Ov_sync ~n ~rows ~tiles in
    let t_async, y_async, tr, _ = run_pipeline ~trace:true (Ov_async streams) ~n ~rows ~tiles in
    (match Sys.getenv_opt "OVERLAP_TRACE" with
    | Some file -> Perf.Chrome_trace.write_file file (Option.get tr)
    | None -> ());
    let pairs = count_overlapping_pairs (Option.get tr) in
    let identical = y_async = y_sync && y_sync = y_host in
    let speedup = t_sync /. t_async in
    say "  tiles=%-3d streams=%-2d sync=%.6f async=%.6f speedup=%.2fx overlap-pairs=%-3d %s\n"
      tiles streams t_sync t_async speedup pairs
      (if identical then "bit-identical" else "RESULTS DIFFER");
    check identical (Printf.sprintf "tiles=%d streams=%d: async/sync/host results differ" tiles streams);
    if assertive then begin
      check (speedup > 1.1) (Printf.sprintf "tiles=%d: speedup %.2fx <= 1.1x" tiles speedup);
      check (pairs >= 1) (Printf.sprintf "tiles=%d: no overlapping async intervals in trace" tiles)
    end;
    y_host
  in
  let y_ref =
    if smoke then row ~assertive:true 6
    else begin
      ignore (row ~assertive:false 2);
      ignore (row ~assertive:false 4);
      let y_ref = row ~assertive:true 8 in
      ignore (row ~assertive:false 16);
      say "  -- stream-pool ablation at tiles=8 (1 stream serializes, no overlap) --\n";
      ignore (row ~streams:1 ~assertive:false 8);
      ignore (row ~streams:2 ~assertive:false 8);
      ignore (row ~streams:8 ~assertive:false 8);
      y_ref
    end
  in
  say "  -- faults injected into queued stream work (differential vs host) --\n";
  let tiles = if smoke then 6 else 8 in
  List.iter
    (fun cell -> tally (overlap_fault_cell ~n ~rows ~tiles y_ref cell))
    [ ("launch:nth=2", Recover); ("transfer:from=3", Fallback) ];
  verdict ""

(* ------------------------------------------------------------------ *)
(* autopolicy: per-buffer policy vs each forced memory mode (unified   *)
(* DRAM: copy, transfer elision, zero-copy)                             *)
(* ------------------------------------------------------------------ *)

(* The suite's ap_run entry points allocate fresh host arrays per call,
   which hides exactly what elision exploits: a host working set that is
   offloaded repeatedly.  So each cell here allocates its arrays once
   and replays the app's translated entry point [iters] times — the
   shape of an iterative solver calling an offloaded step in a loop. *)

type ms_app = {
  ms_name : string;
  ms_source : string;
  ms_entry : string;
  (* allocate + fill persistent host arrays; returns the call arguments
     and the (address, length) ranges holding the results *)
  ms_setup : Polybench.Harness.ctx -> n:int -> Machine.Value.t list * (Machine.Addr.t * int) list;
}

(* One extra micro-app with a read-only tofrom mapping: the kernel never
   writes [a], so under elision its copy-back disappears (the visible
   elided-D2H case; the suite apps only exercise elided H2D). *)
let readscale_source =
  {|
void readscale(int n, int teams, float a[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(64) \
      map(tofrom: a[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = a[i] * 2.0f + y[i] * 0.5f;
}
|}

(* Same program with map(always, ...): forces every transfer, the
   opt-out that must neutralize elision. *)
let readscale_always_source =
  {|
void readscale(int n, int teams, float a[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(64) \
      map(always, to: n) map(always, tofrom: a[0:n]) map(always, tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = a[i] * 2.0f + y[i] * 0.5f;
}
|}

let ms_apps =
  let open Polybench.Harness in
  let teams_of n = (n + 255) / 256 in
  [
    {
      ms_name = "atax";
      ms_source = Polybench.Atax.omp_source;
      ms_entry = "atax_omp";
      ms_setup =
        (fun ctx ~n ->
          let a = alloc_f32 ctx (n * n) and x = alloc_f32 ctx n in
          let y = alloc_f32 ctx n and tmp = alloc_f32 ctx n in
          fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 17) - 8) /. 32.0);
          fill_f32 ctx x n (fun i -> 1.0 +. (float_of_int (i mod 5) /. 5.0));
          fill_f32 ctx y n (fun _ -> 0.0);
          fill_f32 ctx tmp n (fun _ -> 0.0);
          ([ vint n; vint (teams_of n); fptr a; fptr x; fptr y; fptr tmp ], [ (y, n) ]));
    };
    {
      ms_name = "bicg";
      ms_source = Polybench.Bicg.omp_source;
      ms_entry = "bicg_omp";
      ms_setup =
        (fun ctx ~n ->
          let a = alloc_f32 ctx (n * n) and r = alloc_f32 ctx n and p = alloc_f32 ctx n in
          let s = alloc_f32 ctx n and q = alloc_f32 ctx n in
          fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 13) - 6) /. 26.0);
          fill_f32 ctx r n (fun i -> float_of_int (i mod 7) /. 7.0);
          fill_f32 ctx p n (fun i -> float_of_int (i mod 3) /. 3.0);
          fill_f32 ctx s n (fun _ -> 0.0);
          fill_f32 ctx q n (fun _ -> 0.0);
          ([ vint n; vint (teams_of n); fptr a; fptr r; fptr p; fptr s; fptr q ], [ (s, n); (q, n) ]));
    };
    {
      ms_name = "mvt";
      ms_source = Polybench.Mvt.omp_source;
      ms_entry = "mvt_omp";
      ms_setup =
        (fun ctx ~n ->
          let a = alloc_f32 ctx (n * n) in
          let x1 = alloc_f32 ctx n and x2 = alloc_f32 ctx n in
          let y1 = alloc_f32 ctx n and y2 = alloc_f32 ctx n in
          fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 11) - 5) /. 22.0);
          fill_f32 ctx x1 n (fun i -> float_of_int (i mod 4) /. 4.0);
          fill_f32 ctx x2 n (fun i -> float_of_int (i mod 6) /. 6.0);
          fill_f32 ctx y1 n (fun i -> float_of_int (i mod 9) /. 9.0);
          fill_f32 ctx y2 n (fun i -> float_of_int (i mod 8) /. 8.0);
          ( [ vint n; vint (teams_of n); fptr a; fptr x1; fptr x2; fptr y1; fptr y2 ],
            [ (x1, n); (x2, n) ] ));
    };
    {
      ms_name = "readscale";
      ms_source = readscale_source;
      ms_entry = "readscale";
      ms_setup =
        (fun ctx ~n ->
          let a = alloc_f32 ctx n and y = alloc_f32 ctx n in
          fill_f32 ctx a n (fun i -> float_of_int ((i mod 19) - 9) /. 19.0);
          fill_f32 ctx y n (fun i -> float_of_int (i mod 5) /. 5.0);
          ([ vint n; vint ((n + 63) / 64); fptr a; fptr y ], [ (y, n) ]));
    };
  ]

(* [Ms_host] runs the sequential host interpreter (the reference);
   [Ms_mode sel] offloads with every device in memory mode [sel]. *)
type ms_variant = Ms_host | Ms_mode of Hostrt.Mempolicy.sel

let run_mem_variant ?(trace = false) ?(faults = []) ?(source = None) (app : ms_app) ~n ~iters
    variant =
  let mem_policy =
    match variant with Ms_mode sel -> sel | Ms_host -> Hostrt.Rt.default_config.mem_policy
  in
  let ctx =
    Polybench.Harness.create
      ~config:{ Hostrt.Rt.default_config with mem_policy; faults; fault_seed = 7 }
      ()
  in
  (* block-sampled launches conservatively dirty the device write epoch,
     so elision is only meaningful (and only measured) unsampled *)
  Polybench.Harness.set_sampling ctx None;
  let tr = if trace then Some (Polybench.Harness.enable_trace ctx) else None in
  let args, outs = app.ms_setup ctx ~n in
  let source = Option.value source ~default:app.ms_source in
  let p =
    Polybench.Harness.prepare_omp ~host_interp:(variant = Ms_host) ctx ~name:app.ms_name source
  in
  let t =
    Polybench.Harness.measure ctx (fun () ->
        for _ = 1 to iters do
          Polybench.Harness.call_omp p app.ms_entry args
        done)
  in
  let result =
    Array.concat (List.map (fun (a, len) -> Polybench.Harness.read_f32_array ctx a len) outs)
  in
  (t, result, tr, ctx)

(* The elided-path fault cell: a launch fault injected into the second
   (fast-path, transfer-elided) iteration must retry and still produce
   bit-identical data. *)
let elided_fault_cell app ~n ~iters (r_ref : float array) : bool =
  let _, r, tr, ctx =
    run_mem_variant ~trace:true ~faults:(rules_of "launch:nth=2") app ~n ~iters
      (Ms_mode (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide))
  in
  let st = Polybench.Harness.mem_stats ctx in
  let correct = r = r_ref in
  let retried = fault_count (Option.get tr) "retry_backoff" >= 1 in
  let elided = st.Hostrt.Dataenv.elided_h2d >= 1 in
  let ok = correct && retried && elided && not (Polybench.Harness.device_dead ctx) in
  say "  fault %-10s launch:nth=2 retried=%b elided-h2d=%d %s\n" app.ms_name retried
    st.Hostrt.Dataenv.elided_h2d
    (if ok then "ok" else if correct then "FAIL(no evidence)" else "FAIL(wrong result)");
  ok

(* A region with deliberately mixed buffer temperatures: [a] is a hot
   read-only matrix (history should converge on elide — park it on the
   device and never re-transfer), while [y] is rewritten by the device
   every iteration, so its round trips are cheapest pinned in place
   (zerocopy).  No single forced mode serves both buffers. *)
let hotcold_source =
  {|
void hotcold(int n, int teams, float a[], float y[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(64) \
      map(to: a[0:n*n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++) {
    float s = 0.0f;
    for (int j = 0; j < n; j++)
      s += a[i * n + j] * (1.0f + (float)(j % 3));
    y[i] = y[i] * 0.5f + s;
  }
}
|}

let hotcold_app =
  let open Polybench.Harness in
  {
    ms_name = "hotcold";
    ms_source = hotcold_source;
    ms_entry = "hotcold";
    ms_setup =
      (fun ctx ~n ->
        let a = alloc_f32 ctx (n * n) and y = alloc_f32 ctx n in
        fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 23) - 11) /. 46.0);
        fill_f32 ctx y n (fun i -> float_of_int (i mod 7) /. 7.0);
        (* enough teams to keep >=8 warps resident: at low occupancy the
           latency model makes every global access so expensive that
           pinning is the best mode for every buffer and no mixed
           assignment could win *)
        ([ vint n; vint 4; fptr a; fptr y ], [ (y, n) ]));
  }

let autopolicy ~smoke () =
  say "=== autopolicy: trace-informed per-buffer policy vs hand-forced modes ===\n";
  let n = if smoke then 32 else 96 in
  let iters = if smoke then 3 else 4 in
  say "(each app: persistent host arrays, %d offloaded iterations at n=%d; simulated seconds)\n"
    iters n;
  let { check; tally; verdict } = checks "autopolicy" in
  let rows = ref [] and headlines = ref [] and all_identical = ref true in
  let modes_str ctx =
    match Polybench.Harness.policy_modes_used ctx with
    | [] -> "none"
    | ms -> String.concat "+" (List.map Hostrt.Mempolicy.mode_name ms)
  in
  (* One app under the host reference and every memory mode: prints its
     rows, checks what every app must show (bit-identity, elision and
     zero-copy at work, elision faster than copy) and records its
     headlines and detail row; returns the times and the auto run's
     context. *)
  let run_all ?(iters = iters) app =
    let run ?trace v = run_mem_variant ?trace app ~n ~iters v in
    let forced m = Ms_mode (Hostrt.Mempolicy.Forced m) in
    let _, r_host, _, _ = run Ms_host in
    let t_copy, r_copy, _, _ = run (forced Hostrt.Mempolicy.Copy) in
    let t_elide, r_elide, _, ctx_elide = run (forced Hostrt.Mempolicy.Elide) in
    let t_zc, r_zc, _, ctx_zc = run (forced Hostrt.Mempolicy.Zerocopy) in
    let t_auto, r_auto, tr_auto, ctx_auto = run ~trace:true (Ms_mode Hostrt.Mempolicy.Auto) in
    let identical = r_copy = r_host && r_elide = r_host && r_zc = r_host && r_auto = r_host in
    let st_e = Polybench.Harness.mem_stats ctx_elide in
    let st_z = Polybench.Harness.mem_stats ctx_zc in
    let sp_auto = t_copy /. t_auto and sp_e = t_copy /. t_elide and sp_z = t_copy /. t_zc in
    let vs_best = t_auto /. Float.min t_copy (Float.min t_elide t_zc) in
    say
      "  %-10s auto=%.6f copy=%.6f elide=%.6f zerocopy=%.6f (%.2fx vs copy, %.2f of best, modes \
       %s) %s\n"
      app.ms_name t_auto t_copy t_elide t_zc sp_auto vs_best (modes_str ctx_auto)
      (if identical then "bit-identical" else "RESULTS DIFFER");
    say "             elide %.2fx (h2d-elided=%d d2h-elided=%d), zerocopy %.2fx (%d accesses)\n"
      sp_e st_e.Hostrt.Dataenv.elided_h2d st_e.Hostrt.Dataenv.elided_d2h sp_z
      st_z.Hostrt.Dataenv.zerocopy_accesses;
    List.iter
      (fun ((off, bytes), row) ->
        say "      0x%x+%-6d %s\n" off bytes
          (String.concat ", " (List.map (fun (m, k) -> Printf.sprintf "%s x%d" m k) row)))
      (Polybench.Harness.policy_decisions ctx_auto);
    check identical (app.ms_name ^ ": auto/copy/elide/zerocopy/host results differ");
    check
      (st_e.Hostrt.Dataenv.elided_h2d >= 1 || st_e.Hostrt.Dataenv.elided_d2h >= 1)
      (app.ms_name ^ ": elision variant elided nothing");
    check (st_z.Hostrt.Dataenv.zerocopy_accesses >= 1) (app.ms_name ^ ": no zero-copy accesses");
    check (sp_e > 1.0)
      (Printf.sprintf "%s: elision speedup %.3fx <= 1.0x over always-copy" app.ms_name sp_e);
    (match Sys.getenv_opt "AUTOPOLICY_TRACE" with
    | Some file when app.ms_name = "atax" -> Perf.Chrome_trace.write_file file (Option.get tr_auto)
    | _ -> ());
    headlines :=
      !headlines
      @ [
          (app.ms_name ^ ".speedup_elide", fixed 4 sp_e);
          (app.ms_name ^ ".speedup_auto", fixed 4 sp_auto);
        ];
    all_identical := !all_identical && identical;
    rows :=
      Perf.Json.(
        Obj
          [
            ("app", Str app.ms_name);
            ("t_copy_s", num 9 t_copy);
            ("t_elide_s", num 9 t_elide);
            ("t_zerocopy_s", num 9 t_zc);
            ("t_auto_s", num 9 t_auto);
            ("auto_vs_best", num 4 vs_best);
            ("speedup_zerocopy", num 4 sp_z);
            ("elided_h2d", int st_e.Hostrt.Dataenv.elided_h2d);
            ("elided_d2h", int st_e.Hostrt.Dataenv.elided_d2h);
            ("zerocopy_accesses", int st_z.Hostrt.Dataenv.zerocopy_accesses);
            ("modes", Str (modes_str ctx_auto));
            ("bit_identical", Bool identical);
          ])
      :: !rows;
    (t_copy, t_elide, t_zc, t_auto, vs_best, ctx_auto)
  in
  let ge13 = ref 0 in
  List.iter
    (fun app ->
      let t_copy, _, _, t_auto, vs_best, _ = run_all app in
      if t_copy /. t_auto >= 1.3 then incr ge13;
      check (vs_best <= 1.10)
        (Printf.sprintf "%s: auto %.6fs is %.2fx the best forced mode, above the 10%% budget"
           app.ms_name t_auto vs_best))
    ms_apps;
  check (!ge13 >= 2)
    (Printf.sprintf "auto beat forced-copy by >=1.3x on only %d app(s), need >=2" !ge13);
  (* mixed temperatures in one region: auto must pick different modes for
     different buffers and beat every single-mode forcing outright *)
  say "  -- hotcold: mixed buffer temperatures in one target region --\n";
  (* twice the iterations: the steady-state gains of the per-buffer mix
     must outweigh the first cold cycle's conservative choices *)
  let t_copy, t_elide, t_zc, t_auto, _, ctx_auto = run_all ~iters:(2 * iters) hotcold_app in
  check
    (List.length (Polybench.Harness.policy_modes_used ctx_auto) >= 2)
    "hotcold: auto used fewer than 2 distinct modes in one region";
  check
    (t_auto < t_copy && t_auto < t_elide && t_auto < t_zc)
    (Printf.sprintf
       "hotcold: auto %.6fs does not beat every forcing (copy %.6f elide %.6f zerocopy %.6f)"
       t_auto t_copy t_elide t_zc);
  (* map(always, ...) must force the transfers even under elision *)
  let readscale = List.find (fun a -> a.ms_name = "readscale") ms_apps in
  let _, r_always, _, ctx_always =
    run_mem_variant ~source:(Some readscale_always_source) readscale ~n ~iters
      (Ms_mode (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide))
  in
  let _, r_plain, _, _ = run_mem_variant readscale ~n ~iters Ms_host in
  let st_a = Polybench.Harness.mem_stats ctx_always in
  say "  readscale under map(always,...): h2d-elided=%d d2h-elided=%d (both must be 0)\n"
    st_a.Hostrt.Dataenv.elided_h2d st_a.Hostrt.Dataenv.elided_d2h;
  check
    (st_a.Hostrt.Dataenv.elided_h2d = 0 && st_a.Hostrt.Dataenv.elided_d2h = 0)
    "map(always,...) failed to force transfers under elision";
  check (r_always = r_plain) "map(always,...) changed the readscale result";
  say "  -- fault injected into an elided-path launch (differential vs host) --\n";
  let atax = List.hd ms_apps in
  let _, r_ref, _, _ = run_mem_variant atax ~n ~iters Ms_host in
  tally (elided_fault_cell atax ~n ~iters r_ref);
  write_bench ~bench:"autopolicy" ~smoke
    ~bit_identical:(!all_identical && r_always = r_plain)
    ~headlines:!headlines
    [ ("n", int n); ("iters", int iters); ("apps", Perf.Json.List (List.rev !rows)) ];
  verdict ""

(* ------------------------------------------------------------------ *)
(* jit: closure-JIT executor vs tree-walking interpreter (wall clock)   *)
(* ------------------------------------------------------------------ *)

(* The closure JIT must be invisible to the simulation (bit-identical
   outputs, identical simulated times) and visible only to the wall
   clock.  Per app: best-of-3 wall time for each executor, the
   cross-checks, and a once-per-module-load compile assertion; the run
   fails unless at least one app clears a 3x speedup.  Both the best and
   the worst app's speedup are headlines, so a regression confined to
   the slowest apps is gated too.  Smoke runs take three reps as well:
   with two, one slowed rep on a busy machine could sink the worst-app
   gate. *)
let jit_bench ~smoke () =
  say "== closure JIT vs tree-walking interpreter (wall clock) ==\n";
  let { check; verdict; _ } = checks ~prefix:"CHECK FAILED" "jit" in
  let reps = 3 in
  let run_leg (app : Polybench.Suite.app) ~jit ~n =
    let ctx = Polybench.Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
    Polybench.Harness.set_sampling ctx None;
    let t0 = Unix.gettimeofday () in
    let sim, out = app.Polybench.Suite.ap_run ctx Polybench.Harness.Cuda ~n in
    (Unix.gettimeofday () -. t0, sim, out)
  in
  let rows = ref [] and identical = ref true in
  let best = ref (0.0, "none") in
  let worst = ref (infinity, "none") in
  List.iter
    (fun (app : Polybench.Suite.app) ->
      let name = app.Polybench.Suite.ap_name in
      let n = List.nth app.Polybench.Suite.ap_validate_sizes 1 in
      let wall_i = ref infinity and wall_j = ref infinity in
      let sim_i = ref 0.0 and sim_j = ref 0.0 in
      let out_i = ref [||] and out_j = ref [||] in
      for _ = 1 to reps do
        let w, s, o = run_leg app ~jit:false ~n in
        if w < !wall_i then wall_i := w;
        sim_i := s;
        out_i := o;
        let w, s, o = run_leg app ~jit:true ~n in
        if w < !wall_j then wall_j := w;
        sim_j := s;
        out_j := o
      done;
      let bits a = Array.map Int32.bits_of_float a in
      let same_sim = !sim_i = !sim_j and same_bits = bits !out_i = bits !out_j in
      check same_sim (name ^ ": simulated time differs between JIT and interpreter");
      check same_bits (name ^ ": output not bit-identical under JIT");
      identical := !identical && same_sim && same_bits;
      let sp = !wall_i /. !wall_j in
      say "  %-12s n=%-4d interp=%.3fs jit=%.3fs speedup=%.2fx\n" name n !wall_i !wall_j sp;
      if sp > fst !best then best := (sp, name);
      if sp < fst !worst then worst := (sp, name);
      rows :=
        Perf.Json.(
          Obj
            [
              ("name", Str name);
              ("n", int n);
              ("interp_s", num 6 !wall_i);
              ("jit_s", num 6 !wall_j);
              ("speedup", num 3 sp);
            ])
        :: !rows)
    Polybench.Suite.all;
  (* relaunching from the same loaded module must not recompile *)
  let ctx = Polybench.Harness.create () in
  Polybench.Harness.set_sampling ctx None;
  let tr = Polybench.Harness.enable_trace ctx in
  let atax = List.find (fun a -> a.Polybench.Suite.ap_name = "atax") Polybench.Suite.all in
  let n0 = List.hd atax.Polybench.Suite.ap_validate_sizes in
  ignore (atax.Polybench.Suite.ap_run ctx Polybench.Harness.Cuda ~n:n0);
  let c1 = Perf.Trace.count_events tr ~cat:"jit" ~name:"closure_compile" () in
  ignore (atax.Polybench.Suite.ap_run ctx Polybench.Harness.Cuda ~n:n0);
  let c2 = Perf.Trace.count_events tr ~cat:"jit" ~name:"closure_compile" () in
  say "  closure_compile events: first run=%d, after rerun=%d (module reused)\n" c1 c2;
  check (c1 >= 1) "no closure_compile event on a JIT run";
  check (c2 = c1) "closure compile fired again on relaunch (must be once per module load)";
  let sp_max, sp_app = !best in
  let sp_min, sp_min_app = !worst in
  write_bench ~bench:"jit" ~smoke ~bit_identical:!identical
    ~headlines:[ ("max_speedup", fixed 3 sp_max); ("min_speedup", fixed 3 sp_min) ]
    Perf.Json.
      [
        ("reps", int reps);
        ("apps", List (List.rev !rows));
        ("max_speedup_app", Str sp_app);
        ("min_speedup_app", Str sp_min_app);
      ];
  check (sp_max >= 3.0) (Printf.sprintf "best JIT speedup %.2fx (%s) is below the 3x bar" sp_max sp_app);
  verdict (Printf.sprintf " (best %.2fx on %s, worst %.2fx on %s)" sp_max sp_app sp_min sp_min_app)

(* ------------------------------------------------------------------ *)
(* serve: the offload server under load                                 *)
(* ------------------------------------------------------------------ *)

(* Three legs over the same seeded arrival pattern: the stream pool
   (the configuration ompiserve ships with), a fully serialized
   baseline (streams=1), and the stream pool under transient fault
   injection.  Every response of every leg is bit-checked against the
   host reference inside Serve.run, and the per-session final outputs
   must agree bit-for-bit across the legs — scheduling and recovery may
   only move time, never bytes.  Fails unless the stream pool clears
   1.2x the serialized throughput. *)
let serve_bench ~smoke () =
  say "=== serve: concurrent offload server — multi-stream vs serialized ===\n";
  let { check; verdict; _ } = checks ~prefix:"CHECK FAILED" "serve" in
  let sessions = Serve.default_sessions ~smoke in
  let base = { Serve.default_config with Serve.cf_trace = true } in
  let fault_rules = rules_of "h2d:every=7,kind=transient;launch:every=11,kind=transient" in
  let multi, tr = Serve.run base sessions in
  let with_rt f = { base with Serve.cf_rt = f base.Serve.cf_rt; cf_trace = false } in
  let serial, _ = Serve.run (with_rt (fun rt -> { rt with streams = 1 })) sessions in
  let faulted, _ = Serve.run (with_rt (fun rt -> { rt with faults = fault_rules })) sessions in
  let leg name (r : Serve.report) =
    say "  %-12s %3d/%3d req, %8.1f req/s, p50/p95/p99 %.3f/%.3f/%.3f ms, depth mean %.2f, %s\n"
      name r.Serve.rp_completed r.Serve.rp_requests r.Serve.rp_throughput_rps r.Serve.rp_p50_ms
      r.Serve.rp_p95_ms r.Serve.rp_p99_ms r.Serve.rp_mean_queue_depth
      (if r.Serve.rp_all_identical then "bit-identical" else "RESULTS DIFFER");
    check r.Serve.rp_all_identical (name ^ ": responses differ from host reference");
    check
      (r.Serve.rp_completed = r.Serve.rp_requests)
      (Printf.sprintf "%s: only %d of %d requests completed" name r.Serve.rp_completed
         r.Serve.rp_requests)
  in
  leg "streams=4" multi;
  leg "streams=1" serial;
  leg "faulted" faulted;
  let speedup = multi.Serve.rp_throughput_rps /. serial.Serve.rp_throughput_rps in
  say "  multi-stream throughput speedup: %.2fx (gate: >= 1.20x)\n" speedup;
  say "  env hit rate %.0f%%, %d warm-open H2Ds elided, faults injected in fault leg: %d\n"
    (100.0 *. multi.Serve.rp_env_hit_rate)
    multi.Serve.rp_open_elisions faulted.Serve.rp_faults_injected;
  check (speedup >= 1.2)
    (Printf.sprintf "multi-stream throughput %.2fx below the 1.2x bar" speedup);
  check (multi.Serve.rp_env_hit_rate >= 0.99) "persistent data environments missed";
  check (multi.Serve.rp_open_elisions >= 1) "no warm-open elision across generations";
  check (faulted.Serve.rp_faults_injected >= 1) "fault leg injected nothing";
  let same_sessions (r : Serve.report) =
    List.for_all2
      (fun (a : Serve.session_report) (b : Serve.session_report) ->
        a.Serve.sr_output_bits = b.Serve.sr_output_bits)
      multi.Serve.rp_sessions r.Serve.rp_sessions
  in
  List.iter
    (fun (name, r) ->
      check (same_sessions r) (name ^ ": per-session outputs differ from the multi-stream leg"))
    [ ("streams=1", serial); ("faulted", faulted) ];
  (match (Sys.getenv_opt "SERVE_TRACE", tr) with
  | Some file, Some trace ->
    Perf.Chrome_trace.write_file file trace;
    say "  [trace: %d events written to %s]\n" (Perf.Trace.length trace) file
  | _ -> ());
  write_bench ~bench:"serve" ~smoke
    ~bit_identical:
      (multi.Serve.rp_all_identical && serial.Serve.rp_all_identical
     && faulted.Serve.rp_all_identical && same_sessions serial && same_sessions faulted)
    ~headlines:[ ("speedup_throughput", fixed 4 speedup) ]
    Perf.Json.
      [
        ("clients", int (List.length sessions));
        ("requests", int multi.Serve.rp_requests);
        ("throughput_multi_rps", num 1 multi.Serve.rp_throughput_rps);
        ("throughput_serial_rps", num 1 serial.Serve.rp_throughput_rps);
        ("p50_ms", num 4 multi.Serve.rp_p50_ms);
        ("p95_ms", num 4 multi.Serve.rp_p95_ms);
        ("p99_ms", num 4 multi.Serve.rp_p99_ms);
        ("mean_queue_depth", num 2 multi.Serve.rp_mean_queue_depth);
        ("max_queue_depth", int multi.Serve.rp_max_queue_depth);
        ("env_hit_rate", num 4 multi.Serve.rp_env_hit_rate);
        ("open_elisions", int multi.Serve.rp_open_elisions);
        ( "fault_leg",
          Obj
            [
              ("faults_injected", int faulted.Serve.rp_faults_injected);
              ("bit_identical", Bool faulted.Serve.rp_all_identical);
            ] );
      ];
  verdict (Printf.sprintf " (%.2fx multi-stream throughput)" speedup)

(* ------------------------------------------------------------------ *)
(* reduction: tree reduce vs single-team serialized reduce              *)
(* ------------------------------------------------------------------ *)

let reduction_float_src =
  {|
void red_f(int n, int teams, int nthr, float x[], float y[], float out[])
{
  float s = 0.0f;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

let reduction_int_src =
  {|
void red_i(int n, int teams, int nthr, int x[], int y[], int out[])
{
  int s = 0;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

let red_fx i = Polybench.Refmath.r32 (float_of_int (((i * 7) mod 31) - 15) /. 32.0)

let red_fy i = Polybench.Refmath.r32 (float_of_int (((i * 5) mod 23) - 11) /. 16.0)

let red_ix i = ((i * 7) mod 31) - 15

let red_iy i = ((i * 5) mod 23) - 11

(* The order-exact host model of the lowered float tree: per-thread
   sequential accumulation over the distribute/static chunks, the
   next-power-of-two halving tree within each team, and the sequential
   cross-team publish (blocks run in linear order in the simulator).
   All float arithmetic rounds to binary32 at every step, exactly as
   the device does. *)
let red_float_model ~n ~teams ~nthr : float =
  let open Devrt.Sched in
  let open Polybench.Refmath in
  let space = { lo = 0; hi = n } in
  let result = ref 0.0 in
  for team = 0 to teams - 1 do
    let tr = distribute_chunk ~team ~num_teams:teams space in
    let slots =
      Array.init nthr (fun thread ->
          let r = static_chunk ~thread ~num_threads:nthr tr in
          let acc = ref 0.0 in
          for i = r.lo to r.hi - 1 do
            acc := !acc +% (red_fx i *% red_fy i)
          done;
          !acc)
    in
    let s = ref 1 in
    while !s < nthr do
      s := !s * 2
    done;
    s := !s / 2;
    while !s > 0 do
      for tid = 0 to !s - 1 do
        if tid + !s < nthr then slots.(tid) <- slots.(tid) +% slots.(tid + !s)
      done;
      s := !s / 2
    done;
    result := !result +% slots.(0)
  done;
  !result

(* The translator's tree-reduction lowering under time pressure: a
   multi-team tree reduce against the same reduction serialized onto a
   single one-thread team, a bit-check of the tree result against the
   order-exact host model, an atomics-shape check (one publish per
   team), and two fault cells on the integer variant (order-insensitive,
   so recovery must reproduce the bytes exactly): a transient launch
   fault recovered by retry, and a fatal launch fault degraded to the
   sequential host fallback.  Fails unless the tree clears 1.2x the
   serialized simulated time. *)
let reduction_bench ~smoke () =
  say "=== reduction: multi-team tree reduce vs single-team serialized ===\n";
  let { check; verdict; _ } = checks ~prefix:"CHECK FAILED" "reduction" in
  let n = if smoke then 8192 else 65536 in
  let teams = 16 and nthr = 128 in
  let run_float ~jit ~teams ~nthr =
    let ctx = Polybench.Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
    Polybench.Harness.set_sampling ctx None;
    let open Polybench.Harness in
    let x = alloc_f32 ctx n and y = alloc_f32 ctx n and out = alloc_f32 ctx 1 in
    fill_f32 ctx x n red_fx;
    fill_f32 ctx y n red_fy;
    let p = prepare_omp ctx ~name:"bench_red_f" reduction_float_src in
    let t =
      measure ctx (fun () ->
          call_omp p "red_f" [ vint n; vint teams; vint nthr; fptr x; fptr y; fptr out ])
    in
    (t, Int32.bits_of_float (get_f32 ctx out 0), ctx)
  in
  let run_int ~faults ~teams ~nthr =
    let ctx =
      Polybench.Harness.create ~config:{ Hostrt.Rt.default_config with faults; fault_seed = 11 } ()
    in
    Polybench.Harness.set_sampling ctx None;
    let tr = Polybench.Harness.enable_trace ctx in
    let open Polybench.Harness in
    let x = alloc_i32 ctx n and y = alloc_i32 ctx n and out = alloc_i32 ctx 1 in
    fill_i32 ctx x n red_ix;
    fill_i32 ctx y n red_iy;
    let p = prepare_omp ctx ~name:"bench_red_i" reduction_int_src in
    call_omp p "red_i" [ vint n; vint teams; vint nthr; fptr x; fptr y; fptr out ];
    (get_i32 ctx out 0, tr, ctx)
  in
  (* tree leg, both executors: the JIT may only move wall clock *)
  let t_tree, bits_jit, ctx_tree = run_float ~jit:true ~teams ~nthr in
  let t_tree_i, bits_interp, _ = run_float ~jit:false ~teams ~nthr in
  check (bits_jit = bits_interp) "tree result differs between JIT and interpreter";
  check (t_tree = t_tree_i) "simulated time differs between JIT and interpreter";
  (* bit-identity against the order-exact host model *)
  let model_bits = Int32.bits_of_float (red_float_model ~n ~teams ~nthr) in
  check (bits_jit = model_bits) "tree result does not match the order-exact host model";
  (* cost shape: exactly one publish atomic per team *)
  let atomics =
    match (Polybench.Harness.driver ctx_tree).Gpusim.Driver.launches with
    | [ s ] -> s.Gpusim.Driver.st_counters.Gpusim.Counters.atomics
    | _ -> -1
  in
  check (atomics = teams)
    (Printf.sprintf "expected %d publish atomics (one per team), counted %d" teams atomics);
  (* serialized baseline: one team, one thread *)
  let t_serial, bits_serial, _ = run_float ~jit:true ~teams:1 ~nthr:1 in
  let serial_close =
    Float.abs (Int32.float_of_bits bits_serial -. Int32.float_of_bits bits_jit)
    <= 1e-3 *. Float.max 1.0 (Float.abs (Int32.float_of_bits bits_serial))
  in
  check serial_close "tree and serialized results disagree beyond accumulation tolerance";
  let speedup = t_serial /. t_tree in
  say "  n=%d geometry %dx%d: tree %.6fs, serialized %.6fs, speedup %.2fx (gate: >= 1.20x)\n" n
    teams nthr t_tree t_serial speedup;
  say "  atomics per launch: %d (one per team), model bits match: %b\n" atomics
    (bits_jit = model_bits);
  (* fault cells on the int variant: recovery may never move the bytes *)
  let ref_int, _, _ = run_int ~faults:[] ~teams ~nthr in
  let retry_int, retry_tr, retry_ctx =
    run_int ~faults:(rules_of "launch:nth=1,kind=transient") ~teams ~nthr
  in
  let retry_ok =
    retry_int = ref_int
    && fault_count retry_tr "retry_backoff" >= 1
    && fault_count retry_tr "host_fallback" = 0
    && not (Polybench.Harness.device_dead retry_ctx)
  in
  say "  fault launch:nth=1,kind=transient  retried, bit-identical: %b\n" retry_ok;
  check retry_ok "transient launch fault: retry did not reproduce the bytes";
  let fb_int, fb_tr, fb_ctx = run_int ~faults:(rules_of "launch:nth=1,kind=fatal") ~teams ~nthr in
  let fb_ok =
    fb_int = ref_int
    && fault_count fb_tr "host_fallback" >= 1
    && Polybench.Harness.device_dead fb_ctx
  in
  say "  fault launch:nth=1,kind=fatal      host fallback, bit-identical: %b\n" fb_ok;
  check fb_ok "fatal launch fault: host fallback did not reproduce the bytes";
  let model_match = bits_jit = model_bits in
  let executors_identical = bits_jit = bits_interp && t_tree = t_tree_i in
  write_bench ~bench:"reduction" ~smoke
    ~bit_identical:(model_match && executors_identical && retry_ok && fb_ok)
    ~headlines:[ ("speedup", fixed 4 speedup) ]
    Perf.Json.
      [
        ("n", int n);
        ("teams", int teams);
        ("threads", int nthr);
        ("tree_sim_s", num 6 t_tree);
        ("serial_sim_s", num 6 t_serial);
        ("atomics_per_launch", int atomics);
        ("model_bits_match", Bool model_match);
        ("executors_identical", Bool executors_identical);
        ( "fault_legs",
          Obj [ ("retry_bit_identical", Bool retry_ok); ("fallback_bit_identical", Bool fb_ok) ] );
      ];
  check (speedup >= 1.2)
    (Printf.sprintf "tree speedup %.2fx below the 1.2x bar" speedup);
  verdict (Printf.sprintf " (%.2fx over serialized)" speedup)

(* ------------------------------------------------------------------ *)
(* multidev: sharded distribute across an N-device farm                 *)
(* ------------------------------------------------------------------ *)

(* Pure-writes shard witness: every c element is produced by exactly one
   thread, so the ascending-shard merge must reproduce the single-device
   bytes (and the host interpreter's bytes) exactly. *)
let multidev_gemm_src =
  {|
void gemm_md(int n, int teams, float alpha, float beta, float a[], float b[], float c[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      map(to: n, alpha, beta, a[0:n*n], b[0:n*n]) map(tofrom: c[0:n*n])
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++) {
      float acc = 0.0f;
      for (int k = 0; k < n; k++)
        acc += a[i * n + k] * b[k * n + j];
      c[i * n + j] = alpha * acc + beta * c[i * n + j];
    }
}
|}

(* Atomic-chain shard witness: each team publishes into s with one
   atomic; across devices the publish chain rides the cross-device
   D2H-before-H2D exchange, so the chained value must still match the
   single-device tree bit-for-bit. *)
let multidev_dot_src =
  {|
void dot_md(int n, int teams, float x[], float y[], float out[])
{
  float s = 0.0f;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(128) \
      reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

let md_a n i = Polybench.Refmath.r32 (float_of_int ((i * 7) mod (n + 13)) /. float_of_int (n + 13))

let md_b n i = Polybench.Refmath.r32 (float_of_int ((i * 5) mod (n + 7)) /. float_of_int (n + 7))

let md_c _n i = Polybench.Refmath.r32 (float_of_int ((i mod 11) - 5) /. 8.0)

(* The translator only shards default-device launches, and the shard
   planner only engages past one live device — everything else must
   collapse to the single-device path, bit-for-bit. *)
let multidev_bench ~smoke () =
  say "=== multidev: sharded distribute across an N-device farm ===\n";
  let { check; verdict; _ } = checks ~prefix:"CHECK FAILED" "multidev" in
  let gemm_n = if smoke then 128 else 256 in
  let gemm_teams = 64 in
  let dot_n = if smoke then 8192 else 65536 in
  let dot_teams = 32 in
  let launches_of ctx d =
    List.length (Hostrt.Rt.device ctx.Polybench.Harness.rt d).Hostrt.Rt.dev_driver.Gpusim.Driver.launches
  in
  let dead ctx d =
    Hostrt.Dataenv.is_dead (Hostrt.Rt.device ctx.Polybench.Harness.rt d).Hostrt.Rt.dev_dataenv
  in
  (* steady-state shape: the warm call re-broadcasts nothing the host
     has not dirtied, so the window is shards + the c traffic *)
  let elide = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide in
  let run_gemm ?(host_interp = false) ?(trace = false) ?(faults = []) ~devices () =
    let ctx =
      Polybench.Harness.create
        ~config:
          { Hostrt.Rt.default_config with devices; mem_policy = elide; faults; fault_seed = 7 }
        ()
    in
    Polybench.Harness.set_sampling ctx None;
    let tr = if trace then Some (Polybench.Harness.enable_trace ctx) else None in
    let open Polybench.Harness in
    let nn = gemm_n * gemm_n in
    let a = alloc_f32 ctx nn and b = alloc_f32 ctx nn and c = alloc_f32 ctx nn in
    fill_f32 ctx a nn (md_a gemm_n);
    fill_f32 ctx b nn (md_b gemm_n);
    fill_f32 ctx c nn (md_c gemm_n);
    let p = prepare_omp ~host_interp ctx ~name:"bench_md_gemm" multidev_gemm_src in
    let call () =
      call_omp p "gemm_md"
        [ vint gemm_n; vint gemm_teams; vf32 1.5; vf32 1.2; fptr a; fptr b; fptr c ]
    in
    (* warm-up: pay every device's one-time module load outside the
       window, then restore c (tofrom) so the measured call sees the
       same bytes on every leg *)
    if faults = [] then begin
      call ();
      fill_f32 ctx c nn (md_c gemm_n)
    end;
    let t = measure ctx call in
    (t, Array.map Int32.bits_of_float (read_f32_array ctx c nn), ctx, tr)
  in
  let run_dot ?(host_interp = false) ~devices () =
    let ctx =
      Polybench.Harness.create
        ~config:{ Hostrt.Rt.default_config with devices; mem_policy = elide }
        ()
    in
    Polybench.Harness.set_sampling ctx None;
    let open Polybench.Harness in
    let x = alloc_f32 ctx dot_n and y = alloc_f32 ctx dot_n and out = alloc_f32 ctx 1 in
    fill_f32 ctx x dot_n red_fx;
    fill_f32 ctx y dot_n red_fy;
    let p = prepare_omp ~host_interp ctx ~name:"bench_md_dot" multidev_dot_src in
    let call () = call_omp p "dot_md" [ vint dot_n; vint dot_teams; fptr x; fptr y; fptr out ] in
    call ();
    (* warm-up as in the gemm legs; out is a pure write, x/y are to-only *)
    let t = measure ctx call in
    (t, Int32.bits_of_float (get_f32 ctx out 0), ctx)
  in
  (* gemm across the farm sizes: 0-byte diff, one shard launch per
     device, and kernel-window time that shrinks with the farm *)
  let g1_t, g1_bits, g1_ctx, _ = run_gemm ~devices:1 () in
  let g2_t, g2_bits, g2_ctx, _ = run_gemm ~devices:2 () in
  let g4_t, g4_bits, g4_ctx, _ = run_gemm ~devices:4 () in
  let _, gh_bits, _, _ = run_gemm ~host_interp:true ~devices:1 () in
  check (g2_bits = g1_bits) "gemm: 2-device bytes differ from 1-device";
  check (g4_bits = g1_bits) "gemm: 4-device bytes differ from 1-device";
  check (gh_bits = g1_bits) "gemm: device bytes differ from the host interpreter";
  (* two region executions (warm-up + measured) -> exactly one shard
     launch per device per execution, on every farm size *)
  check (launches_of g1_ctx 0 = 2) "gemm: 1-device leg did not launch once per execution";
  List.iter
    (fun (ctx, devices) ->
      for d = 0 to devices - 1 do
        check
          (launches_of ctx d = 2)
          (Printf.sprintf "gemm: device %d of %d ran %d shard launches (want 2)" d devices
             (launches_of ctx d))
      done)
    [ (g2_ctx, 2); (g4_ctx, 4) ];
  let g2_sp = g1_t /. g2_t and g4_sp = g1_t /. g4_t in
  say "  gemm   n=%-5d teams=%-3d  1dev %.6fs  2dev %.6fs (%.2fx)  4dev %.6fs (%.2fx)\n" gemm_n
    gemm_teams g1_t g2_t g2_sp g4_t g4_sp;
  (* dot: the atomic publish chain across devices *)
  let d1_t, d1_bits, _ = run_dot ~devices:1 () in
  let d2_t, d2_bits, _ = run_dot ~devices:2 () in
  let d4_t, d4_bits, _ = run_dot ~devices:4 () in
  let _, dh_bits, _ = run_dot ~host_interp:true ~devices:1 () in
  check (d2_bits = d1_bits) "dot: 2-device reduction differs from 1-device";
  check (d4_bits = d1_bits) "dot: 4-device reduction differs from 1-device";
  let close a b = Float.abs (a -. b) <= 1e-3 *. Float.max 1.0 (Float.abs b) in
  check
    (close (Int32.float_of_bits d1_bits) (Int32.float_of_bits dh_bits))
    "dot: device reduction drifted beyond accumulation tolerance of the host value";
  say "  dot    n=%-5d teams=%-3d  1dev %.6fs  2dev %.6fs (%.2fx)  4dev %.6fs (%.2fx)\n" dot_n
    dot_teams d1_t d2_t (d1_t /. d2_t) d4_t (d1_t /. d4_t);
  (* fault cell: a fatal launch fault on device 1's shard (launch #2 in
     ascending shard order) host-falls-back that shard only — device 0
     stays alive and the merged bytes do not move *)
  let _, gf_bits, gf_ctx, gf_tr =
    run_gemm ~devices:2 ~trace:true ~faults:(rules_of "launch:nth=2,kind=fatal") ()
  in
  let fallbacks =
    match gf_tr with
    | Some tr -> Perf.Trace.count_events tr ~cat:"shard" ~name:"shard_host_fallback" ()
    | None -> 0
  in
  let fault_ok =
    gf_bits = g1_bits && fallbacks >= 1 && dead gf_ctx 1 && not (dead gf_ctx 0)
  in
  say "  fault launch:nth=2,kind=fatal on 2 devices: %d shard fallback(s), dev1 dead=%b, \
       dev0 alive=%b, bit-identical=%b\n"
    fallbacks (dead gf_ctx 1)
    (not (dead gf_ctx 0))
    (gf_bits = g1_bits);
  check fault_ok "fault cell: secondary shard death did not degrade cleanly";
  let gemm_identical = g2_bits = g1_bits && g4_bits = g1_bits && gh_bits = g1_bits in
  let dot_identical = d2_bits = d1_bits && d4_bits = d1_bits in
  let farm_row n teams t1 t2 t4 identical =
    Perf.Json.(
      Obj
        [
          ("n", int n);
          ("teams", int teams);
          ("sim_s_1dev", num 6 t1);
          ("sim_s_2dev", num 6 t2);
          ("sim_s_4dev", num 6 t4);
          ("speedup_2dev", num 4 (t1 /. t2));
          ("speedup_4dev", num 4 (t1 /. t4));
          ("bit_identical", Bool identical);
        ])
  in
  write_bench ~bench:"multidev" ~smoke
    ~bit_identical:(gemm_identical && dot_identical && gf_bits = g1_bits)
    ~headlines:[ ("speedup_4dev", fixed 4 g4_sp) ]
    Perf.Json.
      [
        ("gemm", farm_row gemm_n gemm_teams g1_t g2_t g4_t gemm_identical);
        ("dot", farm_row dot_n dot_teams d1_t d2_t d4_t dot_identical);
        ( "fault_cell",
          Obj
            [
              ("shard_fallbacks", int fallbacks);
              ("secondary_dead", Bool (dead gf_ctx 1));
              ("primary_alive", Bool (not (dead gf_ctx 0)));
              ("bit_identical", Bool (gf_bits = g1_bits));
            ] );
      ];
  check (g4_sp >= 1.5)
    (Printf.sprintf "gemm 4-device speedup %.2fx below the 1.5x bar" g4_sp);
  verdict (Printf.sprintf " (%.2fx at 4 devices)" g4_sp)

(* The self-checking modes, each run as `<name> [--smoke]`. *)
let self_checking =
  [
    ("overlap", overlap);
    ("autopolicy", autopolicy);
    ("jit", jit_bench);
    ("serve", serve_bench);
    ("reduction", reduction_bench);
    ("multidev", multidev_bench);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl |> List.filter (fun a -> a <> "--") in
  match args with
  | [] | [ "all" ] ->
    all_figures ();
    extras ();
    ablate_binmode ();
    ablate_masterworker ();
    ablate_schedule ();
    ablate_barrier ();
    ablate_sections ();
    micro ()
  | [ "figures" ] -> all_figures ()
  | [ "extras" ] -> extras ()
  | [ "micro" ] -> micro ()
  | [ "ablate-binmode" ] -> ablate_binmode ()
  | [ "ablate-masterworker" ] -> ablate_masterworker ()
  | [ "ablate-schedule" ] -> ablate_schedule ()
  | [ "ablate-barrier" ] -> ablate_barrier ()
  | [ "ablate-sections" ] -> ablate_sections ()
  | [ "trace"; name; n; file ] -> trace_app name (int_of_string n) file
  | m :: ([] | [ "--smoke" ] as rest) when List.mem_assoc m self_checking ->
    List.assoc m self_checking ~smoke:(rest <> []) ()
  | [ id ] when figure_by_id id <> None -> ignore (run_figure (Option.get (figure_by_id id)))
  | args ->
    prerr_endline ("unknown benchmark target: " ^ String.concat " " args);
    exit 2
