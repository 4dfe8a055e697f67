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
                                           sync, overlap evidence
     dune exec bench/main.exe -- autopolicy [--smoke]
                                        -- per-buffer auto policy vs forced
                                           copy / elide / zerocopy, elision
                                           and zero-copy evidence
     dune exec bench/main.exe -- jit [--smoke]
                                        -- closure-JIT vs tree-walking
                                           interpreter wall clock, best
                                           and worst app; fails unless
                                           one app clears 3x
     dune exec bench/main.exe -- serve [--smoke]
                                        -- ompiserve under load: multi-
                                           stream vs serialized throughput
     dune exec bench/main.exe -- reduction [--smoke]
                                        -- multi-team tree reduce vs a
                                           single-team serialized reduce
     dune exec bench/main.exe -- multidev [--smoke]
                                        -- sharded distribute across 1/2/4
                                           device farms; gates the 4-device
                                           gemm speedup at 1.5x

   The self-checking modes measure and gate.  Each timed leg is a run
   of a program from the oracle's catalogue (test/oracle) at one of its
   configuration points, and a mode's bit_identical is the oracle's
   verdict on the runs it timed (Serve, not an oracle program yet,
   checks its own responses).  Fault cells and every other correctness
   check live in the test suites.

   Times are simulated seconds on the modelled Jetson Nano 2GB (see
   DESIGN.md for the substitution rules); shapes, not absolute values,
   are the reproduction target. *)

let say fmt = Printf.printf fmt

(* The self-checking modes share one scaffold: [check ok what] counts a
   failed check and reports [what] on a "  <prefix>: " line; [verdict
   pass] ends the mode with "<bench>: FAIL (k check(s))" and exit 1, or
   with "<bench>: PASS<pass>". *)
type checks = { check : bool -> string -> unit; verdict : string -> unit }

let checks ?(prefix = "FAIL") bench =
  let failed = ref 0 in
  let check ok what =
    if not ok then begin
      incr failed;
      say "  %s: %s\n" prefix what
    end
  in
  let verdict pass =
    if !failed > 0 then begin
      say "%s: FAIL (%d check(s))\n" bench !failed;
      exit 1
    end;
    say "%s: PASS%s\n" bench pass
  in
  { check; verdict }

(* Each bench gated in CI writes one envelope to BENCH_<bench>.json:
   [bench], [smoke], [bit_identical] (the oracle's verdict on the runs
   it timed), [headlines] (the gated ratios, higher is
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

(* The run's newest kernel launch, read from its run report. *)
let newest_launch ctx =
  let report = Hostrt.Run_report.of_rt ctx.Polybench.Harness.rt in
  match List.rev (Hostrt.Run_report.launches report) with
  | (_, s) :: _ -> Some s
  | [] -> None

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
        match newest_launch ctx with
        | Some s -> s.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_time_ns *. 1e-9
        | None -> nan
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
        match newest_launch ctx with
        | Some s -> s.Gpusim.Driver.st_breakdown.Gpusim.Costmodel.bd_barrier_cycles
        | None -> nan
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

(* The oracle's tiled matvec pipeline: with nowait its tiles spread over
   the stream pool, so tile t+1's HtoD runs on the copy engine while
   tile t computes; without it the same program is the fully
   synchronous baseline. *)
let overlap ~smoke () =
  say "=== overlap: target nowait pipeline, async vs sync ===\n";
  say "(tiled matvec, rows x n per tile; times are simulated seconds)\n";
  let { check; verdict } = checks "overlap" in
  let row ?(streams = 4) ~assertive tiles =
    let sync = Oracle.pipeline ~nowait:false ~taskwait:true ~tiles () in
    let async = Oracle.pipeline ~tiles () in
    let pt_sync = Oracle.default_point in
    let pt_async = { Oracle.default_point with Oracle.streams } in
    let o_sync = sync.Oracle.run (Oracle.config pt_sync) in
    let o_async = async.Oracle.run (Oracle.config pt_async) in
    let wrong =
      Oracle.verdict sync [ (pt_sync, o_sync) ] @ Oracle.verdict async [ (pt_async, o_async) ]
    in
    let pairs = count_overlapping_pairs (Option.get o_async.Oracle.o_trace) in
    let speedup = o_sync.Oracle.o_time /. o_async.Oracle.o_time in
    say "  tiles=%-3d streams=%-2d sync=%.6f async=%.6f speedup=%.2fx overlap-pairs=%-3d %s\n"
      tiles streams o_sync.Oracle.o_time o_async.Oracle.o_time speedup pairs
      (if wrong = [] then "bit-identical" else "RESULTS DIFFER");
    List.iter (check false) wrong;
    if assertive then begin
      check (speedup > 1.1) (Printf.sprintf "tiles=%d: speedup %.2fx <= 1.1x" tiles speedup);
      check (pairs >= 1) (Printf.sprintf "tiles=%d: no overlapping async intervals in trace" tiles)
    end
  in
  if smoke then row ~assertive:true 6
  else begin
    row ~assertive:false 2;
    row ~assertive:false 4;
    row ~assertive:true 8;
    row ~assertive:false 16;
    say "  -- stream-pool ablation at tiles=8 (1 stream serializes, no overlap) --\n";
    row ~streams:1 ~assertive:false 8;
    row ~streams:2 ~assertive:false 8;
    row ~streams:8 ~assertive:false 8
  end;
  verdict ""

(* ------------------------------------------------------------------ *)
(* autopolicy: per-buffer policy vs each forced memory mode (unified   *)
(* DRAM: copy, transfer elision, zero-copy)                             *)
(* ------------------------------------------------------------------ *)

(* The distinct modes a run's policy chose, from its policy_decide
   trace events. *)
let modes_used (o : Oracle.obs) : string list =
  let chosen =
    List.filter_map
      (fun (e : Perf.Trace.event) ->
        match List.assoc_opt "mode" e.ev_args with Some (Perf.Trace.Str m) -> Some m | _ -> None)
      (Perf.Trace.find_events (Option.get o.Oracle.o_trace) ~cat:"mem" ~name:"policy_decide" ())
  in
  List.filter
    (fun m -> List.mem m chosen)
    (List.map Hostrt.Mempolicy.mode_name Hostrt.Mempolicy.[ Copy; Elide; Zerocopy ])

(* Each app is one of the oracle's replays: persistent host arrays and
   [iters] offloaded calls of its entry point. *)
let autopolicy ~smoke () =
  say "=== autopolicy: trace-informed per-buffer policy vs hand-forced modes ===\n";
  let n = if smoke then 32 else 96 in
  let iters = if smoke then 3 else 4 in
  say "(each app: persistent host arrays, %d offloaded iterations at n=%d; simulated seconds)\n"
    iters n;
  let { check; verdict } = checks "autopolicy" in
  let rows = ref [] and headlines = ref [] and all_identical = ref true in
  let modes_str o = match modes_used o with [] -> "none" | ms -> String.concat "+" ms in
  (* One app under every memory mode: prints its row, checks what every
     app must show (the oracle's verdict, elision and zero-copy at work,
     elision faster than copy) and records its headlines and detail
     row; returns the times and the auto run. *)
  let run_all (app : Oracle.program) =
    let name = app.Oracle.name in
    let run mem =
      let pt = { Oracle.default_point with Oracle.mem } in
      (pt, app.Oracle.run (Oracle.config pt))
    in
    let forced m = run (Hostrt.Mempolicy.Forced m) in
    let ((_, copy) as r_copy) = forced Hostrt.Mempolicy.Copy in
    let ((_, elide) as r_elide) = forced Hostrt.Mempolicy.Elide in
    let ((_, zc) as r_zc) = forced Hostrt.Mempolicy.Zerocopy in
    let ((_, auto) as r_auto) = run Hostrt.Mempolicy.Auto in
    let wrong = Oracle.verdict app [ r_copy; r_elide; r_zc; r_auto ] in
    let t_copy = copy.Oracle.o_time and t_elide = elide.Oracle.o_time in
    let t_zc = zc.Oracle.o_time and t_auto = auto.Oracle.o_time in
    let elided_h2d = Oracle.count elide ~cat:"mem" "elide_h2d" in
    let elided_d2h = Oracle.count elide ~cat:"mem" "elide_d2h" in
    let zc_maps = Oracle.count zc ~cat:"mem" "zerocopy_map" in
    let sp_auto = t_copy /. t_auto and sp_e = t_copy /. t_elide and sp_z = t_copy /. t_zc in
    let vs_best = t_auto /. Float.min t_copy (Float.min t_elide t_zc) in
    say
      "  %-10s auto=%.6f copy=%.6f elide=%.6f zerocopy=%.6f (%.2fx vs copy, %.2f of best, modes \
       %s) %s\n"
      name t_auto t_copy t_elide t_zc sp_auto vs_best (modes_str auto)
      (if wrong = [] then "bit-identical" else "RESULTS DIFFER");
    say "             elide %.2fx (h2d-elided=%d d2h-elided=%d), zerocopy %.2fx (%d pinned maps)\n"
      sp_e elided_h2d elided_d2h sp_z zc_maps;
    List.iter (check false) wrong;
    check (elided_h2d >= 1 || elided_d2h >= 1) (name ^ ": elision variant elided nothing");
    check (zc_maps >= 1) (name ^ ": no zero-copy mapping");
    check (sp_e > 1.0)
      (Printf.sprintf "%s: elision speedup %.3fx <= 1.0x over always-copy" name sp_e);
    (match Sys.getenv_opt "AUTOPOLICY_TRACE" with
    | Some file when name = "atax" ->
      Perf.Chrome_trace.write_file file (Option.get auto.Oracle.o_trace)
    | _ -> ());
    headlines :=
      !headlines
      @ [ (name ^ ".speedup_elide", fixed 4 sp_e); (name ^ ".speedup_auto", fixed 4 sp_auto) ];
    all_identical := !all_identical && wrong = [];
    rows :=
      Perf.Json.(
        Obj
          [
            ("app", Str name);
            ("t_copy_s", num 9 t_copy);
            ("t_elide_s", num 9 t_elide);
            ("t_zerocopy_s", num 9 t_zc);
            ("t_auto_s", num 9 t_auto);
            ("auto_vs_best", num 4 vs_best);
            ("speedup_zerocopy", num 4 sp_z);
            ("elided_h2d", int elided_h2d);
            ("elided_d2h", int elided_d2h);
            ("zerocopy_maps", int zc_maps);
            ("modes", Str (modes_str auto));
            ("bit_identical", Bool (wrong = []));
          ])
      :: !rows;
    (t_copy, t_elide, t_zc, t_auto, vs_best, auto)
  in
  let ge13 = ref 0 in
  List.iter
    (fun app ->
      let t_copy, _, _, t_auto, vs_best, _ = run_all app in
      if t_copy /. t_auto >= 1.3 then incr ge13;
      check (vs_best <= 1.10)
        (Printf.sprintf "%s: auto %.6fs is %.2fx the best forced mode, above the 10%% budget"
           app.Oracle.name t_auto vs_best))
    Oracle.
      [
        atax_replay ~n ~iters; bicg_replay ~n ~iters; mvt_replay ~n ~iters; readscale ~n ~iters ();
      ];
  check (!ge13 >= 2)
    (Printf.sprintf "auto beat forced-copy by >=1.3x on only %d app(s), need >=2" !ge13);
  (* mixed temperatures in one region: auto must pick different modes for
     different buffers and beat every single-mode forcing outright *)
  say "  -- hotcold: mixed buffer temperatures in one target region --\n";
  (* twice the iterations: the steady-state gains of the per-buffer mix
     must outweigh the first cold cycle's conservative choices *)
  let t_copy, t_elide, t_zc, t_auto, _, auto = run_all (Oracle.hotcold ~n ~iters:(2 * iters)) in
  check
    (List.length (modes_used auto) >= 2)
    "hotcold: auto used fewer than 2 distinct modes in one region";
  check
    (t_auto < t_copy && t_auto < t_elide && t_auto < t_zc)
    (Printf.sprintf
       "hotcold: auto %.6fs does not beat every forcing (copy %.6f elide %.6f zerocopy %.6f)"
       t_auto t_copy t_elide t_zc);
  write_bench ~bench:"autopolicy" ~smoke ~bit_identical:!all_identical ~headlines:!headlines
    [ ("n", int n); ("iters", int iters); ("apps", Perf.Json.List (List.rev !rows)) ];
  verdict ""

(* ------------------------------------------------------------------ *)
(* jit: closure-JIT executor vs tree-walking interpreter (wall clock)   *)
(* ------------------------------------------------------------------ *)

(* The closure JIT must be invisible to the simulation (the oracle's
   executor check: bit-identical outputs, identical launch records and
   simulated times) and visible only to the wall clock.  Per app:
   best-of-reps wall time for each executor; the run fails unless at
   least one app clears a 3x speedup.  Both the best and the worst app's
   speedup are headlines, so a regression confined to the slowest apps
   is gated too.  A short leg is the one a busy moment can sink, so
   every app gets about the wall time of the slowest app's three
   repetitions, and at least three. *)
let jit_bench ~smoke () =
  say "== closure JIT vs tree-walking interpreter (wall clock) ==\n";
  let { check; verdict } = checks ~prefix:"CHECK FAILED" "jit" in
  (* Untraced, and started on a collected heap, so neither the trace
     ring nor the garbage of earlier legs costs a leg wall time. *)
  let leg (app : Polybench.Suite.app) ~n ~jit =
    Gc.full_major ();
    let ctx = Polybench.Harness.create ~config:(Oracle.config ~jit Oracle.default_point) () in
    Polybench.Harness.set_sampling ctx None;
    let t0 = Unix.gettimeofday () in
    let time, out = app.Polybench.Suite.ap_run ctx Polybench.Harness.Cuda ~n in
    let wall = Unix.gettimeofday () -. t0 in
    (wall, Oracle.observe ctx.Polybench.Harness.rt ~time ~out:(Oracle.bits out))
  in
  let identical = ref true in
  (* One pair of legs per app; the oracle takes its observations at
     once, and only the walls are kept. *)
  let first =
    List.map
      (fun (app : Polybench.Suite.app) ->
        let name = app.Polybench.Suite.ap_name in
        let n = List.nth app.Polybench.Suite.ap_validate_sizes 1 in
        let wi, interp = leg app ~n ~jit:false in
        let wj, jit = leg app ~n ~jit:true in
        let p = Oracle.polybench ~variant:Polybench.Harness.Cuda ~n app in
        let wrong =
          Oracle.verdict p [ (Oracle.default_point, jit) ] @ Oracle.executor_violations jit interp
        in
        List.iter (fun v -> check false (name ^ ": " ^ v)) wrong;
        identical := !identical && wrong = [];
        (app, n, wi, wj))
      Polybench.Suite.all
  in
  let pair_wall (_, _, wi, wj) = wi +. wj in
  let budget = 3.0 *. List.fold_left (fun m r -> Float.max m (pair_wall r)) 0.0 first in
  let rows = ref [] in
  let best = ref (0.0, "none") in
  let worst = ref (infinity, "none") in
  List.iter
    (fun (((app : Polybench.Suite.app), n, wi, wj) as r) ->
      let name = app.Polybench.Suite.ap_name in
      let reps = max 3 (int_of_float (Float.ceil (budget /. pair_wall r))) in
      let wall_i = ref wi and wall_j = ref wj in
      for _ = 2 to reps do
        wall_i := Float.min !wall_i (fst (leg app ~n ~jit:false));
        wall_j := Float.min !wall_j (fst (leg app ~n ~jit:true))
      done;
      let sp = !wall_i /. !wall_j in
      say "  %-12s n=%-4d reps=%-3d interp=%.3fs jit=%.3fs speedup=%.2fx\n" name n reps !wall_i
        !wall_j sp;
      if sp > fst !best then best := (sp, name);
      if sp < fst !worst then worst := (sp, name);
      rows :=
        Perf.Json.(
          Obj
            [
              ("name", Str name);
              ("n", int n);
              ("reps", int reps);
              ("interp_s", num 6 !wall_i);
              ("jit_s", num 6 !wall_j);
              ("speedup", num 3 sp);
            ])
        :: !rows)
    first;
  let sp_max, sp_app = !best in
  let sp_min, sp_min_app = !worst in
  write_bench ~bench:"jit" ~smoke ~bit_identical:!identical
    ~headlines:[ ("max_speedup", fixed 3 sp_max); ("min_speedup", fixed 3 sp_min) ]
    Perf.Json.
      [
        ("apps", List (List.rev !rows));
        ("max_speedup_app", Str sp_app);
        ("min_speedup_app", Str sp_min_app);
      ];
  check (sp_max >= 3.0) (Printf.sprintf "best JIT speedup %.2fx (%s) is below the 3x bar" sp_max sp_app);
  verdict (Printf.sprintf " (best %.2fx on %s, worst %.2fx on %s)" sp_max sp_app sp_min sp_min_app)

(* ------------------------------------------------------------------ *)
(* serve: the offload server under load                                 *)
(* ------------------------------------------------------------------ *)

(* Two legs over the same seeded arrival pattern: the stream pool (the
   configuration ompiserve ships with) and a fully serialized baseline
   (streams=1).  Serve checks every response against its host reference
   mirrors itself (rp_all_identical); test_serve covers its fault legs
   and the per-session bits across scheduling configurations.  Fails
   unless the stream pool clears 1.2x the serialized throughput. *)
let serve_bench ~smoke () =
  say "=== serve: concurrent offload server — multi-stream vs serialized ===\n";
  let { check; verdict } = checks ~prefix:"CHECK FAILED" "serve" in
  let sessions = Serve.default_sessions ~smoke in
  let base = { Serve.default_config with Serve.cf_trace = true } in
  let multi, tr = Serve.run base sessions in
  let serial, _ =
    Serve.run
      { base with Serve.cf_rt = { base.Serve.cf_rt with streams = 1 }; cf_trace = false }
      sessions
  in
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
  let speedup = multi.Serve.rp_throughput_rps /. serial.Serve.rp_throughput_rps in
  say "  multi-stream throughput speedup: %.2fx (gate: >= 1.20x)\n" speedup;
  say "  env hit rate %.0f%%, %d warm-open H2Ds elided\n"
    (100.0 *. multi.Serve.rp_env_hit_rate)
    multi.Serve.rp_open_elisions;
  check (speedup >= 1.2)
    (Printf.sprintf "multi-stream throughput %.2fx below the 1.2x bar" speedup);
  check (multi.Serve.rp_env_hit_rate >= 0.99) "persistent data environments missed";
  check (multi.Serve.rp_open_elisions >= 1) "no warm-open elision across generations";
  (match (Sys.getenv_opt "SERVE_TRACE", tr) with
  | Some file, Some trace ->
    Perf.Chrome_trace.write_file file trace;
    say "  [trace: %d events written to %s]\n" (Perf.Trace.length trace) file
  | _ -> ());
  write_bench ~bench:"serve" ~smoke
    ~bit_identical:(multi.Serve.rp_all_identical && serial.Serve.rp_all_identical)
    ~headlines:[ ("speedup_throughput", fixed 4 speedup) ]
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
    ];
  verdict (Printf.sprintf " (%.2fx multi-stream throughput)" speedup)

(* ------------------------------------------------------------------ *)
(* reduction: tree reduce vs single-team serialized reduce              *)
(* ------------------------------------------------------------------ *)

(* The translator's tree-reduction lowering under time pressure: the
   oracle's float dot as a multi-team tree reduce (under both
   executors) against the same reduction serialized onto one one-thread
   team.  test_reduction checks this geometry against the order-exact
   host model and counts its atomics; test_oracle runs its fault cells.
   Fails unless the tree clears 1.2x the serialized simulated time. *)
let reduction_bench ~smoke () =
  say "=== reduction: multi-team tree reduce vs single-team serialized ===\n";
  let { check; verdict } = checks ~prefix:"CHECK FAILED" "reduction" in
  let n = if smoke then 8192 else 65536 in
  let teams = 16 and nthr = 128 in
  let pt = Oracle.default_point in
  let tree = Oracle.dot ~n ~teams ~nthr () and serial = Oracle.dot ~n ~teams:1 ~nthr:1 () in
  let jit = tree.Oracle.run (Oracle.config ~jit:true pt) in
  let interp = tree.Oracle.run (Oracle.config ~jit:false pt) in
  let ser = serial.Oracle.run (Oracle.config pt) in
  let wrong =
    Oracle.verdict tree [ (pt, jit) ]
    @ Oracle.executor_violations jit interp
    @ Oracle.verdict serial [ (pt, ser) ]
  in
  List.iter (check false) wrong;
  let t_tree = jit.Oracle.o_time and t_serial = ser.Oracle.o_time in
  let atomics = List.fold_left (fun acc (_, (_, _, a)) -> acc + a) 0 jit.Oracle.o_sums in
  let speedup = t_serial /. t_tree in
  say "  n=%d geometry %dx%d: tree %.6fs, serialized %.6fs, speedup %.2fx (gate: >= 1.20x)\n" n
    teams nthr t_tree t_serial speedup;
  say "  atomics: %d, bit-identical: %b\n" atomics (wrong = []);
  write_bench ~bench:"reduction" ~smoke ~bit_identical:(wrong = [])
    ~headlines:[ ("speedup", fixed 4 speedup) ]
    [
      ("n", int n);
      ("teams", int teams);
      ("threads", int nthr);
      ("tree_sim_s", num 6 t_tree);
      ("serial_sim_s", num 6 t_serial);
      ("atomics_per_launch", int atomics);
    ];
  check (speedup >= 1.2)
    (Printf.sprintf "tree speedup %.2fx below the 1.2x bar" speedup);
  verdict (Printf.sprintf " (%.2fx over serialized)" speedup)

(* ------------------------------------------------------------------ *)
(* multidev: sharded distribute across an N-device farm                 *)
(* ------------------------------------------------------------------ *)

(* The oracle's pure-writes gemm and atomic-chain dot on 1/2/4-device
   farms under elision.  Every leg warms up first, so each device's
   one-time module load stays outside the window and the warm call
   re-broadcasts nothing the host has not dirtied.  test_multidev counts
   the shard launches per device and runs the secondary-death cell. *)
let multidev_bench ~smoke () =
  say "=== multidev: sharded distribute across an N-device farm ===\n";
  let { check; verdict } = checks ~prefix:"CHECK FAILED" "multidev" in
  let gemm_n = if smoke then 128 else 256 in
  let gemm_teams = 64 in
  let dot_n = if smoke then 8192 else 65536 in
  let dot_teams = 32 in
  let elide = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide in
  (* the simulated times at 1, 2 and 4 devices, and whether the
     oracle's verdict holds on all three *)
  let farm (p : Oracle.program) =
    let run devices =
      let pt = { Oracle.default_point with Oracle.mem = elide; devices } in
      (pt, p.Oracle.run (Oracle.config pt))
    in
    let ((_, o1) as r1) = run 1 in
    let ((_, o2) as r2) = run 2 in
    let ((_, o4) as r4) = run 4 in
    let wrong = Oracle.verdict p [ r1; r2; r4 ] in
    List.iter (check false) wrong;
    (o1.Oracle.o_time, o2.Oracle.o_time, o4.Oracle.o_time, wrong = [])
  in
  let g1_t, g2_t, g4_t, gemm_identical =
    farm (Oracle.gemm ~n:gemm_n ~teams:gemm_teams ~nthr:128 ~warm:true ())
  in
  let g2_sp = g1_t /. g2_t and g4_sp = g1_t /. g4_t in
  say "  gemm   n=%-5d teams=%-3d  1dev %.6fs  2dev %.6fs (%.2fx)  4dev %.6fs (%.2fx)\n" gemm_n
    gemm_teams g1_t g2_t g2_sp g4_t g4_sp;
  let d1_t, d2_t, d4_t, dot_identical =
    farm (Oracle.dot ~n:dot_n ~teams:dot_teams ~nthr:128 ~warm:true ())
  in
  say "  dot    n=%-5d teams=%-3d  1dev %.6fs  2dev %.6fs (%.2fx)  4dev %.6fs (%.2fx)\n" dot_n
    dot_teams d1_t d2_t (d1_t /. d2_t) d4_t (d1_t /. d4_t);
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
  write_bench ~bench:"multidev" ~smoke ~bit_identical:(gemm_identical && dot_identical)
    ~headlines:[ ("speedup_4dev", fixed 4 g4_sp) ]
    [
      ("gemm", farm_row gemm_n gemm_teams g1_t g2_t g4_t gemm_identical);
      ("dot", farm_row dot_n dot_teams d1_t d2_t d4_t dot_identical);
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
