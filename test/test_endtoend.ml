(* End-to-end tests: complete OpenMP C programs through the full
   pipeline (translate, "nvcc", load, execute on the simulated device),
   checking program outputs. *)

let run ?(binary_mode = Gpusim.Nvcc.Cubin) src =
  let config = { Ompi.default_config with binary_mode } in
  let r = Ompi.compile_and_run ~config ~name:"e2e" src in
  (r.Ompi.run_output, r.Ompi.run_exit)

let check_output ?binary_mode name expected src =
  let out, exit_code = run ?binary_mode src in
  Alcotest.(check int) (name ^ " exit") 0 exit_code;
  Alcotest.(check string) name expected out

let test_saxpy () =
  check_output "saxpy"
    "y[0]=10.000000 y[9]=28.000000\n"
    {|
int main(void)
{
  float x[10];
  float y[10];
  int i;
  for (i = 0; i < 10; i++) { x[i] = i; y[i] = 10.0f; }
  #pragma omp target map(to: x[0:10]) map(tofrom: y[0:10])
  {
    #pragma omp parallel for
    for (i = 0; i < 10; i++)
      y[i] = 2.0f * x[i] + y[i];
  }
  printf("y[0]=%f y[9]=%f\n", y[0], y[9]);
  return 0;
}
|}

let test_combined_reduction () =
  check_output "dot product via reduction"
    "dot=332833504.000000\n"  (* f32 tree-order accumulation of 332,833,500 *)
    {|
int main(void)
{
  float a[1000];
  float b[1000];
  float dot = 0.0f;
  int i;
  for (i = 0; i < 1000; i++) { a[i] = i; b[i] = i; }
  #pragma omp target teams distribute parallel for num_teams(4) num_threads(128) \
      reduction(+: dot) map(to: a[0:1000], b[0:1000]) map(tofrom: dot)
  for (i = 0; i < 1000; i++)
    dot += a[i] * b[i];
  printf("dot=%f\n", dot);
  return 0;
}
|}

let test_max_reduction () =
  check_output "max reduction" "m=996.000000\n"
    {|
int main(void)
{
  float v[200];
  float m = -1.0f;
  int i;
  for (i = 0; i < 200; i++) v[i] = (i * 17) % 998;
  #pragma omp target teams distribute parallel for reduction(max: m) \
      map(to: v[0:200]) map(tofrom: m)
  for (i = 0; i < 200; i++)
    if (v[i] > m) m = v[i];
  printf("m=%f\n", m);
  return 0;
}
|}

let test_sections () =
  check_output "sections run exactly once each" "a=1 b=1 c=1 d=1\n"
    {|
int main(void)
{
  int hits[4] = { 0, 0, 0, 0 };
  #pragma omp target map(tofrom: hits[0:4])
  {
    #pragma omp parallel num_threads(16)
    {
      #pragma omp sections
      {
        #pragma omp section
        { hits[0] = hits[0] + 1; }
        #pragma omp section
        { hits[1] = hits[1] + 1; }
        #pragma omp section
        { hits[2] = hits[2] + 1; }
        #pragma omp section
        { hits[3] = hits[3] + 1; }
      }
    }
  }
  printf("a=%d b=%d c=%d d=%d\n", hits[0], hits[1], hits[2], hits[3]);
  return 0;
}
|}

let test_single_master_critical () =
  check_output "single + critical" "single=1 count=24\n"
    {|
int main(void)
{
  int data[2] = { 0, 0 };
  #pragma omp target map(tofrom: data[0:2])
  {
    #pragma omp parallel num_threads(24)
    {
      #pragma omp single
      { data[0] = data[0] + 1; }
      #pragma omp critical
      { data[1] = data[1] + 1; }
    }
  }
  printf("single=%d count=%d\n", data[0], data[1]);
  return 0;
}
|}

let test_barrier_phases () =
  (* without the barrier, phase 2 could read unwritten values *)
  check_output "barrier separates phases" "ok=32\n"
    {|
int main(void)
{
  int stage[32];
  int ok = 0;
  #pragma omp target map(tofrom: stage[0:32], ok)
  {
    #pragma omp parallel num_threads(32)
    {
      int me = omp_get_thread_num();
      stage[me] = me * 2;
      #pragma omp barrier
      int other = stage[31 - me];
      #pragma omp critical
      { if (other == (31 - me) * 2) ok = ok + 1; }
    }
  }
  printf("ok=%d\n", ok);
  return 0;
}
|}

let test_private_firstprivate () =
  check_output "private and firstprivate" "sum=96 base=5\n"
    {|
int main(void)
{
  int base = 5;
  int out[96];
  #pragma omp target map(tofrom: out[0:96], base)
  {
    int seed = 1;
    #pragma omp parallel num_threads(96) firstprivate(seed)
    {
      seed = seed + 0;  /* private copy initialised to 1 */
      out[omp_get_thread_num()] = seed;
    }
  }
  int s = 0;
  int i;
  for (i = 0; i < 96; i++) s += out[i];
  printf("sum=%d base=%d\n", s, base);
  return 0;
}
|}

let test_target_data_consistency () =
  check_output "target data + update" "after update: 7.000000, final: 14.000000\n"
    {|
int main(void)
{
  float v[64];
  int i;
  for (i = 0; i < 64; i++) v[i] = 7.0f;
  #pragma omp target data map(tofrom: v[0:64])
  {
    /* host change is invisible to the device until target update */
    v[3] = 999.0f;
    #pragma omp target update to(v[0:64])
    v[3] = 0.0f;
    #pragma omp target update from(v[0:64])
    printf("after update: %f, ", v[0]);
    #pragma omp target teams distribute parallel for map(tofrom: v[0:64])
    for (i = 0; i < 64; i++)
      v[i] = v[i] * 2.0f;
  }
  printf("final: %f\n", v[0]);
  return 0;
}
|}

let test_enter_exit_data () =
  check_output "enter/exit data" "r=4950\n"
    {|
int acc[100];

void prepare(void)
{
  #pragma omp target enter data map(to: acc[0:100])
}

void finish(void)
{
  #pragma omp target exit data map(from: acc[0:100])
}

int main(void)
{
  int i;
  for (i = 0; i < 100; i++) acc[i] = i;
  prepare();
  #pragma omp target teams distribute parallel for map(tofrom: acc[0:100])
  for (i = 0; i < 100; i++)
    acc[i] = acc[i];
  finish();
  int r = 0;
  for (i = 0; i < 100; i++) r += acc[i];
  printf("r=%d\n", r);
  return 0;
}
|}

let test_if_clause () =
  check_output "if() host fallback" "small=10 big=200\n"
    {|
int run(int n, int x[])
{
  int i;
  #pragma omp target if(n > 50) map(to: n) map(tofrom: x[0:100])
  {
    #pragma omp parallel for
    for (i = 0; i < n; i++)
      x[i] = 2;
  }
  int s = 0;
  for (i = 0; i < n; i++) s += x[i];
  return s;
}

int main(void)
{
  int a[100];
  int b[100];
  printf("small=%d big=%d\n", run(5, a), run(100, b));
  return 0;
}
|}

let test_declare_target_function () =
  check_output "declare target function" "v=25\n"
    {|
#pragma omp declare target
int sq(int v) { return v * v; }
#pragma omp end declare target

int main(void)
{
  int out[1];
  #pragma omp target map(tofrom: out[0:1])
  {
    out[0] = sq(5);
  }
  printf("v=%d\n", out[0]);
  return 0;
}
|}

let test_collapse_correctness () =
  check_output "collapse(2) covers the full space" "sum=4950 corners=0 99\n"
    {|
int main(void)
{
  int m[100];
  int i;
  int j;
  #pragma omp target teams distribute parallel for collapse(2) num_teams(5) num_threads(32) \
      map(tofrom: m[0:100])
  for (i = 0; i < 10; i++)
    for (j = 0; j < 10; j++)
      m[i * 10 + j] = i * 10 + j;
  int s = 0;
  for (i = 0; i < 100; i++) s += m[i];
  printf("sum=%d corners=%d %d\n", s, m[0], m[99]);
  return 0;
}
|}

let test_ptx_mode_same_result () =
  check_output ~binary_mode:Gpusim.Nvcc.Ptx "ptx mode" "y=42.000000\n"
    {|
int main(void)
{
  float y[1];
  y[0] = 21.0f;
  #pragma omp target teams distribute parallel for map(tofrom: y[0:1])
  for (int i = 0; i < 1; i++)
    y[i] = y[i] * 2.0f;
  printf("y=%f\n", y[0]);
  return 0;
}
|}

let test_multiple_targets_share_env () =
  check_output "two targets, one data region" "v=6.000000\n"
    {|
int main(void)
{
  float v[32];
  int i;
  for (i = 0; i < 32; i++) v[i] = 1.0f;
  #pragma omp target data map(tofrom: v[0:32])
  {
    #pragma omp target teams distribute parallel for map(tofrom: v[0:32])
    for (i = 0; i < 32; i++)
      v[i] = v[i] + 2.0f;
    #pragma omp target teams distribute parallel for map(tofrom: v[0:32])
    for (i = 0; i < 32; i++)
      v[i] = v[i] * 2.0f;
  }
  printf("v=%f\n", v[0]);
  return 0;
}
|}

let test_dynamic_schedule_e2e () =
  check_output "dynamic schedule correctness" "total=499500\n"
    {|
int main(void)
{
  int v[1000];
  int i;
  #pragma omp target map(tofrom: v[0:1000])
  {
    #pragma omp parallel num_threads(64)
    {
      #pragma omp for schedule(dynamic, 7)
      for (i = 0; i < 1000; i++)
        v[i] = i;
    }
  }
  int t = 0;
  for (i = 0; i < 1000; i++) t += v[i];
  printf("total=%d\n", t);
  return 0;
}
|}

let test_guided_schedule_e2e () =
  check_output "guided schedule correctness" "total=499500\n"
    {|
int main(void)
{
  int v[1000];
  int i;
  #pragma omp target map(tofrom: v[0:1000])
  {
    #pragma omp parallel num_threads(64)
    {
      #pragma omp for schedule(guided, 4)
      for (i = 0; i < 1000; i++)
        v[i] = i;
    }
  }
  int t = 0;
  for (i = 0; i < 1000; i++) t += v[i];
  printf("total=%d\n", t);
  return 0;
}
|}

let test_device_api_queries () =
  check_output "device API inside kernel" "teams=4 threads=32 dev=0 host=1\n"
    {|
int main(void)
{
  int info[4];
  #pragma omp target teams distribute parallel for num_teams(4) num_threads(32) \
      map(tofrom: info[0:4])
  for (int i = 0; i < 4; i++) {
    if (i == 0) {
      info[0] = omp_get_num_teams();
      info[1] = omp_get_num_threads();
      info[2] = omp_is_initial_device();
    }
  }
  info[3] = omp_is_initial_device();
  printf("teams=%d threads=%d dev=%d host=%d\n", info[0], info[1], info[2], info[3]);
  return 0;
}
|}


let test_atomic_update () =
  check_output "atomic update" "acc=96.000000 cnt=96\n"
    {|
int main(void)
{
  float acc[1];
  int cnt[1];
  acc[0] = 0.0f;
  cnt[0] = 0;
  #pragma omp target map(tofrom: acc[0:1], cnt[0:1])
  {
    #pragma omp parallel num_threads(96)
    {
      #pragma omp atomic
      acc[0] += 1.0f;
      #pragma omp atomic update
      cnt[0] = cnt[0] + 1;
    }
  }
  printf("acc=%f cnt=%d\n", acc[0], cnt[0]);
  return 0;
}
|}

let test_atomic_in_combined () =
  check_output "atomic histogram in combined kernel" "h=125 125 125 125\n"
    {|
int main(void)
{
  int hist[4] = { 0, 0, 0, 0 };
  #pragma omp target teams distribute parallel for num_teams(4) num_threads(125) \
      map(tofrom: hist[0:4])
  for (int i = 0; i < 500; i++) {
    #pragma omp atomic
    hist[i % 4] += 1;
  }
  printf("h=%d %d %d %d\n", hist[0], hist[1], hist[2], hist[3]);
  return 0;
}
|}

let test_thread_limit () =
  check_output "thread_limit caps the team" "threads=64\n"
    {|
int main(void)
{
  int seen[1];
  #pragma omp target teams distribute parallel for num_teams(1) num_threads(256) \
      thread_limit(64) map(tofrom: seen[0:1])
  for (int i = 0; i < 64; i++) {
    if (i == 0)
      seen[0] = omp_get_num_threads();
  }
  printf("threads=%d\n", seen[0]);
  return 0;
}
|}


let test_collapse3 () =
  check_output "collapse(3)" "sum=2016 last=63\n"
    {|
int main(void)
{
  int v[64];
  int i;
  int j;
  int k;
  #pragma omp target teams distribute parallel for collapse(3) num_teams(2) num_threads(32) \
      map(tofrom: v[0:64])
  for (i = 0; i < 4; i++)
    for (j = 0; j < 4; j++)
      for (k = 0; k < 4; k++)
        v[i * 16 + j * 4 + k] = i * 16 + j * 4 + k;
  int s = 0;
  for (i = 0; i < 64; i++) s += v[i];
  printf("sum=%d last=%d\n", s, v[63]);
  return 0;
}
|}

let test_nested_target_data () =
  check_output "nested target data regions" "x=4.000000\n"
    {|
int main(void)
{
  float x[8];
  int i;
  for (i = 0; i < 8; i++) x[i] = 1.0f;
  #pragma omp target data map(tofrom: x[0:8])
  {
    #pragma omp target data map(tofrom: x[0:8])
    {
      #pragma omp target teams distribute parallel for map(tofrom: x[0:8])
      for (i = 0; i < 8; i++)
        x[i] = x[i] * 2.0f;
    }
    #pragma omp target teams distribute parallel for map(tofrom: x[0:8])
    for (i = 0; i < 8; i++)
      x[i] = x[i] * 2.0f;
  }
  printf("x=%f\n", x[3]);
  return 0;
}
|}

let test_named_critical () =
  check_output "two named critical sections" "a=48 b=48\n"
    {|
int main(void)
{
  int c[2] = { 0, 0 };
  #pragma omp target map(tofrom: c[0:2])
  {
    #pragma omp parallel num_threads(48)
    {
      #pragma omp critical(left)
      { c[0] = c[0] + 1; }
      #pragma omp critical(right)
      { c[1] = c[1] + 1; }
    }
  }
  printf("a=%d b=%d\n", c[0], c[1]);
  return 0;
}
|}

let test_min_mul_reductions () =
  check_output "min and * reductions" "min=2.000000 prod=720.000000\n"
    {|
int main(void)
{
  float v[6];
  int i;
  for (i = 0; i < 6; i++) v[i] = i + 1.0f;
  v[0] = 2.0f;
  v[3] = 2.0f;
  float lo = 1.0e38f;
  float prod = 2.0f;
  #pragma omp target teams distribute parallel for reduction(min: lo) \
      map(to: v[0:6]) map(tofrom: lo)
  for (i = 0; i < 6; i++)
    if (v[i] < lo) lo = v[i];
  #pragma omp target teams distribute parallel for reduction(*: prod) \
      map(to: v[0:6]) map(tofrom: prod)
  for (i = 1; i < 6; i++)
    prod *= v[i];
  printf("min=%f prod=%f\n", lo, prod);
  return 0;
}
|}

let test_master_region () =
  check_output "master construct" "done=1 total=12\n"
    {|
int main(void)
{
  int d[2] = { 0, 0 };
  #pragma omp target map(tofrom: d[0:2])
  {
    #pragma omp parallel num_threads(12)
    {
      #pragma omp master
      { d[0] = d[0] + 1; }
      #pragma omp critical
      { d[1] = d[1] + 1; }
    }
  }
  printf("done=%d total=%d\n", d[0], d[1]);
  return 0;
}
|}

let test_nowait_single () =
  check_output "single nowait" "v=1\n"
    {|
int main(void)
{
  int v[1] = { 0 };
  #pragma omp target map(tofrom: v[0:1])
  {
    #pragma omp parallel num_threads(8)
    {
      #pragma omp single nowait
      { v[0] = v[0] + 1; }
    }
  }
  printf("v=%d\n", v[0]);
  return 0;
}
|}


(* property: the combined construct fills an iteration space completely
   for arbitrary sizes, schedules and geometry *)
let prop_combined_covers_space =
  QCheck.Test.make ~name:"combined construct covers the space (any schedule/geometry)" ~count:20
    QCheck.(
      triple (int_range 1 400)
        (oneofl [ "static"; "static, 3"; "dynamic, 5"; "guided, 2" ])
        (pair (int_range 1 6) (oneofl [ 32; 64; 128; 256 ])))
    (fun (n, sched, (teams, threads)) ->
      let src =
        Printf.sprintf
          {|
int main(void)
{
  int v[%d];
  int i;
  #pragma omp target teams distribute parallel for num_teams(%d) num_threads(%d) \
      schedule(%s) map(tofrom: v[0:%d])
  for (i = 0; i < %d; i++)
    v[i] = i + 1;
  int bad = 0;
  for (i = 0; i < %d; i++)
    if (v[i] != i + 1) bad = bad + 1;
  printf("%%d", bad);
  return 0;
}
|}
          n teams threads sched n n n
      in
      let out, exit_code = run src in
      exit_code = 0 && out = "0")


(* JIT disk cache (paper §3.3): in PTX mode the first launch of a kernel
   JIT-compiles it; a later process on the same machine finds the
   compiled binary in the driver's disk cache and skips the JIT step.
   Within one process a relaunched kernel is simply module-resident.
   All three behaviours are asserted from the launch trace. *)
let test_jit_cache_across_instances () =
  let src =
    {|
int main(void)
{
  float y[8];
  int i;
  int r;
  for (i = 0; i < 8; i++) y[i] = 1.0f;
  for (r = 0; r < 2; r++) {
    #pragma omp target teams distribute parallel for map(tofrom: y[0:8])
    for (i = 0; i < 8; i++)
      y[i] = y[i] * 2.0f;
  }
  printf("y=%f\n", y[0]);
  return 0;
}
|}
  in
  let config = { Ompi.default_config with binary_mode = Gpusim.Nvcc.Ptx } in
  let compiled = Ompi.compile ~name:"jitcache" src in
  let count tr ~name = Perf.Trace.count_events tr ~cat:"jit" ~name () in
  (* cold start: the PTX is JIT-compiled exactly once, and the second
     launch of the same kernel finds the module already resident *)
  let inst1 = Ompi.load ~config ~trace:true compiled in
  let r1 = Ompi.run inst1 () in
  Alcotest.(check string) "cold output" "y=4.000000\n" r1.Ompi.run_output;
  let tr1 = Option.get inst1.Ompi.i_trace in
  Alcotest.(check int) "cold run JIT-compiles once" 1 (count tr1 ~name:"jit_compile");
  Alcotest.(check int) "cold run has no cache hit" 0 (count tr1 ~name:"jit_cache_hit");
  Alcotest.(check int) "relaunch is module-resident" 1
    (Perf.Trace.count_events tr1 ~cat:"load" ~name:"module_resident" ());
  (* warm start: a new runtime instance on the same "machine" — carry the
     driver's disk cache over, as a second process would see it *)
  let inst2 = Ompi.load ~config ~trace:true compiled in
  let driver_of inst = (Hostrt.Rt.device inst.Ompi.i_rt 0).Hostrt.Rt.dev_driver in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace (driver_of inst2).Gpusim.Driver.jit_cache k v)
    (driver_of inst1).Gpusim.Driver.jit_cache;
  let r2 = Ompi.run inst2 () in
  Alcotest.(check string) "warm output" "y=4.000000\n" r2.Ompi.run_output;
  let tr2 = Option.get inst2.Ompi.i_trace in
  Alcotest.(check int) "warm run hits the disk cache" 1 (count tr2 ~name:"jit_cache_hit");
  Alcotest.(check int) "warm run does not recompile" 0 (count tr2 ~name:"jit_compile");
  (* and the cache makes module load measurably cheaper *)
  let load_ns tr =
    List.filter_map
      (fun (s : Perf.Trace.span) -> if s.sp_name = "module_load" then Some s.sp_dur_ns else None)
      (Perf.Trace.spans tr)
  in
  match (load_ns tr1, load_ns tr2) with
  | [ cold ], [ warm ] ->
    Alcotest.(check bool)
      (Printf.sprintf "cached load is cheaper (%.0f ns < %.0f ns)" warm cold)
      true (warm < cold)
  | l1, l2 ->
    Alcotest.failf "expected one module_load span per run, got %d and %d" (List.length l1)
      (List.length l2)

let test_dist_schedule () =
  check_output "dist_schedule(static, c) covers the space" "sum=19900 first=0 last=199\n"
    {|
int main(void)
{
  int v[200];
  int i;
  #pragma omp target teams distribute parallel for num_teams(3) num_threads(32) \
      dist_schedule(static, 16) map(tofrom: v[0:200])
  for (i = 0; i < 200; i++)
    v[i] = i;
  int s = 0;
  for (i = 0; i < 200; i++) s += v[i];
  printf("sum=%d first=%d last=%d\n", s, v[0], v[199]);
  return 0;
}
|}

let () =
  Alcotest.run "endtoend"
    [
      ( "offloading",
        [
          Alcotest.test_case "saxpy (Fig.1)" `Quick test_saxpy;
          Alcotest.test_case "combined + reduction" `Quick test_combined_reduction;
          Alcotest.test_case "max reduction" `Quick test_max_reduction;
          Alcotest.test_case "collapse correctness" `Quick test_collapse_correctness;
          Alcotest.test_case "PTX binary mode" `Quick test_ptx_mode_same_result;
          Alcotest.test_case "device API queries" `Quick test_device_api_queries;
          Alcotest.test_case "JIT cache across instances" `Quick test_jit_cache_across_instances;
        ] );
      ( "device worksharing",
        [
          Alcotest.test_case "sections" `Quick test_sections;
          Alcotest.test_case "single + critical" `Quick test_single_master_critical;
          Alcotest.test_case "barrier phases" `Quick test_barrier_phases;
          Alcotest.test_case "private/firstprivate" `Quick test_private_firstprivate;
          Alcotest.test_case "dynamic schedule" `Quick test_dynamic_schedule_e2e;
          Alcotest.test_case "atomic update" `Quick test_atomic_update;
          Alcotest.test_case "atomic in combined kernel" `Quick test_atomic_in_combined;
          Alcotest.test_case "thread_limit" `Quick test_thread_limit;
          Alcotest.test_case "collapse(3)" `Quick test_collapse3;
          Alcotest.test_case "named critical" `Quick test_named_critical;
          Alcotest.test_case "min and * reductions" `Quick test_min_mul_reductions;
          Alcotest.test_case "master construct" `Quick test_master_region;
          Alcotest.test_case "single nowait" `Quick test_nowait_single;
          Alcotest.test_case "dist_schedule(static, c)" `Quick test_dist_schedule;
          Alcotest.test_case "guided schedule" `Quick test_guided_schedule_e2e;
          QCheck_alcotest.to_alcotest prop_combined_covers_space;
        ] );
      ( "data environment",
        [
          Alcotest.test_case "target data + update" `Quick test_target_data_consistency;
          Alcotest.test_case "enter/exit data" `Quick test_enter_exit_data;
          Alcotest.test_case "if clause fallback" `Quick test_if_clause;
          Alcotest.test_case "declare target function" `Quick test_declare_target_function;
          Alcotest.test_case "multiple targets share env" `Quick test_multiple_targets_share_env;
          Alcotest.test_case "nested target data" `Quick test_nested_target_data;
        ] );
    ]
