(* The configuration-matrix oracle: one differential for every runtime
   configuration, and the catalogue of programs it runs.  The test
   suites and the benches both link it: the tests assert its checks,
   and a bench's [bit_identical] is its verdict on the runs the bench
   timed.

   A program maps a run configuration ([Hostrt.Rt.config]) to an
   observation: its output bits, printed output and exit code, its
   simulated time, an exact per-device launch log, and the counts of its
   trace events.  A point of the product

     mem {auto, copy, elide, zerocopy} x streams {1, 4}
       x devices {1, 2, 4} x faults {none, transient, fatal}

   is checked against the same program under [Rt.default_config], whose
   outputs are anchored once against the program's stripped host
   reference (bit for bit, or within a relative tolerance for float
   reductions):

   1. the outputs are bit-identical to the default run's;
   2. unless a device died, the per-entry sums over all devices of
      blocks_executed, thread_inst_sum and atomics equal the default
      run's;
   3. with [jit] flipped at the same point, the outputs, the launch log
      and the simulated time are identical;
   4. every deliberate deviation has its trace evidence: a farm launch
      that ran its grid on one device is announced by
      shard_mixed_modes, each dead device by one device_dead, and a
      fault plan leaves the recovery or the death and host fallback it
      promises.

   [pairwise] is the committed table of points covering every pair of
   axis values; the tests run it under both executors. *)

open Machine
open Gpusim
open Polybench
module Rt = Hostrt.Rt
module Report = Hostrt.Run_report

(* ---------------------------------------------------------------- *)
(* Observation                                                        *)
(* ---------------------------------------------------------------- *)

type obs = {
  o_out : int32 array;  (** output bits: float32 values by their bits, ints as they are *)
  o_text : string;  (** printed output *)
  o_exit : int;
  o_time : float;  (** simulated seconds *)
  o_log : string list;  (** exact launch log, device by device, oldest first *)
  o_sums : (string * (int * float * int)) list;
      (** per entry over all devices: blocks executed, thread instructions, atomics *)
  o_events : ((string * string) * int) list;  (** trace events by category and name *)
  o_dead : int list;  (** ordinals of the devices declared dead *)
  o_unsharded : int;  (** farm launches that ran a multi-block grid on one device *)
  o_trace : Perf.Trace.t option;  (** the run's trace, when it was traced *)
}

(* Every dynamic statistic of a launch, flattened to a string so launch
   lists compare (and print on failure) wholesale: the totals, then each
   allocation's and each pinned range's own record.  Floats print with
   %h, so nothing below the last digit escapes a comparison. *)
let counters_summary (c : Counters.t) : string =
  let cl = c.Counters.classes in
  let sorted tbl = List.sort compare (Hashtbl.fold (fun id s acc -> (id, s) :: acc) tbl []) in
  let per_alloc =
    List.map
      (fun (id, (s : Counters.alloc_stats)) ->
        let samples =
          List.sort compare
            (Counters.fold_samples
               (fun key sm acc -> (key, Counters.sample_segments sm, sm.Counters.sm_lanes) :: acc)
               s [])
        in
        Printf.sprintf " a%d=%d/%d st[%d,%d) at[%d,%d) samples=%s" id s.Counters.a_loads
          s.Counters.a_stores s.Counters.a_store_lo s.Counters.a_store_hi s.Counters.a_atomic_lo
          s.Counters.a_atomic_hi
          (String.concat ";"
             (List.map
                (fun (key, segs, n) ->
                  Printf.sprintf "%d:%s*%d" key (String.concat "," (List.map string_of_int segs)) n)
                samples)))
      (sorted c.Counters.per_alloc)
  in
  let per_pin =
    List.map
      (fun (id, (s : Counters.pin_stats)) ->
        Printf.sprintf " p%d=%d/%d" id s.Counters.p_loads s.Counters.p_stores)
      (sorted c.Counters.per_pin)
  in
  let totals =
    Printf.sprintf
      "arith=%d mul=%d div=%d branch=%d call=%d special=%d thread_sum=%h warp_sum=%h \
       warp_max=%h shared=%d barriers=%d atomics=%d chunks=%d blocks=%d/%d zc=%d/%d \
       glb=%d tx=%h"
      cl.Counters.arith cl.Counters.mul cl.Counters.div cl.Counters.branch cl.Counters.call
      cl.Counters.special c.Counters.thread_inst_sum c.Counters.warp_inst_sum
      c.Counters.warp_inst_max c.Counters.shared_accesses
      c.Counters.barrier_warp_arrivals c.Counters.atomics c.Counters.chunk_grabs
      c.Counters.blocks_executed c.Counters.blocks_total c.Counters.zerocopy_loads
      c.Counters.zerocopy_stores
      (Counters.global_accesses c)
      (Counters.global_transactions c)
  in
  totals ^ String.concat "" per_alloc ^ String.concat "" per_pin

(* Per-launch record: device, entry, counters, cycles, time. *)
let launch_log (report : Report.t) : string list =
  List.map
    (fun (d, (s : Driver.launch_stats)) ->
      Printf.sprintf "dev%d %s: %s | cycles=%h time_ns=%h" d s.Driver.st_entry
        (counters_summary s.Driver.st_counters)
        s.Driver.st_breakdown.Costmodel.bd_total_cycles s.Driver.st_breakdown.Costmodel.bd_time_ns)
    (Report.launches report)

let entry_sums (report : Report.t) : (string * (int * float * int)) list =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (_, (s : Driver.launch_stats)) ->
      let c = s.Driver.st_counters in
      let b, t, a = Option.value ~default:(0, 0.0, 0) (Hashtbl.find_opt tbl s.Driver.st_entry) in
      Hashtbl.replace tbl s.Driver.st_entry
        ( b + c.Counters.blocks_executed,
          t +. c.Counters.thread_inst_sum,
          a + c.Counters.atomics ))
    (Report.launches report);
  List.sort compare (Hashtbl.fold (fun e v acc -> (e, v) :: acc) tbl [])

let trace_counts (tr : Perf.Trace.t) : ((string * string) * int) list =
  if Perf.Trace.dropped tr > 0 then failwith "Oracle: trace ring overflowed";
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (e : Perf.Trace.event) ->
      let k = (e.Perf.Trace.ev_cat, e.Perf.Trace.ev_name) in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    (Perf.Trace.events tr);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* What a run left in [rt] (and, when traced, in [trace]). *)
let observe ?trace ?(out = [||]) ?(text = "") ?(exit = 0) (rt : Rt.t) ~(time : float) : obs =
  let farm = Rt.num_devices rt > 1 in
  let report = Report.of_rt rt in
  {
    o_out = out;
    o_text = text;
    o_exit = exit;
    o_time = time;
    o_log = launch_log report;
    o_sums = entry_sums report;
    o_events = Option.fold ~none:[] ~some:trace_counts trace;
    o_dead = List.map fst report.Report.r_dead;
    o_unsharded =
      List.length
        (List.filter
           (fun (_, (s : Driver.launch_stats)) ->
             let grid = Simt.dim3_total s.Driver.st_grid in
             farm && grid >= 2 && s.Driver.st_counters.Counters.blocks_executed = grid)
           (Report.launches report));
    o_trace = trace;
  }

let count (o : obs) ~(cat : string) (name : string) : int =
  Option.value ~default:0 (List.assoc_opt (cat, name) o.o_events)

let bits (a : float array) : int32 array = Array.map Int32.bits_of_float a

(* Check 3: the executor switch moves no output, no launch record and
   not the simulated time.  The first differing record is reported. *)
let executor_violations (jit : obs) (interp : obs) : string list =
  let rec first_diff a b =
    match (a, b) with
    | [], [] -> []
    | x :: a, y :: b -> if x = y then first_diff a b else [ Printf.sprintf "launch %S <> %S" x y ]
    | _ -> [ "the executors launched different numbers of kernels" ]
  in
  List.concat
    [
      (if jit.o_out = interp.o_out then [] else [ "outputs differ between the executors" ]);
      (if jit.o_text = interp.o_text then []
       else [ Printf.sprintf "prints %S under the JIT, %S interpreted" jit.o_text interp.o_text ]);
      first_diff jit.o_log interp.o_log;
      (if jit.o_time = interp.o_time then []
       else [ "simulated time differs between the executors" ]);
    ]

(* ---------------------------------------------------------------- *)
(* Programs                                                           *)
(* ---------------------------------------------------------------- *)

type program = {
  name : string;
  run : Rt.config -> obs;
  reference : unit -> obs;  (** the stripped host reference (outputs only) *)
  tol : float;  (** 0: the default run matches the reference bit for bit *)
  shards : bool;  (** false: its regions are [nowait], which run on their target device *)
}

let traced_harness (config : Rt.config) : Harness.ctx * Perf.Trace.t =
  let ctx = Harness.create ~config () in
  Harness.set_sampling ctx None;
  (ctx, Harness.enable_trace ctx)

(* The operands of a Harness source in one context: the call's
   arguments, the writer of its inputs and the reader of its outputs. *)
type operands = { args : Value.t list; fill : unit -> unit; read : unit -> int32 array }

let read_f32s ctx (outs : (Addr.t * int) list) () : int32 array =
  bits (Array.concat (List.map (fun (a, len) -> Harness.read_f32_array ctx a len) outs))

(* A Harness OpenMP source: [setup] allocates the operands in the fresh
   context; they are filled, and the measured window makes [calls]
   calls.  With [warm], one call runs before the window and the inputs
   are filled again, so every device's module load falls outside it and
   the window sees the same bytes (the host reference skips it). *)
let omp ~name ?(tol = 0.0) ?(shards = true) ?(calls = 1) ?(warm = false) ~(source : string)
    ~(entry : string) (setup : Harness.ctx -> operands) : program =
  let go ~host_interp config =
    let ctx, tr = traced_harness config in
    let o = setup ctx in
    o.fill ();
    let p = Harness.prepare_omp ~host_interp ctx ~name source in
    let call () = Harness.call_omp p entry o.args in
    if warm && not host_interp then begin
      call ();
      o.fill ()
    end;
    let time =
      Harness.measure ctx (fun () ->
          for _ = 1 to calls do
            call ()
          done)
    in
    observe ~trace:tr ctx.Harness.rt ~time ~out:(o.read ())
  in
  {
    name;
    run = go ~host_interp:false;
    reference = (fun () -> go ~host_interp:true Rt.default_config);
    tol;
    shards;
  }

let smallest (app : Suite.app) : int =
  match app.Suite.ap_validate_sizes with
  | n :: _ -> n
  | [] -> failwith (app.Suite.ap_name ^ " has no validation sizes")

(* A Polybench app, by default at its smallest validation size; its
   reference is the OpenMP variant with the directives stripped, run on
   the host. *)
let polybench ?(variant = Harness.Ompi_cudadev) ?n (app : Suite.app) : program =
  let n = Option.value n ~default:(smallest app) in
  let go variant config =
    let ctx, tr = traced_harness config in
    let time, out = app.Suite.ap_run ctx variant ~n in
    observe ~trace:tr ctx.Harness.rt ~time ~out:(bits out)
  in
  {
    name = app.Suite.ap_name ^ "/" ^ Harness.variant_label variant;
    run = go variant;
    reference = (fun () -> go Harness.Host_interp Rt.default_config);
    tol = 0.0;
    shards = true;
  }

(* [dune runtest] runs in _build/default/test; [dune exec] in the root. *)
let read_example (file : string) : string =
  let path = Filename.concat "../examples" file in
  let path = if Sys.file_exists path then path else Filename.concat "examples" file in
  In_channel.with_open_bin path In_channel.input_all

(* An [examples/*.c] program, run the way ompirun runs it; its reference
   is the same source with the directives stripped, run on the host. *)
let example (file : string) : program =
  let source = lazy (read_example file) in
  let compiled = lazy (Ompi.compile ~name:(Filename.remove_extension file) (Lazy.force source)) in
  {
    name = file;
    run =
      (fun config ->
        let inst = Ompi.load ~config ~trace:true (Lazy.force compiled) in
        let r = Ompi.run inst () in
        observe ?trace:inst.Ompi.i_trace inst.Ompi.i_rt ~time:r.Ompi.run_time_s
          ~text:r.Ompi.run_output ~exit:r.Ompi.run_exit);
    reference =
      (fun () ->
        let program =
          Translator.Strip.strip_program
            (Omp.Rewrite.rewrite_program (Minic.Parser.parse_program (Lazy.force source)))
        in
        let rt = Rt.create () in
        let r = Hostrt.Hostexec.run rt program () in
        observe rt ~time:0.0 ~text:r.Hostrt.Hostexec.rr_output ~exit:r.Hostrt.Hostexec.rr_exit);
    tol = 0.0;
    shards = true;
  }

(* ---------------------------------------------------------------- *)
(* The catalogue: every source the tests and the benches share        *)
(* ---------------------------------------------------------------- *)

let f_a i = Refmath.r32 (float_of_int ((i * 7) mod 23) /. 23.0)

let f_b i = Refmath.r32 (float_of_int ((i * 5) mod 17) /. 17.0)

let f_c i = Refmath.r32 (float_of_int ((i mod 9) - 4) /. 8.0)

let i_a i = ((i * 7) mod 31) - 15

let i_b i = ((i * 5) mod 23) - 11

(* Pure writes: every c element produced by exactly one thread, so a
   farm's ascending-shard merge must reproduce the 1-device bytes. *)
let gemm_src =
  {|
void gemm_md(int n, int teams, int nthr, float alpha, float beta, float a[], float b[], float c[])
{
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) \
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

(* Atomic chain: one publish atomic per team into s, so shard k+1's
   result depends on the bytes shard k left behind. *)
let dot_src =
  {|
void dot_f(int n, int teams, int nthr, float x[], float y[], float out[])
{
  float s = 0.0f;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) \
      reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

(* The same reduction over ints: order-insensitive, so even a recovered
   or host-fallback run must reproduce the bytes exactly. *)
let dot_int_src =
  {|
void dot_i(int n, int teams, int nthr, int x[], int y[], int out[])
{
  int s = 0;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) \
      reduction(+: s) map(to: n, x[0:n], y[0:n]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    s += x[i] * y[i];
  out[0] = s;
}
|}

let gemm ?(n = 16) ?(teams = 8) ?(nthr = 64) ?warm () : program =
  omp ~name:"md_gemm" ?warm ~source:gemm_src ~entry:"gemm_md" (fun ctx ->
      let nn = n * n in
      let a = Harness.alloc_f32 ctx nn and b = Harness.alloc_f32 ctx nn in
      let c = Harness.alloc_f32 ctx nn in
      {
        args =
          Harness.[ vint n; vint teams; vint nthr; vf32 1.5; vf32 1.2; fptr a; fptr b; fptr c ];
        fill =
          (fun () ->
            Harness.fill_f32 ctx a nn f_a;
            Harness.fill_f32 ctx b nn f_b;
            Harness.fill_f32 ctx c nn f_c);
        read = read_f32s ctx [ (c, nn) ];
      })

let dot ?(n = 1024) ?(teams = 8) ?(nthr = 64) ?warm () : program =
  omp ~name:"md_dot" ~tol:1e-3 ?warm ~source:dot_src ~entry:"dot_f" (fun ctx ->
      let x = Harness.alloc_f32 ctx n and y = Harness.alloc_f32 ctx n in
      let out = Harness.alloc_f32 ctx 1 in
      {
        args = Harness.[ vint n; vint teams; vint nthr; fptr x; fptr y; fptr out ];
        fill =
          (fun () ->
            Harness.fill_f32 ctx x n f_a;
            Harness.fill_f32 ctx y n f_b);
        read = read_f32s ctx [ (out, 1) ];
      })

let dot_int ?(n = 1024) ?(teams = 8) ?(nthr = 64) () : program =
  omp ~name:"dot_int" ~source:dot_int_src ~entry:"dot_i" (fun ctx ->
      let x = Harness.alloc_i32 ctx n and y = Harness.alloc_i32 ctx n in
      let out = Harness.alloc_i32 ctx 1 in
      {
        args = Harness.[ vint n; vint teams; vint nthr; fptr x; fptr y; fptr out ];
        fill =
          (fun () ->
            Harness.fill_i32 ctx x n i_a;
            Harness.fill_i32 ctx y n i_b);
        read = (fun () -> [| Int32.of_int (Harness.get_i32 ctx out 0) |]);
      })

(* A tiled matvec over one reused kernel (atax-style): [tiles] regions
   of [rows] rows each.  With [nowait] the tiles spread over the stream
   pool and tile t+1's HtoD runs while tile t computes.  Tile bases are
   pointer locals because array sections must start at offset 0. *)
let pipeline_source ~nowait ~taskwait =
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
    %s
  }
}
|}
    (if nowait then "nowait" else "")
    (if taskwait then "#pragma omp taskwait" else "")

(* At 128 rows, one row per device thread: the tile matvec time stays
   close to its HtoD time, so overlap has something to hide. *)
let pipeline ?(nowait = true) ?(taskwait = nowait) ?(rows = 128) ?(tiles = 3) () : program =
  let n = 64 in
  omp ~name:"pipeline" ~shards:(not nowait) ~source:(pipeline_source ~nowait ~taskwait)
    ~entry:"pipeline"
    (fun ctx ->
      let total = tiles * rows in
      let a = Harness.alloc_f32 ctx (total * n) in
      let x = Harness.alloc_f32 ctx n and y = Harness.alloc_f32 ctx total in
      {
        args = Harness.[ vint n; vint rows; vint tiles; fptr a; fptr x; fptr y ];
        fill =
          (fun () ->
            Harness.fill_f32 ctx a (total * n) (fun i -> float_of_int ((i mod 11) - 5) *. 0.5);
            Harness.fill_f32 ctx x n (fun i -> float_of_int ((i mod 5) - 2) *. 0.25));
        read = read_f32s ctx [ (y, total) ];
      })

(* A nowait region's map(always, to:) on a range a data region already
   mapped: the host stores 7 into the present range, and the region must
   copy it again, as a synchronous region does (the stripped host run
   reads 7; a skipped copy reads the 1 mapped at the data region). *)
let always_nowait_src =
  {|
void always_nowait(int a[], int r[])
{
  #pragma omp target data map(to: a[0:4])
  {
    for (int i = 0; i < 4; i++)
      a[i] = 7;
    #pragma omp target map(always, to: a[0:4]) map(tofrom: r[0:4]) nowait
    {
      r[0] = a[0];
    }
    #pragma omp taskwait
  }
}
|}

let always_nowait () : program =
  omp ~name:"always_nowait" ~shards:false ~source:always_nowait_src ~entry:"always_nowait"
    (fun ctx ->
      let a = Harness.alloc_i32 ctx 4 and r = Harness.alloc_i32 ctx 4 in
      {
        args = Harness.[ fptr a; fptr r ];
        fill =
          (fun () ->
            Harness.fill_i32 ctx a 4 (fun _ -> 1);
            Harness.fill_i32 ctx r 4 (fun _ -> 0));
        read = (fun () -> [| Int32.of_int (Harness.get_i32 ctx r 0) |]);
      })

(* A whole program whose target region runs the master/worker path, and
   what it prints. *)
let saxpy_src =
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

let saxpy_expected = "y[0]=10.000000 y[9]=28.000000\n"

(* ---- replays: one host working set offloaded again and again ---- *)

(* The suite's entry points allocate fresh host arrays per call, which
   hides what transfer elision exploits.  A replay allocates its arrays
   once and calls the entry point [iters] times in the measured window:
   the shape of an iterative solver calling an offloaded step in a
   loop. *)
let teams_of n = (n + 255) / 256

let atax_replay ~n ~iters =
  omp ~name:"atax" ~calls:iters ~source:Atax.omp_source ~entry:"atax_omp" (fun ctx ->
      let open Harness in
      let a = alloc_f32 ctx (n * n) and x = alloc_f32 ctx n in
      let y = alloc_f32 ctx n and tmp = alloc_f32 ctx n in
      {
        args = [ vint n; vint (teams_of n); fptr a; fptr x; fptr y; fptr tmp ];
        fill =
          (fun () ->
            fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 17) - 8) /. 32.0);
            fill_f32 ctx x n (fun i -> 1.0 +. (float_of_int (i mod 5) /. 5.0));
            fill_f32 ctx y n (fun _ -> 0.0);
            fill_f32 ctx tmp n (fun _ -> 0.0));
        read = read_f32s ctx [ (y, n) ];
      })

let bicg_replay ~n ~iters =
  omp ~name:"bicg" ~calls:iters ~source:Bicg.omp_source ~entry:"bicg_omp" (fun ctx ->
      let open Harness in
      let a = alloc_f32 ctx (n * n) and r = alloc_f32 ctx n and p = alloc_f32 ctx n in
      let s = alloc_f32 ctx n and q = alloc_f32 ctx n in
      {
        args = [ vint n; vint (teams_of n); fptr a; fptr r; fptr p; fptr s; fptr q ];
        fill =
          (fun () ->
            fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 13) - 6) /. 26.0);
            fill_f32 ctx r n (fun i -> float_of_int (i mod 7) /. 7.0);
            fill_f32 ctx p n (fun i -> float_of_int (i mod 3) /. 3.0);
            fill_f32 ctx s n (fun _ -> 0.0);
            fill_f32 ctx q n (fun _ -> 0.0));
        read = read_f32s ctx [ (s, n); (q, n) ];
      })

let mvt_replay ~n ~iters =
  omp ~name:"mvt" ~calls:iters ~source:Mvt.omp_source ~entry:"mvt_omp" (fun ctx ->
      let open Harness in
      let a = alloc_f32 ctx (n * n) in
      let x1 = alloc_f32 ctx n and x2 = alloc_f32 ctx n in
      let y1 = alloc_f32 ctx n and y2 = alloc_f32 ctx n in
      {
        args = [ vint n; vint (teams_of n); fptr a; fptr x1; fptr x2; fptr y1; fptr y2 ];
        fill =
          (fun () ->
            fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 11) - 5) /. 22.0);
            fill_f32 ctx x1 n (fun i -> float_of_int (i mod 4) /. 4.0);
            fill_f32 ctx x2 n (fun i -> float_of_int (i mod 6) /. 6.0);
            fill_f32 ctx y1 n (fun i -> float_of_int (i mod 9) /. 9.0);
            fill_f32 ctx y2 n (fun i -> float_of_int (i mod 8) /. 8.0));
        read = read_f32s ctx [ (x1, n); (x2, n) ];
      })

(* A read-only tofrom mapping: the kernel never writes [a], so under
   elision its copy-back disappears (the visible elided-D2H case; the
   suite apps only exercise elided H2D). *)
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

let readscale ?(always = false) ~n ~iters () =
  let name, source =
    if always then ("readscale_always", readscale_always_source)
    else ("readscale", readscale_source)
  in
  omp ~name ~calls:iters ~source ~entry:"readscale" (fun ctx ->
      let open Harness in
      let a = alloc_f32 ctx n and y = alloc_f32 ctx n in
      {
        args = [ vint n; vint ((n + 63) / 64); fptr a; fptr y ];
        fill =
          (fun () ->
            fill_f32 ctx a n (fun i -> float_of_int ((i mod 19) - 9) /. 19.0);
            fill_f32 ctx y n (fun i -> float_of_int (i mod 5) /. 5.0));
        read = read_f32s ctx [ (y, n) ];
      })

(* Mixed buffer temperatures in one region: [a] is a hot read-only
   matrix (its history should converge on elide), while the device
   rewrites [y] every iteration, so its round trips are cheapest pinned
   in place (zerocopy).  No single forced mode serves both buffers. *)
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

let hotcold ~n ~iters =
  omp ~name:"hotcold" ~calls:iters ~source:hotcold_source ~entry:"hotcold" (fun ctx ->
      let open Harness in
      let a = alloc_f32 ctx (n * n) and y = alloc_f32 ctx n in
      {
        (* enough teams to keep >=8 warps resident: at low occupancy the
           latency model makes every global access so expensive that
           pinning is the best mode for every buffer and no mixed
           assignment could win *)
        args = [ vint n; vint 4; fptr a; fptr y ];
        fill =
          (fun () ->
            fill_f32 ctx a (n * n) (fun t -> float_of_int ((t mod 23) - 11) /. 46.0);
            fill_f32 ctx y n (fun i -> float_of_int (i mod 7) /. 7.0));
        read = read_f32s ctx [ (y, n) ];
      })

(* ---------------------------------------------------------------- *)
(* Points                                                             *)
(* ---------------------------------------------------------------- *)

(* The evidence a fault plan must leave in the trace. *)
type expect =
  | Clean  (** no plan: no fault event, no death *)
  | Recover  (** retries succeed: backoff events, no fallback, no death *)
  | Fallback  (** a device dies and the host runs its work *)
  | Fatal  (** [Fallback] once the plan fires, [Clean] until it does *)
  | Any  (** probabilistic plan: only the outputs and the generic evidence *)

type plan = { pl_spec : string; pl_mode : Nvcc.binary_mode; pl_expect : expect }

type point = { mem : Hostrt.Mempolicy.sel; streams : int; devices : int; plan : plan }

let plan ?(mode = Nvcc.Cubin) spec expect = { pl_spec = spec; pl_mode = mode; pl_expect = expect }

let no_fault = plan "" Clean

let transient = plan "transfer:nth=2;launch:nth=1" Recover

let fatal = plan "launch:nth=2,kind=fatal" Fatal

(* The four axes, each value with its table key. *)
let mem_axis =
  Hostrt.Mempolicy.
    [
      ("auto", Auto); ("copy", Forced Copy); ("elide", Forced Elide); ("zerocopy", Forced Zerocopy);
    ]

let streams_axis = [ ("1", 1); ("4", 4) ]

let devices_axis = [ ("1", 1); ("2", 2); ("4", 4) ]

let faults_axis = [ ("none", no_fault); ("transient", transient); ("fatal", fatal) ]

let axis_keys : string list list =
  List.[ map fst mem_axis; map fst streams_axis; map fst devices_axis; map fst faults_axis ]

let point_of_keys = function
  | [ m; s; d; f ] ->
    {
      mem = List.assoc m mem_axis;
      streams = List.assoc s streams_axis;
      devices = List.assoc d devices_axis;
      plan = List.assoc f faults_axis;
    }
  | _ -> invalid_arg "Oracle.point_of_keys"

(* The committed table: every pair of axis values in some row (see
   [uncovered]). *)
let pairwise_rows : string list list =
  List.map (String.split_on_char ' ')
    [
      "auto 4 1 none";
      "auto 4 2 transient";
      "auto 1 4 fatal";
      "copy 4 2 none";
      "copy 1 1 transient";
      "copy 4 4 fatal";
      "elide 1 2 none";
      "elide 4 4 transient";
      "elide 4 1 fatal";
      "zerocopy 1 4 none";
      "zerocopy 4 1 transient";
      "zerocopy 1 2 fatal";
    ]

let pairwise : point list = List.map point_of_keys pairwise_rows

(* The value pairs of [axes] (one key list per axis) that no row of
   [rows] (one key list per point) holds. *)
let uncovered ~(axes : string list list) (rows : string list list) : string list =
  List.concat
    (List.mapi
       (fun i xs ->
         List.concat
           (List.mapi
              (fun j ys ->
                if j <= i then []
                else
                  List.concat_map
                    (fun x ->
                      List.filter_map
                        (fun y ->
                          if List.exists (fun r -> List.nth r i = x && List.nth r j = y) rows then
                            None
                          else Some (Printf.sprintf "axis %d=%s with axis %d=%s" i x j y))
                        ys)
                    xs)
              axes))
       axes)

(* The default configuration as a point: a fault plan armed on it is
   a fault-matrix cell. *)
let default_point =
  {
    mem = Rt.default_config.Rt.mem_policy;
    streams = Rt.default_config.Rt.streams;
    devices = Rt.default_config.Rt.devices;
    plan = no_fault;
  }

let config ?(jit = true) (p : point) : Rt.config =
  let faults =
    match p.plan.pl_spec with
    | "" -> []
    | spec -> (
      match Hostrt.Faults.parse spec with
      | Ok rules -> rules
      | Error msg -> failwith (Printf.sprintf "bad fault spec %S: %s" spec msg))
  in
  {
    Rt.default_config with
    binary_mode = p.plan.pl_mode;
    mem_policy = p.mem;
    streams = p.streams;
    devices = p.devices;
    faults;
    fault_seed = 7;
    jit;
  }

let show (p : point) : string =
  Printf.sprintf "%s streams=%d devices=%d faults=%S%s" (Hostrt.Mempolicy.sel_name p.mem) p.streams
    p.devices p.plan.pl_spec
    (if p.plan.pl_mode = Nvcc.Ptx then " ptx" else "")

(* ---------------------------------------------------------------- *)
(* Checks                                                             *)
(* ---------------------------------------------------------------- *)

(* The default run against the stripped host reference. *)
let anchor (p : program) (d : obs) : string list =
  let r = p.reference () in
  let outputs_ok =
    if p.tol = 0.0 then r.o_out = d.o_out
    else
      let floats = Array.map Int32.float_of_bits in
      Array.length r.o_out = Array.length d.o_out
      && Harness.max_rel_error (floats d.o_out) (floats r.o_out) <= p.tol
  in
  List.concat
    [
      (if outputs_ok then [] else [ "outputs differ from the host reference" ]);
      (if r.o_text = d.o_text then []
       else [ Printf.sprintf "prints %S, the host reference %S" d.o_text r.o_text ]);
      (if r.o_exit = d.o_exit then [] else [ "exit code differs from the host reference" ]);
    ]

(* Check 4: the evidence a run owes for its deviations from the default. *)
let evidence (p : program) (pt : point) (o : obs) : string list =
  let n = count o ~cat:"fault" and sh = count o ~cat:"shard" in
  let fails = ref [] in
  let need ok msg = if not ok then fails := msg :: !fails in
  let dead = List.length o.o_dead in
  need (n "device_dead" = dead)
    (Printf.sprintf "%d dead device(s), %d device_dead event(s)" dead (n "device_dead"));
  if pt.devices > 1 && dead = 0 && p.shards then
    need
      (o.o_unsharded = sh "shard_mixed_modes")
      (Printf.sprintf "%d farm launch(es) ran unsharded, %d shard_mixed_modes event(s)"
         o.o_unsharded (sh "shard_mixed_modes"));
  let fallbacks = n "host_fallback" + sh "shard_host_fallback" in
  let clean () = need (n "fault_injected" = 0 && dead = 0) "fault events without a plan" in
  let fallback () =
    need (n "fault_injected" >= 1) "no fault injected";
    need (dead >= 1) "no device died";
    need (fallbacks >= 1) "no host_fallback or shard_host_fallback"
  in
  (match pt.plan.pl_expect with
  | Clean -> clean ()
  | Recover ->
    need (n "fault_injected" >= 1) "no fault injected";
    need (n "retry_backoff" >= 1) "no retry_backoff";
    need (fallbacks = 0 && dead = 0) "a recoverable plan killed a device"
  | Fallback -> fallback ()
  | Fatal -> if n "fault_injected" = 0 then clean () else fallback ()
  | Any -> ());
  List.rev !fails

(* Checks 1, 2 and 4 of one run at [pt]. *)
let violations (p : program) ~(default : obs) (pt : point) (o : obs) : string list =
  List.concat
    [
      (if o.o_out = default.o_out then [] else [ "outputs differ from the default run" ]);
      (if o.o_text = default.o_text && o.o_exit = default.o_exit then []
       else
         [ Printf.sprintf "prints %S (exit %d) under the default" default.o_text default.o_exit ]);
      (if o.o_dead <> [] || o.o_sums = default.o_sums then []
       else [ "per-entry blocks/instructions/atomics differ from the default run" ]);
      evidence p pt o;
    ]

(* One point under both executors: checks 1-4. *)
let check_point (p : program) ~(default : obs) (pt : point) : string list =
  let jit = p.run (config ~jit:true pt) and interp = p.run (config ~jit:false pt) in
  List.map
    (fun v -> Printf.sprintf "%s @ %s: %s" p.name (show pt) v)
    (violations p ~default pt jit @ violations p ~default pt interp
    @ executor_violations jit interp)

(* The verdict on the runs a bench timed of one program: the first run
   against the host reference, and every run at its point against the
   first (checks 1, 2 and 4). *)
let verdict (p : program) (runs : (point * obs) list) : string list =
  match runs with
  | [] -> []
  | (_, first) :: _ ->
    List.map
      (fun v -> p.name ^ ": " ^ v)
      (anchor p first @ List.concat_map (fun (pt, o) -> violations p ~default:first pt o) runs)
