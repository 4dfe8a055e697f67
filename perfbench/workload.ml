(* The three workloads and the pass that runs each one.

   All load comes from one thread, one op process at a time.  The two Fig. 4
   workloads are closed loops: one (app, variant) operation after
   another, each on a fresh runtime (cold data environment) as in the
   suite's sweeps.  serve-mixed is an open loop: Serve's seeded Poisson
   arrivals on the simulated clock, with latency counted from each
   request's scheduled arrival; since arrivals are simulated, the
   generator can never run late on the host.

   Every layer call is wrapped in a {!Spans} span (a no-op when the pass
   is untraced), and every simulated statistic the calls return feeds a
   per-pass digest. *)

open Machine
open Gpusim
module H = Polybench.Harness

type variant = Cuda | Ompi

let variant_name = function Cuda -> "cuda" | Ompi -> "ompi"

type op = { op_app : Apps.app; op_variant : variant; op_n : int }

let op_label op = Printf.sprintf "%s.%s" op.op_app.Apps.a_name (variant_name op.op_variant)

type fig4 = {
  f_ops : op list;  (** in the seeded order a pass runs them *)
  f_sampling : int option;  (** [None]: every block of every launch is simulated *)
  f_seed : int;
  f_expect : (string, float array) Hashtbl.t;
      (** full-simulation reference result per app, over the seeded inputs *)
  f_validated : (string, (unit, string) result) Hashtbl.t;
      (** block-sampled ops: [Suite.validate] of the same app and variant
          at a validation size *)
}

type serve = { s_config : Serve.config; s_sessions : Serve.session_spec list }

type t = Fig4 of fig4 | Serve_mixed of serve

(* Sizes.  kernels-full simulates every GPU thread, so Simt, the closure
   JIT and devrt dominate; fig4-bigmap maps the paper's large arrays
   under the sweep's two-block sampling, so the host data path dominates. *)
let kernels_full_sizes ~smoke =
  if smoke then [ ("3dconv", 8); ("bicg", 32); ("atax", 32); ("mvt", 32); ("gemm", 16); ("gramschmidt", 8) ]
  else [ ("3dconv", 20); ("bicg", 160); ("atax", 160); ("mvt", 160); ("gemm", 80); ("gramschmidt", 40) ]

let bigmap_sizes ~smoke = if smoke then [ ("3dconv", 32); ("gemm", 64) ] else [ ("3dconv", 256); ("gemm", 1024) ]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* Run [f] in a child process and return its result.  Every op (and
   every Serve run) thus starts from the same heap, so its GC work and
   peak heap do not depend on which ops ran before it, and no op's
   memory outlives it.  The child's result comes back marshalled over a
   pipe; the parent waits for the child to end. *)
let isolated (f : unit -> 'a) : ('a, string) result =
  Gc.compact ();
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    (* take the copy-on-write faults of the inherited heap and of the
       minor heap here, untimed, rather than in the op's first phase *)
    Gc.full_major ();
    for _ = 1 to (Gc.get ()).Gc.minor_heap_size / 2 do
      ignore (Sys.opaque_identity (ref 0))
    done;
    let oc = Unix.out_channel_of_descr wr in
    let v : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [ Marshal.Closures ];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v : ('a, string) result =
      try Marshal.from_channel ic with End_of_file | Failure _ -> Error "child process ended without a result"
    in
    close_in ic;
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> v
    | Unix.WEXITED c -> Error (Printf.sprintf "child process exited with code %d" c)
    | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "child process killed by signal %d" n)

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let top_heap_mb () = mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)

(* Host cost of one op process. *)
type usage = { u_wall_ns : float; u_alloc_words : float; u_top_heap_mb : float }

let ops_of ~seed sizes =
  shuffle
    (Random.State.make [| seed; 11 |])
    (List.concat_map
       (fun (name, n) -> List.map (fun v -> { op_app = Apps.find name; op_variant = v; op_n = n }) [ Cuda; Ompi ])
       sizes)

let suite_app name =
  match Polybench.Suite.find name with Some a -> a | None -> invalid_arg ("no suite app " ^ name)

let names = [ "kernels-full"; "fig4-bigmap"; "serve-mixed" ]

(* The tag seeds each session's array contents; [cf_seed] seeds the
   arrival streams.  The session order stays the default one: Serve
   closes sessions in reverse order, and a reordered mix whose shared
   matvec slices overlap fails at close with Dataenv.Map_error. *)
let serve_sessions ~seed ~smoke =
  List.map
    (fun (s : Serve.session_spec) -> { s with Serve.ss_tag = s.Serve.ss_tag + (100 * (1 + (seed mod 10007))) })
    (Serve.default_sessions ~smoke)

(* A server start-up: runtime, compile of the three service programs and
   their host mirrors, one request of each class.  A few run in their
   own processes before every pass; their median is setup_s. *)
let serve_startup ~seed : float =
  let spec tag app =
    {
      Serve.ss_tag = tag;
      ss_app = app;
      ss_n = 64;
      ss_requests = 1;
      ss_rate_hz = 6000.0;
      ss_shared_off = None;
      ss_device = 0;
    }
  in
  let specs = [ spec seed Serve.Matvec; spec (seed + 1) Serve.Ingest; spec (seed + 2) Serve.Scale ] in
  let startup () =
    let t0 = Spans.now_ns () in
    let report, _ = Serve.run { Serve.default_config with Serve.cf_generations = 1; cf_seed = seed } specs in
    let dt = Spans.now_ns () -. t0 in
    if not (report.Serve.rp_all_identical && report.Serve.rp_completed = 3) then
      failwith "a request did not complete bit-identically";
    dt
  in
  match isolated startup with Ok dt -> dt | Error e -> failwith ("serve start-up: " ^ e)

let startups_per_pass = 3

(** Everything a workload needs before its first measured pass: seeded
    inputs and op order, references, validations. *)
let prepare ?(smoke = false) ~seed (name : string) : t =
  match name with
  | "kernels-full" ->
    let sizes = kernels_full_sizes ~smoke in
    let expect = Hashtbl.create 8 in
    List.iter
      (fun (app, n) ->
        let a = Apps.find app in
        Hashtbl.replace expect app (a.Apps.a_reference ~n (Apps.inputs ~seed (a.Apps.a_bufs n))))
      sizes;
    Fig4
      { f_ops = ops_of ~seed sizes; f_sampling = None; f_seed = seed; f_expect = expect; f_validated = Hashtbl.create 1 }
  | "fig4-bigmap" ->
    let ops = ops_of ~seed (bigmap_sizes ~smoke) in
    let validated = Hashtbl.create 8 in
    List.iter
      (fun op ->
        let app = suite_app op.op_app.Apps.a_name in
        let variant = match op.op_variant with Cuda -> H.Cuda | Ompi -> H.Ompi_cudadev in
        let result =
          match Polybench.Suite.validate app variant ~n:(List.hd app.Polybench.Suite.ap_validate_sizes) with
          | Ok _ -> Ok ()
          | Error e -> Error e
        in
        Hashtbl.replace validated (op_label op) result)
      ops;
    Fig4 { f_ops = ops; f_sampling = Some 2; f_seed = seed; f_expect = Hashtbl.create 1; f_validated = validated }
  | "serve-mixed" ->
    let config = { Serve.default_config with Serve.cf_seed = seed } in
    Serve_mixed { s_config = config; s_sessions = serve_sessions ~seed ~smoke }
  | other -> invalid_arg (Printf.sprintf "unknown workload %S (expected one of: %s)" other (String.concat ", " names))

(* ------------------------------------------------------------------ *)
(* One operation of a Fig. 4 workload                                   *)
(* ------------------------------------------------------------------ *)

let sum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

(* Simulated phases from Perf.Trace spans: module loads, the offload's
   parameter-preparation and launch phases, transfers (sync spans and
   async stream operations) and kernels (sync spans and async launches). *)
let sim_phases (spans : Perf.Trace.span list) =
  let total pred = sum (fun (s : Perf.Trace.span) -> s.Perf.Trace.sp_dur_ns) (List.filter pred spans) in
  let is_copy (s : Perf.Trace.span) = s.Perf.Trace.sp_name = "HtoD" || s.Perf.Trace.sp_name = "DtoH" in
  let cat c (s : Perf.Trace.span) = s.Perf.Trace.sp_cat = c in
  let launch_phase name s = cat "launch" s && s.Perf.Trace.sp_name = name in
  let bytes (s : Perf.Trace.span) =
    match List.assoc_opt "bytes" s.Perf.Trace.sp_args with Some (Perf.Trace.Int b) -> float_of_int b | _ -> 0.0
  in
  [
    ("sim.load_ns", total (fun s -> cat "load" s && s.Perf.Trace.sp_name = "module_load"));
    ("sim.prep_ns", total (launch_phase "parameter_preparation"));
    ("sim.launch_ns", total (launch_phase "launch"));
    ("sim.transfer_ns", total (fun s -> (cat "transfer" s || cat "async" s) && is_copy s));
    ("sim.kernel_ns", total (fun s -> cat "kernel" s || (cat "async" s && not (is_copy s))));
    ("driver.copy_bytes", sum bytes (List.filter (fun s -> (cat "transfer" s || cat "async" s) && is_copy s) spans));
  ]

(* Sums over an op's launches.  Ops run in child processes and send
   back only these sums, not the launches' full counters, so the
   parent's heap (which every child inherits) stays small. *)
type launch_totals = {
  lt_launches : int;
  lt_blocks : float;  (** blocks simulated *)
  lt_threads : float;  (** threads simulated *)
  lt_insts : float;  (** simulated thread-instructions *)
  lt_issue_cycles : float;
  lt_mem_cycles : float;
  lt_barrier_cycles : float;
}

let no_launches =
  {
    lt_launches = 0;
    lt_blocks = 0.0;
    lt_threads = 0.0;
    lt_insts = 0.0;
    lt_issue_cycles = 0.0;
    lt_mem_cycles = 0.0;
    lt_barrier_cycles = 0.0;
  }

let launch_totals (launches : Driver.launch_stats list) =
  let bd f = sum (fun (st : Driver.launch_stats) -> f st.Driver.st_breakdown) launches in
  {
    lt_launches = List.length launches;
    lt_blocks = sum (fun (st : Driver.launch_stats) -> float_of_int st.Driver.st_blocks_simulated) launches;
    lt_threads =
      sum
        (fun (st : Driver.launch_stats) ->
          float_of_int (st.Driver.st_blocks_simulated * Simt.dim3_total st.Driver.st_block))
        launches;
    lt_insts = sum (fun (st : Driver.launch_stats) -> st.Driver.st_counters.Counters.thread_inst_sum) launches;
    lt_issue_cycles = bd (fun b -> b.Costmodel.bd_issue_cycles);
    lt_mem_cycles = bd (fun b -> b.Costmodel.bd_mem_cycles);
    lt_barrier_cycles = bd (fun b -> b.Costmodel.bd_barrier_cycles);
  }

type op_result = {
  r_op : op;
  r_error : string option;  (** [None] when the op ran and its output checked out *)
  r_setup_ns : float;
  r_sim_s : float;
  r_launches : launch_totals;
  r_mem : Hostrt.Dataenv.stats option;
  r_artifact_bytes : int;
  r_kernels : int;
  r_load_sim_ns : float;
  r_harness_bytes : int;
  r_digest : string;
  r_phases : (string * float) list;  (** simulated phases from Perf.Trace, traced passes only *)
  r_trace_dropped : int;
}

let fail_result op msg =
  {
    r_op = op;
    r_error = Some msg;
    r_setup_ns = 0.0;
    r_sim_s = 0.0;
    r_launches = no_launches;
    r_mem = None;
    r_artifact_bytes = 0;
    r_kernels = 0;
    r_load_sim_ns = 0.0;
    r_harness_bytes = 0;
    r_digest = "";
    r_phases = [];
    r_trace_dropped = 0;
  }

let bits_digest (a : float array) : string =
  let b = Bytes.create (4 * Array.length a) in
  Array.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.bits_of_float v)) a;
  Digest.to_hex (Digest.bytes b)

(* Every simulated statistic of one op, as exact text. *)
let op_digest op ~sim_s ~(launches : Driver.launch_stats list) ~(mem : Hostrt.Dataenv.stats) ~out_bits =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s n=%d sim=%h\n" (op_label op) op.op_n sim_s;
  List.iter
    (fun (st : Driver.launch_stats) ->
      let c = st.Driver.st_counters and bd = st.Driver.st_breakdown in
      let cl = c.Counters.classes in
      Printf.bprintf b "%s %d/%d ti=%h wi=%h cls=%d,%d,%d,%d,%d,%d bar=%d at=%d cg=%d tx=%h %h %h %h %h %h\n"
        st.Driver.st_entry st.Driver.st_blocks_simulated st.Driver.st_blocks_total c.Counters.thread_inst_sum
        c.Counters.warp_inst_sum cl.Counters.arith cl.Counters.mul cl.Counters.div cl.Counters.branch
        cl.Counters.call cl.Counters.special c.Counters.barrier_warp_arrivals c.Counters.atomics
        c.Counters.chunk_grabs (Counters.global_transactions c) bd.Costmodel.bd_issue_cycles
        bd.Costmodel.bd_mem_cycles bd.Costmodel.bd_barrier_cycles bd.Costmodel.bd_total_cycles
        bd.Costmodel.bd_time_ns)
    launches;
  Printf.bprintf b "mem %d %d %d %d out=%s\n" mem.Hostrt.Dataenv.elided_h2d mem.Hostrt.Dataenv.elided_d2h
    mem.Hostrt.Dataenv.elided_h2d_pages mem.Hostrt.Dataenv.elided_d2h_pages out_bits;
  Buffer.contents b

(* Run [step k] for the simulated iterations and integrate the skipped
   ones from their neighbours (trapezoid), as the suite does for
   gramschmidt's column loop at large sizes. *)
let run_steps ctx (ks : int list) (step : int -> unit) =
  let timed = List.map (fun k -> (k, H.measure ctx (fun () -> step k))) ks in
  let rec fill = function
    | (k1, t1) :: ((k2, t2) :: _ as rest) ->
      let missing = k2 - k1 - 1 in
      if missing > 0 then
        Simclock.advance_ns ctx.H.rt.Hostrt.Rt.clock (float_of_int missing *. (t1 +. t2) /. 2.0 *. 1e9);
      fill rest
    | [ _ ] | [] -> ()
  in
  fill timed

let check_ok = function [] -> () | errs -> failwith (String.concat "; " errs)

let translate ~name (program : Minic.Ast.program) : Ompi.compiled =
  let { Translator.Pipeline.out_host; out_kernels } = Translator.Pipeline.translate program in
  {
    Translator.Pipeline.c_source_name = name;
    c_host = out_host;
    c_kernels = out_kernels;
    c_host_text = Minic.Pretty.program_to_string out_host;
    c_kernel_texts =
      List.map
        (fun (k : Translator.Kernelgen.kernel) ->
          (k.Translator.Kernelgen.k_entry, Minic.Pretty.program_to_string k.Translator.Kernelgen.k_program))
        out_kernels;
  }

let run_op (sp : Spans.t) ~traced (w : fig4) (op : op) : op_result =
  let app = op.op_app and n = op.op_n in
  let span name f = Spans.span sp name f in
  let t0 = Spans.now_ns () in
  let ctx = span "harness.create" (fun () -> H.create ()) in
  H.set_sampling ctx w.f_sampling;
  H.set_translated_penalty ctx (suite_app app.Apps.a_name).Polybench.Suite.ap_penalty;
  let trace = if traced then Some (H.enable_trace ctx) else None in
  let rt = ctx.H.rt in
  let clock = rt.Hostrt.Rt.clock in
  let mode = rt.Hostrt.Rt.binary_mode in
  let parse src = span "minic.parse" (fun () -> Minic.Parser.parse_program src) in
  let nvcc ~name prog = span "nvcc.compile" (fun () -> Nvcc.compile ?trace ~mode ~name prog) in
  (* set-up: everything before the first measured offload *)
  let run, artifact_bytes, kernels, load_sim_ns =
    match op.op_variant with
    | Cuda ->
      let prog = parse app.Apps.a_cuda_source in
      span "minic.typecheck" (fun () -> check_ok (Minic.Typecheck.check_program ~cuda:true prog));
      let art = nvcc ~name:(app.Apps.a_name ^ "_cuda") prog in
      let s0 = Simclock.now_ns clock in
      let m = span "driver.load" (fun () -> Driver.load_module (H.driver ctx) art) in
      (`Cuda m, art.Nvcc.art_size_bytes, 0, Simclock.now_ns clock -. s0)
    | Ompi ->
      let prog = parse app.Apps.a_omp_source in
      let prog =
        span "omp.rewrite" (fun () ->
            let p = Omp.Rewrite.rewrite_program prog in
            check_ok (List.map (fun d -> d.Omp.Validate.diag_msg) (Omp.Validate.check_program p));
            p)
      in
      span "minic.typecheck" (fun () -> check_ok (Minic.Typecheck.check_program prog));
      let compiled = span "translator.translate" (fun () -> translate ~name:app.Apps.a_name prog) in
      let arts =
        List.map
          (fun (k : Translator.Kernelgen.kernel) ->
            nvcc ~name:k.Translator.Kernelgen.k_entry k.Translator.Kernelgen.k_program)
          compiled.Translator.Pipeline.c_kernels
      in
      let p =
        span "hostrt.context" (fun () ->
            List.iter (Hostrt.Rt.register_kernel rt ~dev:0) arts;
            { H.op_compiled = Some compiled; op_ctx = Hostrt.Hostexec.make_context rt compiled.Translator.Pipeline.c_host })
      in
      ( `Ompi p,
        List.fold_left (fun acc a -> acc + a.Nvcc.art_size_bytes) 0 arts,
        List.length arts,
        0.0 )
  in
  let setup_ns = Spans.now_ns () -. t0 in
  let bufs = Array.of_list (app.Apps.a_bufs n) in
  let host =
    span "harness.fill" (fun () ->
        Array.mapi
          (fun salt (b : Apps.buf) ->
            let a = H.alloc_f32 ctx b.Apps.b_len in
            Option.iter
              (fun spec -> H.fill_f32 ctx a b.Apps.b_len (Apps.init_value ~seed:w.f_seed ~salt spec))
              b.Apps.b_init;
            a)
          bufs)
  in
  let value addrs = function Apps.I i -> H.vint i | Apps.F f -> H.vf32 f | Apps.B i -> H.fptr addrs.(i) in
  let steps = app.Apps.a_steps n in
  let sim_s =
    H.measure ctx (fun () ->
        match run with
        | `Cuda m ->
          let dev = span "driver.alloc" (fun () -> Array.map (fun b -> H.dev_alloc ctx (4 * b.Apps.b_len)) bufs) in
          span "driver.h2d" (fun () ->
              Array.iteri
                (fun i b -> if b.Apps.b_h2d then H.h2d ctx ~src:host.(i) ~dst:dev.(i) ~bytes:(4 * b.Apps.b_len))
                bufs);
          run_steps ctx steps (fun k ->
              span "driver.launch" (fun () ->
                  List.iter
                    (fun (l : Apps.launch) ->
                      ignore
                        (H.launch_cuda ctx m ~entry:l.Apps.l_entry ~grid:l.Apps.l_grid ~block:l.Apps.l_block
                           (List.map (value dev) l.Apps.l_args)))
                    (app.Apps.a_cuda ~n ~k)));
          span "driver.d2h" (fun () ->
              Array.iteri
                (fun i b -> if b.Apps.b_out then H.d2h ctx ~src:dev.(i) ~dst:host.(i) ~bytes:(4 * b.Apps.b_len))
                bufs);
          span "driver.alloc" (fun () -> Array.iter (H.dev_free ctx) dev)
        | `Ompi p ->
          let call (fn, args) = H.call_omp p fn (List.map (value host) args) in
          span "hostrt.offload" (fun () ->
              List.iter call (app.Apps.a_omp_begin ~n);
              run_steps ctx steps (fun k -> List.iter call (app.Apps.a_omp ~n ~k));
              List.iter call (app.Apps.a_omp_end ~n)))
  in
  let out_bufs = List.filter (fun i -> bufs.(i).Apps.b_out) (List.init (Array.length bufs) Fun.id) in
  let out =
    span "harness.readback" (fun () ->
        Array.concat (List.map (fun i -> H.read_f32_array ctx host.(i) bufs.(i).Apps.b_len) out_bufs))
  in
  let launches = List.rev (H.driver ctx).Driver.launches in
  let mem = H.mem_stats ctx in
  let error, digest =
    span "bench.check" (fun () ->
        let error =
          match Hashtbl.find_opt w.f_validated (op_label op) with
          | Some (Ok ()) -> None
          | Some (Error e) -> Some e
          | None -> (
            let want = Hashtbl.find w.f_expect app.Apps.a_name in
            if Array.length out <> Array.length want then Some "result length differs from the reference"
            else
              let err = H.max_rel_error out want in
              (* the suite's validation tolerance *)
              if err < 1e-3 then None else Some (Printf.sprintf "max relative error %.3e" err))
        in
        (error, op_digest op ~sim_s ~launches ~mem ~out_bits:(bits_digest out)))
  in
  let harness_bytes =
    4
    * Array.fold_left ( + ) 0
        (Array.map (fun b -> if b.Apps.b_init <> None then b.Apps.b_len else 0) bufs)
    + (4 * Array.length out)
  in
  {
    r_op = op;
    r_error = Option.map (fun e -> Printf.sprintf "%s n=%d: %s" (op_label op) n e) error;
    r_setup_ns = setup_ns;
    r_sim_s = sim_s;
    r_launches = launch_totals launches;
    r_mem = Some mem;
    r_artifact_bytes = artifact_bytes;
    r_kernels = kernels;
    r_load_sim_ns = load_sim_ns;
    r_harness_bytes = harness_bytes;
    r_digest = digest;
    r_phases = (match trace with Some tr -> sim_phases (Perf.Trace.spans tr) | None -> []);
    r_trace_dropped = (match trace with Some tr -> Perf.Trace.dropped tr | None -> 0);
  }

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)
(* ------------------------------------------------------------------ *)

type pass = {
  p_traced : bool;
  p_wall_s : float;
  p_setup_ns : float list;  (** host set-up time of each op in op order; serve: of each start-up *)
  p_attempted : int;
  p_failed : int;
  p_errors : string list;
  p_digest : string;  (** every simulated statistic and output bit of the pass *)
  p_sim : (string * float) list;  (** simulated-clock figures and counts: repeat exactly for one seed *)
  p_host : (string * float) list;  (** host-clock per-layer figures (traced passes) *)
  p_insts : float;  (** simulated thread-instructions *)
  p_alloc_mb : float;  (** OCaml heap allocation of the pass's ops *)
  p_peak_heap_mb : float;  (** largest top heap of the pass's op processes *)
  p_spans : Spans.span list;
}

let geomean = function
  | [] -> 0.0
  | l -> exp (sum log l /. float_of_int (List.length l))

(* Host self time per layer over the pass, in ms. *)
let layer_ms (all : Spans.span list) =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Spans.span), self) ->
      Hashtbl.replace tbl s.Spans.sp_name (self +. Option.value ~default:0.0 (Hashtbl.find_opt tbl s.Spans.sp_name)))
    (Spans.self_times all);
  fun name -> Option.value ~default:0.0 (Hashtbl.find_opt tbl name) /. 1e6

let unattributed ~wall_s (all : Spans.span list) =
  let covered = sum Spans.duration (Spans.top_level all) /. 1e9 in
  (wall_s -. covered) /. wall_s

let layer_names =
  [
    "harness.create";
    "minic.parse";
    "omp.rewrite";
    "minic.typecheck";
    "translator.translate";
    "nvcc.compile";
    "driver.load";
    "hostrt.context";
    "harness.fill";
    "harness.readback";
    "driver.alloc";
    "driver.h2d";
    "driver.d2h";
    "hostrt.offload";
    "driver.launch";
    "bench.check";
    "serve.run";
  ]

let fig4_pass (w : fig4) ~traced : pass =
  let outcomes =
    List.mapi
      (fun i op ->
        let child () =
          let sp = Spans.create ~op:i ~on:traced () in
          let w0 = Spans.alloc_words () in
          let t0 = Spans.now_ns () in
          let r =
            Spans.span sp (op_label op) (fun () ->
                try run_op sp ~traced w op
                with e -> fail_result op (Printf.sprintf "%s: %s" (op_label op) (Printexc.to_string e)))
          in
          let usage =
            { u_wall_ns = Spans.now_ns () -. t0; u_alloc_words = Spans.alloc_words () -. w0; u_top_heap_mb = top_heap_mb () }
          in
          (r, Spans.spans sp, usage)
        in
        match isolated child with
        | Ok x -> x
        | Error e ->
          (fail_result op (Printf.sprintf "%s: %s" (op_label op) e), [], { u_wall_ns = 0.0; u_alloc_words = 0.0; u_top_heap_mb = 0.0 }))
      w.f_ops
  in
  let results = List.map (fun (r, _, _) -> r) outcomes in
  let usage = List.map (fun (_, _, u) -> u) outcomes in
  (* the pass wall is the sum of its ops' walls: process start-up and
     result transfer between ops are not timed *)
  let wall_s = sum (fun u -> u.u_wall_ns) usage /. 1e9 in
  let spans = List.concat_map (fun (_, s, _) -> s) outcomes in
  let totals f = sum (fun r -> f r.r_launches) results in
  let mem f = sum (fun r -> match r.r_mem with Some m -> float_of_int (f m) | None -> 0.0) results in
  let sim_of app v =
    List.find_map
      (fun r ->
        if r.r_op.op_app.Apps.a_name = app && r.r_op.op_variant = v && r.r_error = None then Some r.r_sim_s else None)
      results
  in
  let ratios =
    List.filter_map
      (fun app ->
        match (sim_of app Cuda, sim_of app Ompi) with
        | Some c, Some o when c > 0.0 -> Some (o /. c)
        | _ -> None)
      Metrics.app_names
  in
  let failed = List.filter (fun r -> r.r_error <> None) results in
  let sim =
    [
      ("sim_s", sum (fun r -> r.r_sim_s) results);
      ("ompi_vs_cuda_sim", geomean ratios);
      ("translator.kernels", sum (fun r -> float_of_int r.r_kernels) results);
      ("nvcc.artifact_bytes", sum (fun r -> float_of_int r.r_artifact_bytes) results);
      ("driver.load_sim_ns", sum (fun r -> r.r_load_sim_ns) results);
      ("harness.bytes", sum (fun r -> float_of_int r.r_harness_bytes) results);
      ("simt.launches", totals (fun t -> float_of_int t.lt_launches));
      ("simt.blocks", totals (fun t -> t.lt_blocks));
      ("simt.threads", totals (fun t -> t.lt_threads));
      ("simt.thread_insts", totals (fun t -> t.lt_insts));
      ("costmodel.issue_cycles", totals (fun t -> t.lt_issue_cycles));
      ("costmodel.mem_cycles", totals (fun t -> t.lt_mem_cycles));
      ("costmodel.barrier_cycles", totals (fun t -> t.lt_barrier_cycles));
      ("dataenv.elided_h2d", mem (fun m -> m.Hostrt.Dataenv.elided_h2d));
      ("dataenv.elided_d2h", mem (fun m -> m.Hostrt.Dataenv.elided_d2h));
      ("dataenv.elided_pages", mem (fun m -> m.Hostrt.Dataenv.elided_h2d_pages + m.Hostrt.Dataenv.elided_d2h_pages));
    ]
    @
    if traced then
      List.map (fun (k, _) -> (k, sum (fun r -> Option.value ~default:0.0 (List.assoc_opt k r.r_phases)) results)) (sim_phases [])
    else []
  in
  let host =
    if not traced then []
    else begin
      let ms = layer_ms spans in
      (* per-op host time of the CUDA layers, for the OMPi-only overhead *)
      let op_ms = Hashtbl.create 16 in
      List.iter
        (fun ((s : Spans.span), self) ->
          let key = (s.Spans.sp_op, s.Spans.sp_name) in
          Hashtbl.replace op_ms key (self +. Option.value ~default:0.0 (Hashtbl.find_opt op_ms key)))
        (Spans.self_times spans);
      let op_layer i name = Option.value ~default:0.0 (Hashtbl.find_opt op_ms (i, name)) /. 1e6 in
      let indexed = List.mapi (fun i r -> (i, r)) results in
      let op_index app v =
        List.find_map
          (fun (i, r) -> if r.r_op.op_app.Apps.a_name = app && r.r_op.op_variant = v then Some i else None)
          indexed
      in
      let overhead =
        sum
          (fun app ->
            match (op_index app Cuda, op_index app Ompi) with
            | Some c, Some o ->
              op_layer o "hostrt.offload"
              -. List.fold_left (fun acc l -> acc +. op_layer c l) 0.0 [ "driver.alloc"; "driver.h2d"; "driver.launch"; "driver.d2h" ]
            | _ -> 0.0)
          Metrics.app_names
      in
      let cuda f = sum (fun r -> if r.r_op.op_variant = Cuda then f r.r_launches else 0.0) results in
      let alloc_mb name =
        mb_of_words (sum (fun (s : Spans.span) -> if s.Spans.sp_name = name then s.Spans.sp_alloc_words else 0.0) spans)
      in
      let launch_ns = ms "driver.launch" *. 1e6 in
      let per x = if x > 0.0 then launch_ns /. x else 0.0 in
      List.map (fun l -> (l ^ "_ms", ms l)) layer_names
      @ [
          ("hostrt.ompi_overhead_ms", overhead);
          ("gc.offload_alloc_mb", alloc_mb "hostrt.offload");
          ("gc.launch_alloc_mb", alloc_mb "driver.launch");
          ("simt.ns_per_thread", per (cuda (fun t -> t.lt_threads)));
          ("simt.ns_per_inst", per (cuda (fun t -> t.lt_insts)));
          ("bench.unattributed_frac", unattributed ~wall_s spans);
        ]
      @ List.map
          (fun (s : Spans.span) -> ("harness.app_wall_ms." ^ s.Spans.sp_name, Spans.duration s /. 1e6))
          (List.filter (fun (s : Spans.span) -> s.Spans.sp_parent < 0) spans)
    end
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ""
            (List.sort compare (List.map (fun r -> r.r_digest) results))))
  in
  {
    p_traced = traced;
    p_wall_s = wall_s;
    p_setup_ns = List.map (fun r -> r.r_setup_ns) results;
    p_attempted = List.length results;
    p_failed = List.length failed;
    p_errors =
      List.filter_map (fun r -> r.r_error) failed
      @ List.filter_map
          (fun r ->
            if r.r_trace_dropped > 0 then Some (Printf.sprintf "%s: %d trace events dropped" (op_label r.r_op) r.r_trace_dropped)
            else None)
          results;
    p_digest = digest;
    p_sim = sim;
    p_host = host;
    p_insts = totals (fun t -> t.lt_insts);
    p_alloc_mb = mb_of_words (sum (fun u -> u.u_alloc_words) usage);
    p_peak_heap_mb = List.fold_left (fun acc u -> Float.max acc u.u_top_heap_mb) 0.0 usage;
    p_spans = spans;
  }

let serve_digest (r : Serve.report) =
  let b = Buffer.create 512 in
  Printf.bprintf b "req=%d done=%d busy=%h rps=%h p50=%h p95=%h p99=%h qd=%h/%d hit=%h open=%d el=%d,%d,%d ok=%b\n"
    r.Serve.rp_requests r.Serve.rp_completed r.Serve.rp_busy_s r.Serve.rp_throughput_rps r.Serve.rp_p50_ms
    r.Serve.rp_p95_ms r.Serve.rp_p99_ms r.Serve.rp_mean_queue_depth r.Serve.rp_max_queue_depth
    r.Serve.rp_env_hit_rate r.Serve.rp_open_elisions r.Serve.rp_elided_h2d r.Serve.rp_elided_d2h
    r.Serve.rp_elided_pages r.Serve.rp_all_identical;
  List.iter
    (fun (s : Serve.session_report) ->
      Printf.bprintf b "%d %s %d %d %h %s\n" s.Serve.sr_id s.Serve.sr_app s.Serve.sr_requests s.Serve.sr_env_hits
        s.Serve.sr_mean_ms
        (bits_digest (Array.map Int32.float_of_bits s.Serve.sr_output_bits)))
    r.Serve.rp_sessions;
  Digest.to_hex (Digest.string (Buffer.contents b))

let serve_pass (w : serve) ~traced : pass =
  let startups =
    List.init startups_per_pass (fun i -> serve_startup ~seed:(w.s_config.Serve.cf_seed + (10 * i)))
  in
  let child () =
    let sp = Spans.create ~on:traced () in
    let w0 = Spans.alloc_words () in
    let t0 = Spans.now_ns () in
    let report, trace =
      Spans.span sp "serve" (fun () ->
          Spans.span sp "serve.run" (fun () -> Serve.run { w.s_config with Serve.cf_trace = traced } w.s_sessions))
    in
    let usage =
      { u_wall_ns = Spans.now_ns () -. t0; u_alloc_words = Spans.alloc_words () -. w0; u_top_heap_mb = top_heap_mb () }
    in
    let sim_spans, dropped =
      match trace with Some tr -> (Perf.Trace.spans tr, Perf.Trace.dropped tr) | None -> ([], 0)
    in
    (report, sim_spans, dropped, Spans.spans sp, usage)
  in
  let r, sim_spans, dropped, spans, usage =
    match isolated child with Ok x -> x | Error e -> failwith ("serve: " ^ e)
  in
  let wall_s = usage.u_wall_ns /. 1e9 in
  (* a request fails when it never completed or its session's output
     differed from the host reference *)
  let wrong =
    List.fold_left (fun acc (s : Serve.session_report) -> if s.Serve.sr_ok then acc else acc + s.Serve.sr_requests) 0
      r.Serve.rp_sessions
  in
  let failed = min r.Serve.rp_requests (r.Serve.rp_requests - r.Serve.rp_completed + wrong) in
  let env_lookups =
    List.fold_left (fun acc (s : Serve.session_report) -> acc + s.Serve.sr_env_lookups) 0 r.Serve.rp_sessions
  in
  let sim =
    [
      ("sim_s", r.Serve.rp_busy_s);
      ("req_per_s", r.Serve.rp_throughput_rps);
      ("req_p50_ms", r.Serve.rp_p50_ms);
      ("req_p95_ms", r.Serve.rp_p95_ms);
      ("req_count", float_of_int r.Serve.rp_completed);
      ("serve.queue_depth_mean", r.Serve.rp_mean_queue_depth);
      ("serve.queue_depth_max", float_of_int r.Serve.rp_max_queue_depth);
      ("serve.env_hit_rate", r.Serve.rp_env_hit_rate);
      ("serve.env_lookups", float_of_int env_lookups);
      ("serve.open_elisions", float_of_int r.Serve.rp_open_elisions);
      ("dataenv.elided_h2d", float_of_int r.Serve.rp_elided_h2d);
      ("dataenv.elided_d2h", float_of_int r.Serve.rp_elided_d2h);
      ("dataenv.elided_pages", float_of_int r.Serve.rp_elided_pages);
    ]
    @ if traced then sim_phases sim_spans else []
  in
  let host =
    if not traced then []
    else
      let ms = layer_ms spans in
      [
        ("serve.run_ms", ms "serve.run");
        ("serve.host_ms_per_req", ms "serve.run" /. float_of_int (max 1 r.Serve.rp_requests));
        ("bench.unattributed_frac", unattributed ~wall_s spans);
      ]
  in
  {
    p_traced = traced;
    p_wall_s = wall_s;
    p_setup_ns = startups;
    p_attempted = r.Serve.rp_requests;
    p_failed = failed;
    p_errors =
      (if failed > 0 then [ Printf.sprintf "serve: %d of %d requests failed" failed r.Serve.rp_requests ] else [])
      @ if dropped > 0 then [ Printf.sprintf "serve: %d trace events dropped" dropped ] else [];
    p_digest = serve_digest r;
    p_sim = sim;
    p_host = host;
    p_insts = 0.0;
    p_alloc_mb = mb_of_words usage.u_alloc_words;
    p_peak_heap_mb = usage.u_top_heap_mb;
    p_spans = spans;
  }

let pass (w : t) ~traced = match w with Fig4 f -> fig4_pass f ~traced | Serve_mixed s -> serve_pass s ~traced
