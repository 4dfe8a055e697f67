(* ompiserve: a long-lived offload server multiplexing many simulated
   clients onto one device context.

   One runtime, one data environment, one stream pool.  A client
   session opens a persistent data environment (its long-lived inputs
   are mapped once, enter-data style); each request then re-maps those
   ranges through the translated region's map clauses and hits the
   present table — only the per-request payload moves.  Requests carry
   `target ... nowait` regions, so independent sessions multiplex onto
   the stream pool and the dependency tracker serializes exactly the
   cross-session range conflicts and within-session RAW chains.

   Time is simulated: arrivals are Poisson on the Simclock, request
   completion is read off the enqueueing task's stream timeline, and
   the serving loop advances the clock to completion events in order —
   so throughput/latency numbers are deterministic for a given seed.

   Correctness is checked per response: because async memory effects
   are eager, the output array holds its final bytes as soon as the
   region is enqueued, and we compare them (as IEEE bits) against a
   sequential host-interpreter reference trajectory computed on mirror
   arrays before the serving window opens.  This holds under fault
   injection too — retries and host fallback must not corrupt any
   session. *)

open Machine
module H = Polybench.Harness
module Report = Hostrt.Run_report
module Trace = Perf.Trace

type app_kind = Matvec | Ingest | Scale

let app_name = function Matvec -> "matvec" | Ingest -> "ingest" | Scale -> "scale"

let ingest_cols = 64

type session_spec = {
  ss_tag : int;  (* client identity: seeds array contents and payloads *)
  ss_app : app_kind;
  ss_n : int;
  ss_requests : int;
  ss_rate_hz : float;
  ss_shared_off : int option;
  ss_device : int;  (* device the session is pinned to (0 on a 1-device server) *)
}

type config = {
  cf_rt : Hostrt.Rt.config; (* the runtime's settings; sessions pin via ss_device *)
  cf_max_inflight : int;
  cf_generations : int;
  cf_seed : int;
  cf_resident_cap_bytes : int option;
  cf_trace : bool;
}

let default_config =
  {
    cf_rt =
      {
        Hostrt.Rt.default_config with
        Hostrt.Rt.streams = 4;
        mem_policy = Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide;
        fault_seed = 7;
      };
    cf_max_inflight = 8;
    cf_generations = 2;
    cf_seed = 42;
    cf_resident_cap_bytes = None;
    cf_trace = false;
  }

(* The default workload mixes the three service classes so the stream
   pool has both transfer-heavy and compute-heavy work to overlap:
   ingest saturates the copy engine, matvec the compute engine, scale
   fills the gaps.  Two matvec sessions share overlapping slices of the
   server's input pool. *)
let default_sessions ~smoke =
  let mk tag app n requests rate shared =
    {
      ss_tag = tag;
      ss_app = app;
      ss_n = n;
      ss_requests = requests;
      ss_rate_hz = rate;
      ss_shared_off = shared;
      ss_device = 0;
    }
  in
  if smoke then
    [
      mk 0 Matvec 48 5 4000.0 (Some 0);
      mk 1 Matvec 48 5 4000.0 (Some (48 * 24));
      mk 2 Ingest 96 6 5000.0 None;
      mk 3 Ingest 96 6 5000.0 None;
      mk 4 Scale 64 8 6000.0 None;
    ]
  else
    [
      mk 5 Matvec 96 12 3000.0 (Some 0);
      mk 6 Matvec 96 12 3000.0 (Some (96 * 48));
      mk 7 Matvec 64 12 3500.0 None;
      mk 8 Ingest 128 16 4000.0 None;
      mk 9 Ingest 128 16 4000.0 None;
      mk 10 Ingest 96 16 4500.0 None;
      mk 11 Scale 128 20 6000.0 None;
      mk 12 Scale 64 20 6000.0 None;
    ]

(* Service sources.  All regions are bare `nowait` combined constructs
   (no enclosing target data), so the translator emits no implicit
   barrier — the host thread returns as soon as the region is enqueued
   and the serving loop is free to admit the next request. *)

let matvec_source =
  {|
void serve_matvec(int n, float A[], float x[], float y[])
{
  #pragma omp target teams distribute parallel for nowait num_teams(1) num_threads(128) \
      map(to: n, A[0:n*n], x[0:n]) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++) {
    float s = 0.0f;
    for (int j = 0; j < n; j++)
      s += A[i * n + j] * x[j];
    y[i] = y[i] * 0.5f + s;
  }
}
|}

let ingest_source =
  {|
void serve_ingest(int rows, int cols, float S[], float x[], float y[])
{
  #pragma omp target teams distribute parallel for nowait num_teams(1) num_threads(128) \
      map(to: rows, cols, S[0:rows*cols], x[0:cols]) map(from: y[0:rows])
  for (int i = 0; i < rows; i++) {
    float s = 0.0f;
    for (int j = 0; j < cols; j++)
      s += S[i * cols + j] * x[j];
    y[i] = s;
  }
}
|}

let scale_source =
  {|
void serve_scale(int n, float y[])
{
  #pragma omp target teams distribute parallel for nowait num_teams(1) num_threads(64) \
      map(to: n) map(tofrom: y[0:n])
  for (int i = 0; i < n; i++)
    y[i] = y[i] * 1.5f + 2.0f;
}
|}

let source_of = function
  | Matvec -> matvec_source
  | Ingest -> ingest_source
  | Scale -> scale_source

let entry_of k = "serve_" ^ app_name k

(* Deterministic fills, all exactly representable in binary32 so the
   bit-identity check is meaningful rather than vacuously fuzzy. *)
let q16 v = float_of_int v /. 16.0
let pool_fill i = q16 (((i * 5) mod 33) - 16)
let mat_fill sid i = q16 (((sid * 11 + i * 3) mod 37) - 18)
let vec_init sid i = q16 (((sid * 7 + i) mod 29) - 14)
let payload_fill sid step i = q16 (((sid * 13 + step * 17 + i * 5) mod 41) - 20)

type arrays =
  | Ar_matvec of { a : Addr.t; x : Addr.t; y : Addr.t }
  | Ar_ingest of { s : Addr.t; x : Addr.t; y : Addr.t }
  | Ar_scale of { y : Addr.t }

type session = {
  se_id : int;
  se_spec : session_spec;
  se_prog : H.omp_program;
  se_ref_prog : H.omp_program;
  se_live : arrays;
  se_mirror : arrays;
  mutable se_refs : int32 array array;  (* expected output bits per step *)
  mutable se_done : int;
  mutable se_ok : bool;
  mutable se_env_hits : int;
  mutable se_env_lookups : int;
  mutable se_lat_sum_ns : float;
  mutable se_out_bits : int32 array;
}

(* Host ranges a session keeps mapped for its whole generation. *)
let persistent_ranges se =
  match se.se_live with
  | Ar_matvec { a; _ } ->
    let n = se.se_spec.ss_n in
    [ (a, n * n * 4) ]
  | Ar_ingest { x; _ } -> [ (x, ingest_cols * 4) ]
  | Ar_scale _ -> []

let output_of = function
  | Ar_matvec { y; _ } | Ar_ingest { y; _ } | Ar_scale { y } -> y

(* Output length is the row/vector count for every service class. *)
let output_len se = se.se_spec.ss_n

type req = { rq_sess : session; rq_gen : int; rq_step : int; rq_arrival : float (* ns *) }

type session_report = {
  sr_id : int;
  sr_app : string;
  sr_n : int;
  sr_requests : int;
  sr_ok : bool;
  sr_env_hits : int;
  sr_env_lookups : int;
  sr_mean_ms : float;
  sr_output_bits : int32 array;
}

type report = {
  rp_requests : int;
  rp_completed : int;
  rp_busy_s : float;
  rp_throughput_rps : float;
  rp_p50_ms : float;
  rp_p95_ms : float;
  rp_p99_ms : float;
  rp_mean_queue_depth : float;
  rp_max_queue_depth : int;
  rp_env_hit_rate : float;
  rp_open_elisions : int;
  rp_elided_h2d : int;
  rp_elided_d2h : int;
  rp_elided_pages : int; (* clean pages skipped by partial transfers, summed over devices *)
  rp_policy : (int * ((int * int) * (string * int) list) list) list;
  (* per device: per-buffer tally of cold-map mode decisions *)
  rp_resident_buffers_end : int;
  rp_faults_injected : int;
  rp_device_dead : bool;
  rp_all_identical : bool;
  rp_sessions : session_report list;
}

let percentile (sorted : float array) (q : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let run (cfg : config) (specs : session_spec list) : report * Trace.t option =
  if specs = [] then invalid_arg "Serve.run: empty workload";
  if cfg.cf_max_inflight <= 0 then invalid_arg "Serve.run: max_inflight must be positive";
  if cfg.cf_generations <= 0 then invalid_arg "Serve.run: generations must be positive";
  (* builds every device from cf_rt, rejecting a non-positive device or
     stream count *)
  let ctx = H.create ~config:cfg.cf_rt () in
  let devices = cfg.cf_rt.Hostrt.Rt.devices in
  List.iter
    (fun s ->
      if s.ss_device < 0 || s.ss_device >= devices then
        invalid_arg
          (Printf.sprintf "Serve.run: session tag %d pinned to device %d of a %d-device server"
             s.ss_tag s.ss_device devices))
    specs;
  let rt = ctx.H.rt in
  let trace = if cfg.cf_trace then Some (H.enable_trace ctx) else None in
  H.set_sampling ctx None;
  (match cfg.cf_resident_cap_bytes with
  | Some cap ->
    Array.iter
      (fun (d : Hostrt.Rt.device) -> Hostrt.Dataenv.set_resident_cap_bytes d.Hostrt.Rt.dev_dataenv cap)
      rt.Hostrt.Rt.devices
  | None -> ());
  (* Per-device views: a session's persistent environment, present-table
     lookups and stream completions all live on its pinned device. *)
  let env_of dev = (Hostrt.Rt.device rt dev).Hostrt.Rt.dev_dataenv in
  let async_of dev = (Hostrt.Rt.device rt dev).Hostrt.Rt.dev_async in
  let clock = rt.Hostrt.Rt.clock in
  let now_ns () = Simclock.now_ns clock in
  let advance_to target =
    if target > now_ns () then Simclock.advance_ns clock (target -. now_ns ())
  in
  let emit ?(args = []) name =
    match trace with Some tr -> Trace.instant tr ~args ~cat:"serve" name | None -> ()
  in

  (* One compiled program (and one host-interpreter mirror) per service
     class present in the workload — sessions of a class share them,
     which also exercises the steady-state launch cache under mixing. *)
  let kinds = List.sort_uniq compare (List.map (fun s -> s.ss_app) specs) in
  let progs =
    List.map
      (fun k ->
        let name = entry_of k in
        ( k,
          ( H.prepare_omp ctx ~name (source_of k),
            H.prepare_omp ~host_interp:true ctx ~name:(name ^ "_ref") (source_of k) ) ))
      kinds
  in
  let prog_of k = List.assoc k progs in

  (* Shared read-only input pool for matvec sessions with ss_shared_off:
     overlapping slices make concurrent sessions hit the same present-
     table entries and give the dependency tracker real cross-session
     read sharing to arbitrate against the writes around them. *)
  let pool_len =
    List.fold_left
      (fun acc s ->
        match (s.ss_app, s.ss_shared_off) with
        | Matvec, Some off -> max acc (off + (s.ss_n * s.ss_n))
        | _ -> acc)
      0 specs
  in
  let pool = if pool_len > 0 then Some (H.alloc_f32 ctx pool_len) else None in

  let sessions =
    List.mapi
      (fun i spec ->
        let n = spec.ss_n in
        let dev_prog, ref_prog = prog_of spec.ss_app in
        let alloc = H.alloc_f32 ctx in
        let live, mirror =
          match spec.ss_app with
          | Matvec ->
            let a =
              match (spec.ss_shared_off, pool) with
              | Some off, Some p -> Addr.add p (off * 4)
              | _ -> alloc (n * n)
            in
            ( Ar_matvec { a; x = alloc n; y = alloc n },
              Ar_matvec { a = alloc (n * n); x = alloc n; y = alloc n } )
          | Ingest ->
            ( Ar_ingest { s = alloc (n * ingest_cols); x = alloc ingest_cols; y = alloc n },
              Ar_ingest { s = alloc (n * ingest_cols); x = alloc ingest_cols; y = alloc n } )
          | Scale -> (Ar_scale { y = alloc n }, Ar_scale { y = alloc n })
        in
        {
          se_id = i;
          se_spec = spec;
          se_prog = dev_prog;
          se_ref_prog = ref_prog;
          se_live = live;
          se_mirror = mirror;
          se_refs = [||];
          se_done = 0;
          se_ok = true;
          se_env_hits = 0;
          se_env_lookups = 0;
          se_lat_sum_ns = 0.0;
          se_out_bits = [||];
        })
      specs
  in

  (* Per-generation input state; identical every generation so warm
     re-opens find the resident cache holding exactly these bytes. *)
  let fill_generation () =
    (match pool with Some p -> H.fill_f32 ctx p pool_len pool_fill | None -> ());
    List.iter
      (fun se ->
        let sid = se.se_spec.ss_tag and n = se.se_spec.ss_n in
        let both la ma len g =
          H.fill_f32 ctx la len g;
          H.fill_f32 ctx ma len g
        in
        match (se.se_live, se.se_mirror) with
        | Ar_matvec { a = la; x = lx; y = ly }, Ar_matvec { a = ma; x = mx; y = my } ->
          if se.se_spec.ss_shared_off = None then H.fill_f32 ctx la (n * n) (mat_fill sid);
          (* the mirror gets a private copy of the (possibly pool-backed)
             live matrix *)
          H.copy_f32 ctx ~src:la ~dst:ma (n * n);
          both lx mx n (vec_init sid);
          both ly my n (vec_init (sid + 100))
        | Ar_ingest { x = lx; y = ly; _ }, Ar_ingest { x = mx; y = my; _ } ->
          both lx mx ingest_cols (vec_init sid);
          both ly my n (fun _ -> 0.0)
        | Ar_scale { y = ly }, Ar_scale { y = my } -> both ly my n (vec_init sid)
        | _ -> assert false)
      sessions
  in

  (* Apply the per-request payload to one side (live or mirror). *)
  let apply_payload arrays se step =
    let sid = se.se_spec.ss_tag and n = se.se_spec.ss_n in
    match arrays with
    | Ar_matvec { x; _ } -> H.fill_f32 ctx x n (payload_fill sid step)
    | Ar_ingest { s; _ } -> H.fill_f32 ctx s (n * ingest_cols) (payload_fill sid step)
    | Ar_scale _ -> ()
  in

  let call prog arrays se =
    let n = se.se_spec.ss_n in
    match arrays with
    | Ar_matvec { a; x; y } ->
      H.call_omp prog (entry_of Matvec) [ H.vint n; H.fptr a; H.fptr x; H.fptr y ]
    | Ar_ingest { s; x; y } ->
      H.call_omp prog (entry_of Ingest)
        [ H.vint n; H.vint ingest_cols; H.fptr s; H.fptr x; H.fptr y ]
    | Ar_scale { y } -> H.call_omp prog (entry_of Scale) [ H.vint n; H.fptr y ]
  in

  let output_bits arrays se =
    Array.map Int32.bits_of_float (H.read_f32_array ctx (output_of arrays) (output_len se))
  in

  (* Sequential reference trajectories, computed on the mirrors before
     the serving window: refs.(step) is the expected output image after
     the session's step-th request. *)
  let compute_refs () =
    List.iter
      (fun se ->
        se.se_refs <-
          Array.init se.se_spec.ss_requests (fun step ->
              apply_payload se.se_mirror se step;
              call se.se_ref_prog se.se_mirror se;
              output_bits se.se_mirror se))
      sessions
  in

  let open_sessions () =
    List.iter
      (fun se ->
        let env = env_of se.se_spec.ss_device in
        List.iter
          (fun (addr, bytes) -> ignore (Hostrt.Dataenv.map env addr ~bytes Hostrt.Dataenv.To))
          (persistent_ranges se))
      sessions
  in
  let close_sessions () =
    Array.iter
      (fun (d : Hostrt.Rt.device) -> Hostrt.Offload.taskwait rt ~dev:d.Hostrt.Rt.dev_id)
      rt.Hostrt.Rt.devices;
    List.iter
      (fun se ->
        let env = env_of se.se_spec.ss_device in
        List.iter
          (fun (addr, _) -> Hostrt.Dataenv.unmap env addr Hostrt.Dataenv.To)
          (persistent_ranges se))
      (List.rev sessions)
  in

  (* Poisson arrivals per session, merged into one admission order. *)
  let arrivals gen start_ns =
    List.concat_map
      (fun se ->
        let st = Random.State.make [| cfg.cf_seed; se.se_id; gen |] in
        let t = ref start_ns in
        List.init se.se_spec.ss_requests (fun step ->
            let u = Random.State.float st 1.0 in
            let gap_s = -.Float.log (1.0 -. u) /. se.se_spec.ss_rate_hz in
            t := !t +. (gap_s *. 1e9);
            { rq_sess = se; rq_gen = gen; rq_step = step; rq_arrival = !t }))
      sessions
    |> List.sort (fun a b ->
           compare
             (a.rq_arrival, a.rq_sess.se_id, a.rq_step)
             (b.rq_arrival, b.rq_sess.se_id, b.rq_step))
  in

  let latencies = ref [] in
  let depth_sum = ref 0 and depth_samples = ref 0 and max_depth = ref 0 in
  let busy_ns = ref 0.0 in
  let open_elisions = ref 0 in

  let req_args rq extra =
    ("req", Trace.Str (Printf.sprintf "g%d.s%d.%d" rq.rq_gen rq.rq_sess.se_id rq.rq_step)) :: extra
  in

  (* Issue one request: payload write, translated call (which enqueues
     map/launch/unmap on a stream via the dependency tracker), and the
     eager-effects bit check.  Returns the completion timestamp. *)
  let issue rq =
    let se = rq.rq_sess in
    let env = env_of se.se_spec.ss_device in
    let async = async_of se.se_spec.ss_device in
    (* Pin the session: the translated region's -1 device sentinel
       resolves to the default device at enqueue time. *)
    Hostrt.Rt.set_default_device rt se.se_spec.ss_device;
    apply_payload se.se_live se rq.rq_step;
    List.iter
      (fun (addr, bytes) ->
        se.se_env_lookups <- se.se_env_lookups + 1;
        if Hostrt.Dataenv.is_present env addr ~bytes then se.se_env_hits <- se.se_env_hits + 1)
      (persistent_ranges se);
    emit "map" ~args:(req_args rq []);
    let before = Hostrt.Async.submitted_total async in
    call se.se_prog se.se_live se;
    let launched = Hostrt.Async.submitted_total async > before in
    let done_ns, stream =
      if launched then
        match Hostrt.Async.last_task async with
        | Some tk -> (tk.Hostrt.Async.t_done_ns, tk.Hostrt.Async.t_stream.Gpusim.Driver.str_id)
        | None -> (now_ns (), -1)
      else (now_ns (), -1)
    in
    emit "launch"
      ~args:
        (req_args rq
           [ ("stream", Trace.Int stream); ("fallback", Trace.Bool (not launched)) ]);
    let bits = output_bits se.se_live se in
    if bits <> se.se_refs.(rq.rq_step) then se.se_ok <- false;
    Float.max done_ns (now_ns ())
  in

  let total_elided_h2d () = (Report.of_rt rt).Report.r_mem.Hostrt.Dataenv.elided_h2d in
  for gen = 1 to cfg.cf_generations do
      fill_generation ();
      let st0 = total_elided_h2d () in
      open_sessions ();
      open_elisions := !open_elisions + (total_elided_h2d () - st0);
      if gen = 1 then compute_refs ();
      let start = now_ns () in
      let reqs = arrivals gen start in
      let outstanding = ref [] in
      let last_complete = ref start in
      let complete (rq, done_ns) =
        advance_to done_ns;
        outstanding := List.filter (fun (o, _) -> o != rq) !outstanding;
        let lat = done_ns -. rq.rq_arrival in
        latencies := lat :: !latencies;
        rq.rq_sess.se_done <- rq.rq_sess.se_done + 1;
        rq.rq_sess.se_lat_sum_ns <- rq.rq_sess.se_lat_sum_ns +. lat;
        last_complete := Float.max !last_complete done_ns;
        emit "complete" ~args:(req_args rq [ ("latency_ms", Trace.Float (lat /. 1e6)) ])
      in
      let earliest () =
        match !outstanding with
        | [] -> None
        | first :: rest ->
          Some
            (List.fold_left
               (fun ((_, bd) as best) ((_, d) as cand) -> if d < bd then cand else best)
               first rest)
      in
      let flush_until limit =
        let continue = ref true in
        while !continue do
          match earliest () with
          | Some (rq, d) when d <= limit -> complete (rq, d)
          | _ -> continue := false
        done
      in
      List.iter
        (fun rq ->
          flush_until rq.rq_arrival;
          advance_to rq.rq_arrival;
          emit "enqueue" ~args:(req_args rq [ ("arrival_ns", Trace.Float rq.rq_arrival) ]);
          while List.length !outstanding >= cfg.cf_max_inflight do
            match earliest () with Some p -> complete p | None -> assert false
          done;
          let depth = List.length !outstanding in
          depth_sum := !depth_sum + depth;
          incr depth_samples;
          if depth > !max_depth then max_depth := depth;
          emit "admit" ~args:(req_args rq [ ("queue_depth", Trace.Int depth) ]);
          let done_ns = issue rq in
          outstanding := (rq, done_ns) :: !outstanding)
        reqs;
      flush_until infinity;
      busy_ns := !busy_ns +. (!last_complete -. start);
      List.iter (fun se -> se.se_out_bits <- output_bits se.se_live se) sessions;
      close_sessions ()
  done;

  let lat = Array.of_list !latencies in
  Array.sort compare lat;
  let completed = Array.length lat in
  let total_requests =
    cfg.cf_generations * List.fold_left (fun acc s -> acc + s.ss_requests) 0 specs
  in
  (* Whole-farm totals: per-device counts summed. *)
  let farm = Report.of_rt rt in
  let stats = farm.Report.r_mem in
  let env_lookups = List.fold_left (fun acc se -> acc + se.se_env_lookups) 0 sessions in
  let env_hits = List.fold_left (fun acc se -> acc + se.se_env_hits) 0 sessions in
  let report =
    {
      rp_requests = total_requests;
      rp_completed = completed;
      rp_busy_s = !busy_ns /. 1e9;
      rp_throughput_rps =
        (if !busy_ns > 0.0 then float_of_int completed /. (!busy_ns /. 1e9) else 0.0);
      rp_p50_ms = percentile lat 0.50 /. 1e6;
      rp_p95_ms = percentile lat 0.95 /. 1e6;
      rp_p99_ms = percentile lat 0.99 /. 1e6;
      rp_mean_queue_depth =
        (if !depth_samples > 0 then float_of_int !depth_sum /. float_of_int !depth_samples
         else 0.0);
      rp_max_queue_depth = !max_depth;
      rp_env_hit_rate =
        (if env_lookups > 0 then float_of_int env_hits /. float_of_int env_lookups else 1.0);
      rp_open_elisions = !open_elisions;
      rp_elided_h2d = stats.Hostrt.Dataenv.elided_h2d;
      rp_elided_d2h = stats.Hostrt.Dataenv.elided_d2h;
      rp_elided_pages = stats.Hostrt.Dataenv.elided_h2d_pages + stats.Hostrt.Dataenv.elided_d2h_pages;
      rp_policy =
        List.filter_map
          (fun (d : Report.device) ->
            if d.dv_policy = [] then None else Some (d.dv_id, d.dv_policy))
          farm.Report.r_devices;
      rp_resident_buffers_end = farm.Report.r_resident;
      rp_faults_injected = Option.fold ~none:0 ~some:fst farm.Report.r_faults;
      rp_device_dead = farm.Report.r_dead <> [];
      rp_all_identical = List.for_all (fun se -> se.se_ok) sessions;
      rp_sessions =
        List.map
          (fun se ->
            {
              sr_id = se.se_id;
              sr_app = app_name se.se_spec.ss_app;
              sr_n = se.se_spec.ss_n;
              sr_requests = se.se_done;
              sr_ok = se.se_ok;
              sr_env_hits = se.se_env_hits;
              sr_env_lookups = se.se_env_lookups;
              sr_mean_ms =
                (if se.se_done > 0 then se.se_lat_sum_ns /. float_of_int se.se_done /. 1e6
                 else 0.0);
              sr_output_bits = se.se_out_bits;
            })
          sessions;
    }
  in
  (report, trace)
