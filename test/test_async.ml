(* Asynchronous offloading tests: driver stream/engine timeline
   semantics, the Hostrt.Async dependency tracker (unit + QCheck
   properties), and end-to-end `target ... nowait` timing and barriers.
   The nowait pipeline's bits under every configuration are checked by
   test_oracle. *)

open Machine
open Gpusim

let make_driver () =
  let clock = Simclock.create () in
  let host = Mem.create ~space:Addr.Host "host" in
  let driver = Driver.create clock in
  Driver.ensure_initialized driver;
  (driver, host, clock)

(* ---------------------------------------------------------------- *)
(* Driver: stream timelines and the two engines                       *)
(* ---------------------------------------------------------------- *)

(* An async copy charges the host clock only the API-issue overhead;
   the transfer's full cost lives on the stream timeline until a sync
   point pulls the clock forward. *)
let test_async_copy_advances_stream_only () =
  let driver, host, clock = make_driver () in
  let len = 1 lsl 20 in
  let src = Mem.alloc host len and dst = Driver.mem_alloc driver len in
  Bytes.set host.Mem.data (Addr.off src) 'A';
  let s = Driver.stream_create driver in
  let t0 = Simclock.now_ns clock in
  Driver.memcpy_h2d driver ~stream:s ~host ~src ~dst ~len;
  let host_cost = Simclock.now_ns clock -. t0 in
  Alcotest.(check bool) "host pays only the API overhead" true
    (host_cost <= (Driver.async_api_overhead_us *. 1e3) +. 1.0);
  Alcotest.(check bool) "stream is busy" true (Driver.stream_busy driver s);
  Alcotest.(check bool) "memory effect is eager" true
    (Bytes.get driver.Driver.global.Mem.data (Addr.off dst)
    = Bytes.get host.Mem.data (Addr.off src));
  let before_sync = Simclock.now_ns clock in
  Driver.stream_sync driver s;
  Alcotest.(check bool) "sync advances to the stream's completion" true
    (Simclock.now_ns clock > before_sync);
  Alcotest.(check bool) "drained after sync" true (not (Driver.stream_busy driver s))

(* One copy engine: transfers on different streams serialize. *)
let test_copy_engine_serializes () =
  let driver, host, _ = make_driver () in
  let len = 1 lsl 18 in
  let src = Mem.alloc host (2 * len) and dst = Driver.mem_alloc driver (2 * len) in
  let s1 = Driver.stream_create driver and s2 = Driver.stream_create driver in
  Driver.memcpy_h2d driver ~stream:s1 ~host ~src ~dst ~len;
  let d1 = s1.Driver.str_done_ns in
  Driver.memcpy_h2d driver ~stream:s2 ~host ~src:(Addr.add src len)
    ~dst:(Addr.add dst len) ~len;
  Alcotest.(check bool) "second transfer queues behind the first" true
    (s2.Driver.str_done_ns >= d1);
  Driver.device_sync driver;
  Alcotest.(check bool) "device_sync drains every stream" true
    (not (Driver.stream_busy driver s1 || Driver.stream_busy driver s2))

(* The engine is work-conserving: a transfer that only becomes ready
   late (its stream is blocked) leaves the engine idle for other
   streams' ready work, instead of holding the queue hostage. *)
let test_engine_backfills_idle_gaps () =
  let driver, host, clock = make_driver () in
  let len = 1 lsl 18 in
  let src = Mem.alloc host (2 * len) and dst = Driver.mem_alloc driver (2 * len) in
  let s1 = Driver.stream_create driver and s2 = Driver.stream_create driver in
  let blocked_until = Simclock.now_ns clock +. 1e7 (* 10 ms *) in
  Driver.stream_wait_until s1 blocked_until;
  Driver.memcpy_h2d driver ~stream:s1 ~host ~src ~dst ~len;
  Alcotest.(check bool) "blocked stream starts after its wait" true
    (s1.Driver.str_done_ns > blocked_until);
  Driver.memcpy_h2d driver ~stream:s2 ~host ~src:(Addr.add src len)
    ~dst:(Addr.add dst len) ~len;
  Alcotest.(check bool) "ready work fills the engine's idle gap" true
    (s2.Driver.str_done_ns < blocked_until)

(* stream_wait_until never moves a timeline backwards. *)
let test_stream_wait_monotone () =
  let driver, _, clock = make_driver () in
  let s = Driver.stream_create driver in
  let d0 = s.Driver.str_done_ns in
  Driver.stream_wait_until s (d0 -. 1000.0);
  Alcotest.(check (float 0.0)) "past wait is a no-op" d0 s.Driver.str_done_ns;
  Driver.stream_wait_until s (d0 +. 1000.0);
  Alcotest.(check (float 0.0)) "future wait pushes" (d0 +. 1000.0) s.Driver.str_done_ns;
  ignore clock

(* Complete events carry the scheduled interval and the stream id. *)
let test_async_trace_events () =
  let driver, host, clock = make_driver () in
  let tr = Perf.Trace.create clock in
  Driver.set_trace driver (Some tr);
  let len = 4096 in
  let src = Mem.alloc host len and dst = Driver.mem_alloc driver len in
  let s = Driver.stream_create driver in
  Driver.memcpy_h2d driver ~stream:s ~host ~src ~dst ~len;
  match Perf.Trace.find_events tr ~cat:"async" ~name:"HtoD" () with
  | [ e ] ->
    Alcotest.(check int) "tid is the stream id" s.Driver.str_id e.Perf.Trace.ev_tid;
    Alcotest.(check bool) "kind is Complete" true (e.Perf.Trace.ev_kind = Perf.Trace.Complete);
    Alcotest.(check bool) "duration is the transfer cost" true (e.Perf.Trace.ev_dur_ns > 0.0);
    Alcotest.(check (float 0.0)) "interval ends at the stream's done time"
      s.Driver.str_done_ns
      (e.Perf.Trace.ev_ts_ns +. e.Perf.Trace.ev_dur_ns)
  | evs -> Alcotest.failf "expected 1 async HtoD event, got %d" (List.length evs)

(* A call without a stream runs on the device's null stream, behind the
   same copy engine: it starts no earlier than the end of a copy already
   queued on another stream, the host waits for it, and it is traced as
   a transfer span with no async event and no stream_sync. *)
let test_sync_copy_waits_for_copy_engine () =
  let driver, host, clock = make_driver () in
  let tr = Perf.Trace.create clock in
  Driver.set_trace driver (Some tr);
  let len = 1 lsl 20 in
  let src = Mem.alloc host (2 * len) and dst = Driver.mem_alloc driver (2 * len) in
  Bytes.set host.Mem.data (Addr.off src + len) 'B';
  let s = Driver.stream_create driver in
  Driver.memcpy_h2d driver ~stream:s ~host ~src ~dst ~len;
  let queued_end = s.Driver.str_done_ns in
  Driver.memcpy_h2d driver ~host ~src:(Addr.add src len) ~dst:(Addr.add dst len) ~len;
  (match Perf.Trace.find_events tr ~cat:"transfer" ~name:"HtoD" () with
  | [ b; e ] ->
    Alcotest.(check bool) "starts after the queued copy" true (b.Perf.Trace.ev_ts_ns >= queued_end);
    Alcotest.(check (float 0.0)) "the host waits for it" (Simclock.now_ns clock)
      e.Perf.Trace.ev_ts_ns
  | evs -> Alcotest.failf "expected one HtoD transfer span, got %d events" (List.length evs));
  Alcotest.(check bool) "memory effect landed" true
    (Bytes.get driver.Driver.global.Mem.data (Addr.off dst + len) = 'B');
  Alcotest.(check int) "one async HtoD: the queued copy's" 1
    (Perf.Trace.count_events tr ~cat:"async" ~name:"HtoD" ());
  Alcotest.(check int) "no stream_sync" 0
    (Perf.Trace.count_events tr ~cat:"async" ~name:"stream_sync" ())

(* A copy queued behind a late stream does not free the engine for
   earlier work: a copy without a stream still waits for the copies
   queued before it. *)
let test_sync_copy_sees_hidden_intervals () =
  let driver, host, clock = make_driver () in
  let tr = Perf.Trace.create clock in
  Driver.set_trace driver (Some tr);
  let len = 1 lsl 20 in
  let src = Mem.alloc host (3 * len) and dst = Driver.mem_alloc driver (3 * len) in
  let s1 = Driver.stream_create driver and s2 = Driver.stream_create driver in
  Driver.memcpy_h2d driver ~stream:s1 ~host ~src ~dst ~len;
  let queued_end = s1.Driver.str_done_ns in
  Driver.stream_wait_until s2 (queued_end +. 1e7);
  Driver.memcpy_h2d driver ~stream:s2 ~host ~src:(Addr.add src len) ~dst:(Addr.add dst len) ~len;
  Driver.memcpy_h2d driver ~host ~src:(Addr.add src (2 * len)) ~dst:(Addr.add dst (2 * len)) ~len;
  match Perf.Trace.find_events tr ~cat:"transfer" ~name:"HtoD" () with
  | b :: _ ->
    Alcotest.(check bool) "starts after the first queued copy" true
      (b.Perf.Trace.ev_ts_ns >= queued_end)
  | [] -> Alcotest.fail "no HtoD transfer span"

(* The same between created streams: a copy queued behind a late
   stream leaves the earlier copy busy for a third stream's copy, which
   starts once it ends instead of overlapping it. *)
let test_created_stream_copies_never_overlap () =
  let driver, host, clock = make_driver () in
  let tr = Perf.Trace.create clock in
  Driver.set_trace driver (Some tr);
  let len = 1 lsl 20 in
  let src = Mem.alloc host (3 * len) and dst = Driver.mem_alloc driver (3 * len) in
  let s1 = Driver.stream_create driver
  and s2 = Driver.stream_create driver
  and s3 = Driver.stream_create driver in
  let copy s k =
    Driver.memcpy_h2d driver ~stream:s ~host ~src:(Addr.add src (k * len))
      ~dst:(Addr.add dst (k * len)) ~len
  in
  copy s1 0;
  let first_end = s1.Driver.str_done_ns in
  Driver.stream_wait_until s2 (first_end +. 1e7);
  copy s2 1;
  copy s3 2;
  match
    List.filter
      (fun e -> e.Perf.Trace.ev_tid = s3.Driver.str_id)
      (Perf.Trace.find_events tr ~cat:"async" ~name:"HtoD" ())
  with
  | [ e ] ->
    Alcotest.(check bool) "the third copy starts after the first ends" true
      (e.Perf.Trace.ev_ts_ns >= first_end)
  | evs -> Alcotest.failf "expected 1 async HtoD event on the third stream, got %d" (List.length evs)

(* The same on the compute engine: a launch without a stream waits for a
   kernel queued on another stream. *)
let test_sync_launch_waits_for_compute_engine () =
  let driver, _, clock = make_driver () in
  let src =
    "void k(int n, float *x) { int i = blockIdx.x * blockDim.x + threadIdx.x; float a = 0.0f; \
     for (int j = 0; j < n; j++) a = a + x[i]; x[i] = a; }"
  in
  let m =
    Driver.load_module driver
      (Nvcc.compile ~mode:Nvcc.Cubin ~name:"k" (Minic.Parser.parse_program src))
  in
  let buf = Driver.mem_alloc driver (4 * 256) in
  let launch ?stream () =
    Driver.launch_kernel driver ?stream ~modul:m ~entry:"k" ~grid:(Simt.dim3 8)
      ~block:(Simt.dim3 32)
      ~args:[ Value.of_int 1024; Value.ptr ~ty:Cty.Float buf ]
      ~install_builtins:Devrt.Api.install ()
  in
  let s = Driver.stream_create driver in
  ignore (launch ~stream:s ());
  let queued_end = s.Driver.str_done_ns in
  let stats = launch () in
  let kernel_ns = stats.Driver.st_breakdown.Costmodel.bd_time_ns in
  Alcotest.(check bool) "the queued kernel outlasts the next launch's issue" true
    (kernel_ns > driver.Driver.spec.Spec.kernel_launch_overhead_us *. 1e3);
  Alcotest.(check bool) "runs after the queued kernel" true
    (Simclock.now_ns clock >= queued_end +. kernel_ns)

(* ---------------------------------------------------------------- *)
(* Async dependency tracker                                           *)
(* ---------------------------------------------------------------- *)

let r ~off ~len = { Hostrt.Async.rg_off = off; rg_len = len }

let test_ranges_overlap () =
  let check = Alcotest.(check bool) in
  check "identical" true (Hostrt.Async.ranges_overlap (r ~off:0 ~len:8) (r ~off:0 ~len:8));
  check "partial" true (Hostrt.Async.ranges_overlap (r ~off:0 ~len:8) (r ~off:4 ~len:8));
  check "contained" true (Hostrt.Async.ranges_overlap (r ~off:0 ~len:16) (r ~off:4 ~len:4));
  check "adjacent do not touch" false
    (Hostrt.Async.ranges_overlap (r ~off:0 ~len:8) (r ~off:8 ~len:8));
  check "disjoint" false (Hostrt.Async.ranges_overlap (r ~off:0 ~len:4) (r ~off:100 ~len:4))

(* Test rig: every submitted task performs one real async copy so it
   occupies the copy engine and has a genuine completion timestamp. *)
type rig = {
  rg_driver : Driver.t;
  rg_host : Mem.t;
  rg_clock : Simclock.t;
  rg_async : Hostrt.Async.t;
  rg_src : Addr.t;
  rg_dst : Addr.t;
  rg_len : int;
}

let make_rig ?(streams = 4) ?(len = 1 lsl 18) () =
  let driver, host, clock = make_driver () in
  let async = Hostrt.Async.create ~streams driver in
  { rg_driver = driver; rg_host = host; rg_clock = clock;
    rg_async = async; rg_src = Mem.alloc host len; rg_dst = Driver.mem_alloc driver len;
    rg_len = len }

let submit_copy rig ~label ~reads ~writes =
  Hostrt.Async.submit rig.rg_async ~label ~reads ~writes (fun stream ->
      Driver.memcpy_h2d rig.rg_driver ~stream ~host:rig.rg_host ~src:rig.rg_src
        ~dst:rig.rg_dst ~len:rig.rg_len)

let find_task rig label =
  match List.find_opt (fun t -> t.Hostrt.Async.t_label = label) (Hostrt.Async.pending rig.rg_async) with
  | Some t -> t
  | None -> Alcotest.failf "task %s not pending" label

let test_independent_tasks_spread () =
  let rig = make_rig () in
  submit_copy rig ~label:"a" ~reads:[] ~writes:[ r ~off:0 ~len:64 ];
  submit_copy rig ~label:"b" ~reads:[] ~writes:[ r ~off:64 ~len:64 ];
  submit_copy rig ~label:"c" ~reads:[ r ~off:1000 ~len:8 ] ~writes:[ r ~off:128 ~len:64 ];
  let a = find_task rig "a" and b = find_task rig "b" and c = find_task rig "c" in
  Alcotest.(check (list int)) "no dependencies" [] (a.Hostrt.Async.t_deps @ b.Hostrt.Async.t_deps @ c.Hostrt.Async.t_deps);
  let ids = List.map (fun t -> t.Hostrt.Async.t_stream.Driver.str_id) [ a; b; c ] in
  Alcotest.(check int) "three distinct streams" 3 (List.length (List.sort_uniq compare ids))

let conflict_case name reads1 writes1 reads2 writes2 =
  let rig = make_rig () in
  submit_copy rig ~label:"first" ~reads:reads1 ~writes:writes1;
  submit_copy rig ~label:"second" ~reads:reads2 ~writes:writes2;
  let t1 = find_task rig "first" and t2 = find_task rig "second" in
  Alcotest.(check (list int)) (name ^ ": dep edge recorded") [ t1.Hostrt.Async.t_id ]
    t2.Hostrt.Async.t_deps;
  Alcotest.(check bool) (name ^ ": serialized on the timeline") true
    (t2.Hostrt.Async.t_done_ns > t1.Hostrt.Async.t_done_ns);
  Alcotest.(check int) (name ^ ": dependent task reuses the stream")
    t1.Hostrt.Async.t_stream.Driver.str_id t2.Hostrt.Async.t_stream.Driver.str_id

let test_raw_conflict () =
  conflict_case "RAW" [] [ r ~off:0 ~len:64 ] [ r ~off:32 ~len:8 ] []

let test_war_conflict () =
  conflict_case "WAR" [ r ~off:0 ~len:64 ] [] [] [ r ~off:0 ~len:64 ]

let test_waw_conflict () =
  conflict_case "WAW" [] [ r ~off:0 ~len:64 ] [] [ r ~off:60 ~len:64 ]

let test_read_read_no_conflict () =
  let rig = make_rig () in
  submit_copy rig ~label:"first" ~reads:[ r ~off:0 ~len:64 ] ~writes:[ r ~off:100 ~len:4 ];
  submit_copy rig ~label:"second" ~reads:[ r ~off:0 ~len:64 ] ~writes:[ r ~off:200 ~len:4 ];
  let t2 = find_task rig "second" in
  Alcotest.(check (list int)) "shared read input needs no edge" [] t2.Hostrt.Async.t_deps

let test_transitive_chain () =
  let rig = make_rig () in
  submit_copy rig ~label:"t1" ~reads:[] ~writes:[ r ~off:0 ~len:64 ];
  submit_copy rig ~label:"t2" ~reads:[ r ~off:0 ~len:64 ] ~writes:[ r ~off:64 ~len:64 ];
  submit_copy rig ~label:"t3" ~reads:[ r ~off:64 ~len:64 ] ~writes:[ r ~off:128 ~len:64 ];
  let t1 = find_task rig "t1" and t2 = find_task rig "t2" and t3 = find_task rig "t3" in
  Alcotest.(check bool) "chain is ordered end to end" true
    (t1.Hostrt.Async.t_done_ns < t2.Hostrt.Async.t_done_ns
    && t2.Hostrt.Async.t_done_ns < t3.Hostrt.Async.t_done_ns);
  Alcotest.(check (list int)) "t3 depends only on its direct producer"
    [ t2.Hostrt.Async.t_id ] t3.Hostrt.Async.t_deps

let test_wait_all_and_sync_range () =
  let rig = make_rig () in
  submit_copy rig ~label:"a" ~reads:[] ~writes:[ r ~off:0 ~len:64 ];
  submit_copy rig ~label:"b" ~reads:[] ~writes:[ r ~off:64 ~len:64 ];
  let a_done = (find_task rig "a").Hostrt.Async.t_done_ns in
  let b_done = (find_task rig "b").Hostrt.Async.t_done_ns in
  (* sync only a's range: the clock lands between the two completions *)
  Hostrt.Async.sync_range rig.rg_async (r ~off:0 ~len:64);
  let now = Simclock.now_ns rig.rg_clock in
  Alcotest.(check bool) "range sync reaches a's completion" true (now >= a_done);
  Alcotest.(check bool) "but not b's" true (now < b_done);
  Alcotest.(check int) "b still pending" 1 (Hostrt.Async.pending_count rig.rg_async);
  Hostrt.Async.wait_all rig.rg_async;
  Alcotest.(check bool) "taskwait reaches the last completion" true
    (Simclock.now_ns rig.rg_clock >= b_done);
  Alcotest.(check int) "queue drained" 0 (Hostrt.Async.pending_count rig.rg_async)

let test_set_streams_guard () =
  let rig = make_rig () in
  submit_copy rig ~label:"a" ~reads:[] ~writes:[ r ~off:0 ~len:64 ];
  Alcotest.(check bool) "resize with work in flight is refused" true
    (match Hostrt.Async.set_streams rig.rg_async 2 with
    | exception Invalid_argument _ -> true
    | () -> false);
  Hostrt.Async.wait_all rig.rg_async;
  Hostrt.Async.set_streams rig.rg_async 2;
  Alcotest.(check bool) "non-positive count is refused" true
    (match Hostrt.Async.create ~streams:0 rig.rg_driver with
    | exception Invalid_argument _ -> true
    | _ -> false)

exception Task_failed

let test_failed_submit_records_nothing () =
  let rig = make_rig () in
  let before = Hostrt.Async.pending_count rig.rg_async in
  (match
     Hostrt.Async.submit rig.rg_async ~label:"boom" ~reads:[] ~writes:[ r ~off:0 ~len:4 ]
       (fun _stream -> raise Task_failed)
   with
  | exception Task_failed -> ()
  | _ -> Alcotest.fail "expected the task body's exception to propagate");
  Alcotest.(check int) "no task recorded" before (Hostrt.Async.pending_count rig.rg_async)

(* -------------------- QCheck properties -------------------- *)

(* Random task soup over 8 adjacent 64-byte slots: every pair with a
   genuine RAW/WAR/WAW conflict must complete in submission order, and
   recorded dep edges must point only at genuinely conflicting tasks. *)
let access_gen =
  QCheck.Gen.(
    list_size (int_range 2 8)
      (pair (int_range 0 7) (pair (int_range 0 7) bool)))

let accesses_conflict (r1, w1) (r2, w2) =
  let overlap a b =
    List.exists (fun x -> List.exists (Hostrt.Async.ranges_overlap x) b) a
  in
  overlap w2 w1 || overlap w2 r1 || overlap r2 w1

let prop_conflicts_serialize =
  QCheck.Test.make ~name:"conflicting tasks complete in submission order" ~count:60
    (QCheck.make access_gen) (fun tasks ->
      (* large copies so nothing retires while we submit *)
      let rig = make_rig ~len:(1 lsl 20) () in
      let specs =
        List.mapi
          (fun i (rslot, (wslot, heavy)) ->
            let reads = [ r ~off:(64 * rslot) ~len:64 ] in
            let writes = [ r ~off:(64 * wslot) ~len:(if heavy then 128 else 64) ] in
            (i, reads, writes))
          tasks
      in
      List.iter
        (fun (i, reads, writes) ->
          submit_copy rig ~label:(string_of_int i) ~reads ~writes)
        specs;
      let task i = find_task rig (string_of_int i) in
      let ok_order =
        List.for_all
          (fun (i, ri, wi) ->
            List.for_all
              (fun (j, rj, wj) ->
                i >= j
                || (not (accesses_conflict (ri, wi) (rj, wj)))
                || (task i).Hostrt.Async.t_done_ns < (task j).Hostrt.Async.t_done_ns)
              specs)
          specs
      in
      let ok_edges =
        List.for_all
          (fun (j, rj, wj) ->
            List.for_all
              (fun dep_id ->
                List.exists
                  (fun (i, ri, wi) ->
                    (task i).Hostrt.Async.t_id = dep_id
                    && accesses_conflict (ri, wi) (rj, wj))
                  specs)
              (task j).Hostrt.Async.t_deps)
          specs
      in
      Hostrt.Async.wait_all rig.rg_async;
      ok_order && ok_edges && Hostrt.Async.pending_count rig.rg_async = 0)

(* ---------------------------------------------------------------- *)
(* Rt integration: dataenv hooks against the live tracker             *)
(* ---------------------------------------------------------------- *)

let pending_marker rt ~(haddr : Addr.t) ~bytes =
  (* a queued task writing [haddr .. haddr+bytes) that completes 1 ms out *)
  let dev = Hostrt.Rt.device rt 0 in
  let clock = rt.Hostrt.Rt.clock in
  Hostrt.Async.submit dev.Hostrt.Rt.dev_async ~label:"marker"
    ~reads:[] ~writes:[ Hostrt.Async.range_of_addr haddr ~bytes ]
    (fun stream -> Driver.stream_wait_until stream (Simclock.now_ns clock +. 1e6))

let test_unmap_while_pending_errors () =
  let rt = Hostrt.Rt.create () in
  let dev = Hostrt.Rt.device rt 0 in
  let h = Mem.alloc rt.Hostrt.Rt.host_mem 256 in
  ignore (Hostrt.Dataenv.map dev.Hostrt.Rt.dev_dataenv h ~bytes:256 Hostrt.Dataenv.To);
  pending_marker rt ~haddr:h ~bytes:256;
  let errored =
    match Hostrt.Dataenv.unmap dev.Hostrt.Rt.dev_dataenv h Hostrt.Dataenv.To with
    | exception Hostrt.Dataenv.Map_error _ -> true
    | () -> false
  in
  Alcotest.(check bool) "final unmap with work in flight is a Map_error" true errored;
  (* after the barrier the release goes through *)
  Hostrt.Async.wait_all dev.Hostrt.Rt.dev_async;
  Hostrt.Dataenv.unmap dev.Hostrt.Rt.dev_dataenv h Hostrt.Dataenv.To;
  Alcotest.(check int) "released after taskwait" 0
    (Hostrt.Dataenv.active_mappings dev.Hostrt.Rt.dev_dataenv)

let test_update_waits_for_pending () =
  let rt = Hostrt.Rt.create () in
  let dev = Hostrt.Rt.device rt 0 in
  let h = Mem.alloc rt.Hostrt.Rt.host_mem 256 in
  ignore (Hostrt.Dataenv.map dev.Hostrt.Rt.dev_dataenv h ~bytes:256 Hostrt.Dataenv.Tofrom);
  pending_marker rt ~haddr:h ~bytes:256;
  let marker_done = (List.hd (Hostrt.Async.pending dev.Hostrt.Rt.dev_async)).Hostrt.Async.t_done_ns in
  Hostrt.Dataenv.update_to dev.Hostrt.Rt.dev_dataenv h ~bytes:256;
  Alcotest.(check bool) "target update synced the in-flight range first" true
    (Simclock.now_ns rt.Hostrt.Rt.clock >= marker_done);
  Hostrt.Async.wait_all dev.Hostrt.Rt.dev_async;
  Hostrt.Dataenv.unmap dev.Hostrt.Rt.dev_dataenv h Hostrt.Dataenv.Tofrom

(* ---------------------------------------------------------------- *)
(* End-to-end: target nowait timing and barriers                      *)
(* ---------------------------------------------------------------- *)

(* The tiled pipeline's bits under every configuration, anchored on the
   stripped host reference, are test_oracle's; what is left is time:
   overlapping the tiles on the stream pool never costs simulated time
   over running them one by one. *)
let test_async_never_slower () =
  let run nowait = (Oracle.pipeline ~nowait ()).Oracle.run Hostrt.Rt.default_config in
  let sync = run false and async = run true in
  Alcotest.(check (array int32)) "async replays bit-identical to sync" sync.Oracle.o_out
    async.Oracle.o_out;
  Alcotest.(check bool) "async is never slower than sync" true
    (async.Oracle.o_time <= sync.Oracle.o_time)

(* No explicit taskwait: the end-of-data-environment barrier alone must
   drain the queue before the enclosing unmaps release x. *)
let test_target_data_end_barrier () =
  let p = Oracle.pipeline ~taskwait:false () in
  let async = p.Oracle.run Hostrt.Rt.default_config in
  Alcotest.(check (array int32)) "implicit barrier preserves the results"
    (p.Oracle.reference ()).Oracle.o_out async.Oracle.o_out;
  Alcotest.(check bool) "a taskwait event marks the barrier" true
    (Oracle.count async ~cat:"async" "taskwait" >= 1);
  Alcotest.(check bool) "enqueues visible in the trace" true
    (Oracle.count async ~cat:"async" "enqueue" >= 3)

let () =
  Alcotest.run "async"
    [
      ( "driver streams",
        [
          Alcotest.test_case "async copy advances only the stream" `Quick
            test_async_copy_advances_stream_only;
          Alcotest.test_case "copy engine serializes" `Quick test_copy_engine_serializes;
          Alcotest.test_case "engine backfills idle gaps" `Quick test_engine_backfills_idle_gaps;
          Alcotest.test_case "stream_wait_until is monotone" `Quick test_stream_wait_monotone;
          Alcotest.test_case "async Complete trace events" `Quick test_async_trace_events;
          Alcotest.test_case "a sync copy waits for the copy engine" `Quick
            test_sync_copy_waits_for_copy_engine;
          Alcotest.test_case "a sync copy sees hidden intervals" `Quick
            test_sync_copy_sees_hidden_intervals;
          Alcotest.test_case "created-stream copies never overlap" `Quick
            test_created_stream_copies_never_overlap;
          Alcotest.test_case "a sync launch waits for the compute engine" `Quick
            test_sync_launch_waits_for_compute_engine;
        ] );
      ( "dependency tracker",
        [
          Alcotest.test_case "ranges_overlap" `Quick test_ranges_overlap;
          Alcotest.test_case "independent tasks spread over streams" `Quick
            test_independent_tasks_spread;
          Alcotest.test_case "RAW serializes" `Quick test_raw_conflict;
          Alcotest.test_case "WAR serializes" `Quick test_war_conflict;
          Alcotest.test_case "WAW serializes" `Quick test_waw_conflict;
          Alcotest.test_case "read-read stays parallel" `Quick test_read_read_no_conflict;
          Alcotest.test_case "transitive chains" `Quick test_transitive_chain;
          Alcotest.test_case "wait_all and sync_range" `Quick test_wait_all_and_sync_range;
          Alcotest.test_case "set_streams guards" `Quick test_set_streams_guard;
          Alcotest.test_case "failed submit records nothing" `Quick
            test_failed_submit_records_nothing;
          QCheck_alcotest.to_alcotest prop_conflicts_serialize;
        ] );
      ( "dataenv integration",
        [
          Alcotest.test_case "unmap while pending errors" `Quick test_unmap_while_pending_errors;
          Alcotest.test_case "target update waits for pending" `Quick
            test_update_waits_for_pending;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "async is never slower than sync" `Quick test_async_never_slower;
          Alcotest.test_case "target data end barrier" `Quick test_target_data_end_barrier;
        ] );
    ]
