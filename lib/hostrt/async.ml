(* Stream pool and dependency tracker for `target ... nowait` regions.

   Each submitted task names the host byte ranges it reads and writes
   (derived from its map clauses).  Two tasks conflict when one writes
   a range the other touches (RAW / WAR / WAW on host addresses); a new
   task must not start before its conflicting predecessors finish, which
   is enforced with cuStreamWaitEvent-style timeline arithmetic:

   - all dependencies on one stream  -> enqueue behind them on it;
   - dependencies across streams    -> pick the least-loaded stream and
     bump its timeline past every dependency's completion;
   - no dependencies                -> least-loaded stream: maximum
     opportunity for transfer/compute overlap.

   Memory effects of async driver ops are eager (host program order), so
   any admissible schedule replays to the memory image of the fully
   synchronous one; the tracker only shapes the simulated timeline.
   Every enqueue, dependency edge and synchronization point emits a
   cat:"async" trace event. *)

open Machine
open Gpusim

(* A host byte range; [rg_off] is the offset in host memory. *)
type range = { rg_off : int; rg_len : int }

let range_of_addr (a : Addr.t) ~(bytes : int) : range = { rg_off = Addr.off a; rg_len = bytes }

let ranges_overlap (a : range) (b : range) : bool =
  a.rg_len > 0 && b.rg_len > 0
  && a.rg_off < b.rg_off + b.rg_len
  && b.rg_off < a.rg_off + a.rg_len

let any_overlap (xs : range list) (ys : range list) : bool =
  List.exists (fun x -> List.exists (ranges_overlap x) ys) xs

type task = {
  t_id : int;
  t_label : string;
  t_stream : Driver.stream;
  t_reads : range list;
  t_writes : range list;
  t_deps : int list; (* ids of the pending tasks this one waited on *)
  mutable t_done_ns : float; (* absolute sim time when the task completes *)
}

type t = {
  driver : Driver.t;
  mutable n_streams : int;
  mutable pool : Driver.stream list; (* created lazily on first submit *)
  mutable tasks : task list; (* most recent first; pruned as they retire *)
  mutable next_task_id : int;
  mutable last_task : task option; (* most recently submitted, even if retired *)
  mutable pinned_ranges : range list; (* zero-copy pinned host ranges (see register_pinned) *)
}

let default_streams = 4

let create ?(streams = default_streams) (driver : Driver.t) : t =
  if streams <= 0 then invalid_arg "Async.create: stream count must be positive";
  {
    driver;
    n_streams = streams;
    pool = [];
    tasks = [];
    next_task_id = 0;
    last_task = None;
    pinned_ranges = [];
  }

let submitted_total t = t.next_task_id

let last_task t = t.last_task

let tr_instant t ?(args = []) name =
  match t.driver.Driver.trace with
  | Some tr -> Perf.Trace.instant tr ~args ~cat:"async" name
  | None -> ()

let now_ns t = Simclock.now_ns t.driver.Driver.clock

(* Tasks whose scheduled completion lies ahead of the current time.
   Retired tasks are pruned here; the host clock keeps advancing while
   host code runs, so queued work "completes in the background". *)
let pending t : task list =
  let now = now_ns t in
  t.tasks <- List.filter (fun tk -> tk.t_done_ns > now) t.tasks;
  t.tasks

let pending_count t = List.length (pending t)

(* Zero-copy pinned host ranges, registered by the data environment.
   Kernels address a pinned range in place, uncached and outside any
   stream's copy bookkeeping, so ordering on it cannot be recovered from
   read/write sets alone: any two tasks touching the same pinned range
   are serialized, even read-read.  That is how zero-copy composes with
   [--streams] without giving up eager-memory reproducibility. *)
let register_pinned t (range : range) : unit =
  t.pinned_ranges <- range :: t.pinned_ranges;
  tr_instant t "pin_register"
    ~args:[ ("offset", Perf.Trace.Int range.rg_off); ("bytes", Perf.Trace.Int range.rg_len) ]

let unregister_pinned t (range : range) : unit =
  let rec drop_one = function
    | [] -> []
    | r :: rest ->
      if r.rg_off = range.rg_off && r.rg_len = range.rg_len then rest else r :: drop_one rest
  in
  t.pinned_ranges <- drop_one t.pinned_ranges;
  tr_instant t "pin_unregister"
    ~args:[ ("offset", Perf.Trace.Int range.rg_off); ("bytes", Perf.Trace.Int range.rg_len) ]

let pinned_ranges t = t.pinned_ranges

(* Pending tasks that conflict with an access of [reads]/[writes]:
   RAW / WAR / WAW on host ranges, plus any shared touch of a registered
   pinned range. *)
let conflicting t ~(reads : range list) ~(writes : range list) : task list =
  let pins =
    List.filter (fun p -> any_overlap (reads @ writes) [ p ]) t.pinned_ranges
  in
  List.filter
    (fun tk ->
      any_overlap writes (tk.t_reads @ tk.t_writes)
      || any_overlap reads tk.t_writes
      || List.exists (fun p -> any_overlap (tk.t_reads @ tk.t_writes) [ p ]) pins)
    (pending t)

(* Pending tasks touching [range] at all (read or write) — used by the
   data environment to refuse unmapping a range with work in flight. *)
let pending_on t (range : range) : task list =
  List.filter (fun tk -> any_overlap [ range ] (tk.t_reads @ tk.t_writes)) (pending t)

let ensure_pool t : unit =
  if t.pool = [] then
    t.pool <- List.init t.n_streams (fun _ -> Driver.stream_create t.driver)

(* Resize the pool; only legal while no work is in flight. *)
let set_streams t (n : int) : unit =
  if n <= 0 then invalid_arg "Async.set_streams: stream count must be positive";
  if pending t <> [] then invalid_arg "Async.set_streams: tasks in flight";
  t.n_streams <- n;
  t.pool <- []

let streams t = t.n_streams

(* Stream choice: all dependencies on a single stream reuse it (the
   in-order queue serializes for free); otherwise the least-loaded
   stream, ties to the lowest id. *)
let choose_stream t (deps : task list) : Driver.stream =
  ensure_pool t;
  match deps with
  | first :: rest when List.for_all (fun d -> d.t_stream == first.t_stream) rest -> first.t_stream
  | _ ->
    List.fold_left
      (fun best s ->
        if s.Driver.str_done_ns < best.Driver.str_done_ns then s else best)
      (List.hd t.pool) (List.tl t.pool)

(* Submit a region: compute dependencies, pick a stream, block it behind
   cross-stream dependencies, then run [f stream] — which enqueues the
   region's transfers and launch on that stream.  Returns [f]'s result.
   If [f] raises (e.g. the device died), no task is recorded. *)
let submit t ~(label : string) ~(reads : range list) ~(writes : range list)
    (f : Driver.stream -> 'a) : 'a =
  let deps = conflicting t ~reads ~writes in
  let stream = choose_stream t deps in
  let id = t.next_task_id in
  t.next_task_id <- id + 1;
  tr_instant t "enqueue"
    ~args:
      [
        ("task", Perf.Trace.Int id);
        ("label", Perf.Trace.Str label);
        ("stream", Perf.Trace.Int stream.Driver.str_id);
        ("deps", Perf.Trace.Int (List.length deps));
      ];
  List.iter
    (fun (d : task) ->
      if d.t_stream != stream then Driver.stream_wait_until stream d.t_done_ns;
      tr_instant t "dep_edge"
        ~args:
          [
            ("from", Perf.Trace.Int d.t_id);
            ("to", Perf.Trace.Int id);
            ("from_stream", Perf.Trace.Int d.t_stream.Driver.str_id);
            ("to_stream", Perf.Trace.Int stream.Driver.str_id);
          ])
    deps;
  let result = f stream in
  let task =
    {
      t_id = id;
      t_label = label;
      t_stream = stream;
      t_reads = reads;
      t_writes = writes;
      t_deps = List.map (fun d -> d.t_id) deps;
      t_done_ns = stream.Driver.str_done_ns;
    }
  in
  t.tasks <- task :: t.tasks;
  t.last_task <- Some task;
  result

(* ort_taskwait / end-of-data-environment barrier: the host blocks until
   every queued task completes — the global clock advances to the max
   over the stream timelines. *)
let wait_all t : unit =
  let n = pending_count t in
  tr_instant t "taskwait" ~args:[ ("pending", Perf.Trace.Int n) ];
  if n > 0 then Driver.device_sync t.driver;
  t.tasks <- []

(* Synchronize just the tasks touching [range] (a `target update` on a
   range mid-flight must wait for it): advance the clock past their
   completion times. *)
let sync_range t (range : range) : unit =
  match pending_on t range with
  | [] -> ()
  | victims ->
    let target = List.fold_left (fun acc tk -> Float.max acc tk.t_done_ns) 0.0 victims in
    tr_instant t "range_sync"
      ~args:
        [
          ("offset", Perf.Trace.Int range.rg_off);
          ("bytes", Perf.Trace.Int range.rg_len);
          ("pending", Perf.Trace.Int (List.length victims));
        ];
    Simclock.advance_to t.driver.Driver.clock target

(* Device died with work queued: advance the clock past whatever was
   enqueued and forget the records, so the host fallback resumes on a
   coherent timeline.  Memory is already coherent — effects were eager
   and the data environment's salvage handles device-resident images. *)
let quiesce t : unit =
  if pending_count t > 0 then Driver.device_sync t.driver;
  t.tasks <- []
