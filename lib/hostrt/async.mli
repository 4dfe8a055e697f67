(** Stream pool and dependency tracker for [target ... nowait] regions.

    Each submitted task names the host byte ranges it reads and writes;
    tasks whose ranges conflict (RAW / WAR / WAW) are serialized on the
    simulated timeline, independent tasks go to the least-loaded stream
    for transfer/compute overlap.  Memory effects of async driver ops
    are eager (host program order), so any admissible schedule replays
    to the same memory image as the fully synchronous one; the tracker
    only shapes the simulated timeline.  Every enqueue, dependency edge
    and synchronization point emits a cat:"async" trace event. *)

open Machine
open Gpusim

(** A host byte range. *)
type range = { rg_off : int; rg_len : int }

val range_of_addr : Addr.t -> bytes:int -> range

val ranges_overlap : range -> range -> bool

type task = {
  t_id : int;
  t_label : string;
  t_stream : Driver.stream;
  t_reads : range list;
  t_writes : range list;
  t_deps : int list;  (** ids of the pending tasks this one waited on *)
  mutable t_done_ns : float;  (** absolute sim time when the task completes *)
}

type t

val default_streams : int

(** @raise Invalid_argument on a non-positive stream count *)
val create : ?streams:int -> Driver.t -> t

(** Resize the stream pool.
    @raise Invalid_argument if non-positive or tasks are in flight *)
val set_streams : t -> int -> unit

(** The stream-pool size. *)
val streams : t -> int

(** Total number of tasks ever submitted (monotone; the next task id).
    Callers such as the offload server diff this around a submission to
    learn whether work was actually enqueued or the host-fallback path
    ran instead. *)
val submitted_total : t -> int

(** The most recently submitted task, even when it has already retired
    from the pending list — its [t_done_ns] is the completion timestamp
    a server records for the request that enqueued it. *)
val last_task : t -> task option

(** Tasks whose scheduled completion lies ahead of the current simulated
    time (retired tasks are pruned as a side effect). *)
val pending : t -> task list

val pending_count : t -> int

(** Pending tasks that conflict with an access of the given ranges:
    RAW / WAR / WAW, plus any shared touch of a registered pinned
    range. *)
val conflicting : t -> reads:range list -> writes:range list -> task list

(** Advertise a zero-copy pinned host range: kernels address it in
    place, outside any stream's copy bookkeeping, so tasks touching it
    serialize against each other (even read-read) until it is
    unregistered.  Emits cat:"async" pin_register / pin_unregister
    instants. *)
val register_pinned : t -> range -> unit

val unregister_pinned : t -> range -> unit

val pinned_ranges : t -> range list

(** Pending tasks touching the range at all (read or write). *)
val pending_on : t -> range -> task list

(** [submit t ~label ~reads ~writes f] computes dependencies, picks a
    stream, blocks it behind cross-stream dependencies, then runs
    [f stream] — which enqueues the region's transfers and launch on
    that stream.  Returns [f]'s result.  If [f] raises (e.g. the device
    died), no task is recorded. *)
val submit : t -> label:string -> reads:range list -> writes:range list -> (Driver.stream -> 'a) -> 'a

(** ort_taskwait / end-of-data-environment barrier: advance the global
    clock past every queued task. *)
val wait_all : t -> unit

(** Synchronize just the tasks touching a range (a [target update] on a
    range mid-flight must wait for it). *)
val sync_range : t -> range -> unit

(** Device died with work queued: advance the clock past whatever was
    enqueued and forget the task records (memory is already coherent —
    effects were eager). *)
val quiesce : t -> unit
