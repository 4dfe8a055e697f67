(** Device data environment (paper sections 2 and 4.2.1): tracks which
    host ranges are mapped to device memory, with OpenMP
    present/refcount semantics:

    - mapping an already-present range only increments its refcount (no
      transfer) — this is what makes [target data] regions effective at
      eliminating redundant movement;
    - the final unmap performs the from/tofrom copy-back and frees the
      device buffer;
    - [target update] moves data for present ranges without touching
      refcounts.

    Three unified-memory strategies sit on top (the Nano's CPU and GPU
    share DRAM).  Every mapping runs in one of three modes, fixed at its
    cold map: copy (the classic protocol), elide (released buffers park
    in a small resident cache, copies are skipped whole-buffer or
    page-wise where host and device images provably agree), and
    zero-copy (the map pins the host range so kernels address it in
    place — no device buffer, no copies).  The mode comes from the
    run-level selector {!set_mem_mode}: [Forced m] fixes it for every
    buffer, [Auto] asks the per-buffer {!Mempolicy} cost model fed by
    observed history; every cold map emits a cat:"mem"
    "policy_decide" trace instant.  A map with the [always] modifier
    forces the transfers regardless.

    Fallible driver calls are retried under a {!Resilience.policy}; when
    one still fails the device is declared dead: live from/tofrom
    mappings are salvaged back to the host and every later operation
    degrades to a host-memory no-op, so execution continues on the
    sequential fallback path. *)

open Machine
open Gpusim

exception Map_error of string

type map_type = Alloc | To | From | Tofrom

val pp_map_type : Format.formatter -> map_type -> unit

val show_map_type : map_type -> string

val equal_map_type : map_type -> map_type -> bool

(** Decode the integer codes used by the generated ort_map calls
    (0 alloc, 1 to, 2 from, 3 tofrom). *)
val map_type_of_int : int -> map_type

(** Decode a full ort_map code: two-bit map type plus the [always]
    modifier as bit 4. *)
val decode_map_code : int -> map_type * bool

type t

val create : host:Mem.t -> driver:Driver.t -> t

(** Map a host range; returns the corresponding device address.
    Present ranges are reference-counted and reused.  [always] forces
    the to/tofrom transfer even when the range is present or provably
    clean in the resident cache.  With [stream] the map is made from
    inside that stream's task: its transfers are enqueued on the stream
    (memory effects eager, costs on the stream's timeline), alloc and
    pinning stay synchronous, and a cold map is decided into copy mode
    where it would elide (an in-flight range can never be proven
    clean). *)
val map : ?always:bool -> ?stream:Driver.stream -> t -> Addr.t -> bytes:int -> map_type -> Addr.t

(** Decrement; on the final release perform the map type's copy-back and
    free (or, under elision, park) the device buffer.  [always] forces
    the from/tofrom copy-back on every decrement.  The entry released is
    the one mapped at exactly [haddr], else the first containing it, so
    partially overlapping maps each release their own entry.  With
    [stream] the release is made from inside that stream's task: its
    transfers are enqueued on the stream, and the in-flight check below
    does not apply, since the caller is that work.
    @raise Map_error if the final release hits a range with async work
    still in flight (missing taskwait) *)
val unmap : ?always:bool -> ?stream:Driver.stream -> t -> Addr.t -> map_type -> unit

(** {1 Unified-memory optimisations} *)

(** Select the memory mode of every later cold map (default
    [Forced Copy]):
    - [Forced Elide]: released device buffers park in a small resident
      cache, and h2d/d2h copies are skipped when host and device images
      provably agree (host side: digest at last sync point; device side:
      the driver's per-allocation store counts and write epoch);
    - [Forced Zerocopy]: a map pins the host range (cuMemHostRegister)
      and returns the host address itself — kernels access the shared
      DRAM in place, paying the uncached-access cost instead of copy
      time;
    - [Auto]: decide per buffer via {!Mempolicy}. *)
val set_mem_mode : t -> Mempolicy.sel -> unit

val mem_mode : t -> Mempolicy.sel

(** Granularity of per-page dirty tracking (default
    {!default_page_bytes}); tests shrink it to exercise page-boundary
    behaviour without megabyte buffers.
    @raise Invalid_argument on a non-positive size *)
val set_page_bytes : t -> int -> unit

val page_bytes : t -> int

val default_page_bytes : int

type stats = {
  elided_h2d : int;  (** whole-buffer h2d elisions *)
  elided_d2h : int;  (** whole-buffer d2h elisions *)
  elided_h2d_pages : int;  (** clean pages skipped by partial h2d / update-to *)
  elided_d2h_pages : int;  (** clean pages skipped by partial d2h / update-from *)
  elided_update_to : int;  (** [target update to] fully elided *)
  elided_update_from : int;  (** [target update from] fully elided *)
  zerocopy_accesses : int;
  digested_bytes : int;
      (** host bytes MD5-hashed: sync, release, per-page and policy digests *)
}

val stats : t -> stats

(** Per-buffer tally of cold-map mode decisions, sorted by host offset:
    ((off, bytes), [(mode_name, count); ...]). *)
val policy_decisions : t -> ((int * int) * (string * int) list) list

(** Distinct modes decided across all buffers of this environment. *)
val policy_modes_used : t -> Mempolicy.mode list

(** Parked buffers currently in the resident cache. *)
val resident_buffers : t -> int

(** Bytes currently parked in the resident cache. *)
val resident_bytes : t -> int

(** Byte budget of the resident cache (default
    {!default_resident_cap_bytes}).  Eviction is byte-accounted — LRU
    buffers are dropped until the parked total fits, and a buffer larger
    than the whole budget is freed instead of parked — so one large
    session cannot flush every small session's parked buffer.  Shrinking
    the budget evicts immediately.
    @raise Invalid_argument on a negative budget *)
val set_resident_cap_bytes : t -> int -> unit

val default_resident_cap_bytes : int

(** {1 Stream awareness} *)

(** Install the async-awareness hooks (normally done by [Rt] against its
    stream tracker): [pending] answers whether queued stream work
    touches a host range; [sync_range] waits for it; the optional
    [register_pinned]/[unregister_pinned] advertise zero-copy pinned
    ranges so overlapping stream tasks serialize against them.  [unmap]
    refuses a final release on a pending range; [update_to]/[update_from]
    sync the range first. *)
val set_async_hooks :
  ?register_pinned:(Addr.t -> bytes:int -> unit) ->
  ?unregister_pinned:(Addr.t -> bytes:int -> unit) ->
  t ->
  pending:(Addr.t -> bytes:int -> bool) ->
  sync_range:(Addr.t -> bytes:int -> unit) ->
  unit

(** Translate a host address inside a mapped range to its device image. *)
val lookup : t -> Addr.t -> Addr.t option

val lookup_exn : t -> Addr.t -> Addr.t

val is_present : t -> Addr.t -> bytes:int -> bool

val update_to : t -> Addr.t -> bytes:int -> unit

val update_from : t -> Addr.t -> bytes:int -> unit

val active_mappings : t -> int

(** {1 Multi-device sharding support} *)

(** The extent of the present-table entry containing a host address. *)
type extent = { x_host : Addr.t; x_bytes : int; x_zerocopy : bool }

val find_extent : t -> Addr.t -> extent option

(** Bring the host image of the containing entry up to date (d2h) unless
    it provably already is; used before broadcasting an operand to the
    secondary devices of a sharded launch. *)
val refresh_host : t -> Addr.t -> unit

(** {1 Fault handling} *)

(** Set the retry policy used for this environment's driver calls. *)
val set_policy : t -> Resilience.policy -> unit

val policy : t -> Resilience.policy

val is_dead : t -> bool

val dead_reason : t -> string option

(** Declare the device dead (idempotent): emit a "device_dead" trace
    event, salvage live from/tofrom mappings back to host memory, and
    drop the environment.  After this, [map] returns the host address
    unchanged, [unmap]/[update_*] are no-ops, and [lookup] is the
    identity — the host fallback path works on host memory directly.
    [salvage:false] skips the rescue copies, for callers that already
    hold a newer host image of every live mapping (the multi-device
    shard merger). *)
val declare_dead : ?salvage:bool -> t -> reason:string -> unit
