(** Dynamic statistics of one kernel launch, feeding the cost model.

    Instruction counts are kept per thread within the running block and
    folded into per-warp maxima at block retirement, approximating SIMT
    lockstep cost under divergence.  Global-memory coalescing is sampled
    on the first blocks that touch memory: the k-th access of each lane
    of a warp to a given allocation is assumed to correspond to the same
    static memory instruction, so the distinct transaction segments
    covered by the lanes at position k estimate the transactions issued
    for that warp-instruction. *)

(** One warp-instruction's coalescing sample: the distinct transaction
    segments its lanes touched (the first [sm_nsegs] entries of
    [sm_segs], in first-touch order) and the number of lanes sampled. *)
type sample = { mutable sm_segs : int array; mutable sm_nsegs : int; mutable sm_lanes : int }

(** A sample's segments, in increasing order. *)
val sample_segments : sample -> int list

type class_counts = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

val zero_classes : unit -> class_counts

val class_total : class_counts -> int

type alloc_stats = {
  mutable a_loads : int;
  mutable a_stores : int;
  mutable a_store_lo : int;  (** written byte interval, relative to base *)
  mutable a_store_hi : int;  (** exclusive; [lo >= hi] means no store *)
  mutable a_atomic_lo : int;  (** bytes touched by atomic RMWs *)
  mutable a_atomic_hi : int;
  samples : (int, sample) Hashtbl.t;  (** keyed by (block, warp, access index) *)
}

(** Zero-copy traffic of one pinned range, keyed by pin id. *)
type pin_stats = {
  mutable p_loads : int;
  mutable p_stores : int;
}

type t = {
  spec : Spec.t;
  classes : class_counts;
  mutable thread_insts : int array;  (** per linear thread of the running block *)
  mutable warp_inst_sum : float;  (** sum over retired warps of max-in-warp *)
  mutable warp_inst_max : float;  (** heaviest single warp (makespan floor) *)
  mutable thread_inst_sum : float;
  mutable shared_accesses : int;
  mutable local_accesses : int;
  mutable barrier_warp_arrivals : int;  (** rounded per the paper's X = W ceil(N/W) *)
  mutable atomics : int;
  mutable chunk_grabs : int;  (** dynamic/guided scheduler chunk grants *)
  mutable blocks_executed : int;
  mutable blocks_total : int;
  mutable zerocopy_loads : int;  (** kernel accesses to pinned host memory *)
  mutable zerocopy_stores : int;
  per_alloc : (int, alloc_stats) Hashtbl.t;
  per_pin : (int, pin_stats) Hashtbl.t;  (** zero-copy accesses keyed by pin id *)
  mutable alloc_table : (int * int * int) array;
  mutable alloc_table_stats : alloc_stats array;
      (** stats of each [alloc_table] entry, resolved by binary search *)
  mutable pinned_table : (int * int * int) array;
  mutable sample_block_seq : int;
  mutable block_contributed : bool;
  max_sample_blocks : int;
  sample_cap : int;
}

val create : Spec.t -> t

(** Sorted (offset, length, id) table used to attribute accesses. *)
val set_alloc_table : t -> (int * int * int) array -> unit

val find_alloc : t -> int -> int option

(** Sorted (offset, length, id) table of pinned host ranges the device
    may access zero-copy. *)
val set_pinned_table : t -> (int * int * int) array -> unit

val find_pinned : t -> int -> int option

val begin_block : t -> int -> unit

val retire_block : t -> int -> unit

val on_step : t -> int -> Cinterp.Interp.step -> unit

(** A fresh set of one thread's per-allocation access counters, one
    per entry of the allocation table ({!set_alloc_table}). *)
val access_seq : t -> int array

(** [on_global_access t ~lin ~seq kind addr bytes] accounts one access
    of [bytes] bytes at [addr].  [seq ()] yields the accessing thread's
    {!access_seq}; it is called only while a sampled block runs. *)
val on_global_access :
  t ->
  lin:int ->
  seq:(unit -> int array) ->
  Cinterp.Interp.access ->
  Machine.Addr.t ->
  int ->
  unit

(** Record the target bytes of an atomic read-modify-write (absolute
    device offset + length); used by multi-device sharding to exchange
    only the bytes a later shard may legally observe. *)
val note_atomic : t -> off:int -> len:int -> unit

(** Byte interval (relative to allocation base, hi exclusive) written by
    this launch into the given allocation, if any. *)
val store_interval : t -> int -> (int * int) option

(** Byte interval touched by atomic RMWs in the given allocation. *)
val atomic_interval : t -> int -> (int * int) option

(** Count a kernel access that resolved to pinned host memory (zero-copy;
    uncached, so no coalescing sample is kept).  [pin] is the pinned
    range the access hit, so traffic is attributable per buffer. *)
val on_zerocopy_access : t -> pin:int -> Cinterp.Interp.access -> unit

val zerocopy_accesses : t -> int

(** Estimated DRAM transactions for one allocation (sampled
    transactions-per-access scaled to all accesses; perfectly coalesced
    when nothing was sampled). *)
val alloc_transactions : t -> alloc_stats -> float

val global_transactions : t -> float

val global_accesses : t -> int

(** Scale factor when only a subset of blocks was simulated. *)
val block_scale : t -> float
