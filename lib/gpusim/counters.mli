(** Dynamic statistics of one kernel launch, feeding the cost model.

    Instruction counts are kept per thread within the running block and
    folded into per-warp maxima at block retirement, approximating SIMT
    lockstep cost under divergence.  Global-memory coalescing is sampled
    on every warp of the first {!max_sample_blocks} blocks that touch
    global memory: the k-th access of each lane of a warp to a given
    allocation is assumed to correspond to the same static memory
    instruction, so the distinct transaction segments covered by the
    lanes at position k estimate the transactions issued for that
    warp-instruction. *)

(** Blocks sampled per launch (8). *)
val max_sample_blocks : int

(** Access positions sampled per lane and allocation (2048). *)
val sample_cap : int

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
  mutable samples : sample array array;
      (** one row per (sampled block, warp), direct-indexed by access
          position; read it through {!fold_samples}.  [[||]] builds an
          allocation with no sample. *)
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
  mutable pinned_table_stats : pin_stats array;
      (** stats of each [pinned_table] entry, filled on its first access *)
  mutable sample_block_seq : int;
      (** index of the block contributing samples, -1 when sampling is off *)
  mutable block_contributed : bool;
  sample_warps : int;  (** sample rows per block: the spec's largest block in warps *)
  mutable access_seqs : int array;
      (** the sampled block's next access position per (thread, allocation) *)
}

val create : Spec.t -> t

(** Sorted (offset, length, id) table used to attribute accesses. *)
val set_alloc_table : t -> (int * int * int) array -> unit

(** Sorted (offset, length, id) table of pinned host ranges the device
    may access zero-copy. *)
val set_pinned_table : t -> (int * int * int) array -> unit

(** Index of the pinned-table entry covering a host offset, or -1. *)
val find_pinned_idx : t -> int -> int

(** [begin_block t n_threads] starts a block; when it is sampled
    ([sample_block_seq >= 0]), every thread's access positions restart
    at 0. *)
val begin_block : t -> int -> unit

val retire_block : t -> int -> unit

val on_step : t -> int -> Cinterp.Interp.step -> unit

(** [on_global_access t ~lin kind addr bytes] accounts one access of
    [bytes] bytes at [addr] by thread [lin] of the running block.  In a
    sampled block, an access to an existing sample allocates nothing
    unless it adds a segment past the sample's capacity. *)
val on_global_access : t -> lin:int -> Cinterp.Interp.access -> Machine.Addr.t -> int -> unit

(** [fold_samples f s acc] folds [f key sample] over the samples of [s],
    keyed [((block * sample_warps) + warp) * sample_cap + k]. *)
val fold_samples : (int -> sample -> 'a -> 'a) -> alloc_stats -> 'a -> 'a

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
    uncached, so no coalescing sample is kept).  [entry] is the
    pinned-table entry the access hit ({!find_pinned_idx}), so traffic
    is attributable per buffer. *)
val on_zerocopy_access : t -> entry:int -> Cinterp.Interp.access -> unit

val zerocopy_accesses : t -> int

(** Estimated DRAM transactions for one allocation (sampled
    transactions-per-access scaled to all accesses; perfectly coalesced
    when nothing was sampled). *)
val alloc_transactions : t -> alloc_stats -> float

val global_transactions : t -> float

val global_accesses : t -> int

(** Scale factor when only a subset of blocks was simulated. *)
val block_scale : t -> float
