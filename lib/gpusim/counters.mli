(** Dynamic statistics of one kernel launch, feeding the cost model.

    A thread's instruction tally ({!Cinterp.Interp.t.tally}) is added
    here when its block retires ({!add_thread}) and folded into per-warp
    maxima, approximating SIMT lockstep cost under divergence.  Global-memory coalescing is sampled
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

(** The executors' step tally. *)
type class_counts = Machine.Simclock.tally = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

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
  mutable barrier_warp_arrivals : int;  (** rounded per the paper's X = W ceil(N/W) *)
  mutable atomics : int;
  mutable chunk_grabs : int;  (** dynamic/guided scheduler chunk grants *)
  mutable blocks_executed : int;
  mutable blocks_total : int;
  mutable zerocopy_loads : int;  (** kernel accesses to pinned host memory *)
  mutable zerocopy_stores : int;
  per_alloc : (int, alloc_stats) Hashtbl.t;
  per_pin : (int, pin_stats) Hashtbl.t;  (** zero-copy accesses keyed by pin id *)
  mutable alloc_bounds : int array;  (** sorted: [[|off0; end0; off1; ...|]] *)
  mutable alloc_entries : alloc_stats array;  (** each [alloc_bounds] entry's *)
  mutable pinned_bounds : int array;  (** the pinned host ranges, likewise *)
  mutable pinned_ids : int array;
  mutable pinned_entries : pin_stats array;  (** filled on first access *)
  mutable sample_block_seq : int;
      (** index of the block contributing samples, -1 when sampling is off *)
  mutable block_contributed : bool;
  sample_warps : int;  (** sample rows per block: the spec's largest block in warps *)
  mutable access_seqs : int array;
      (** the sampled block's next access position per (thread, allocation) *)
}

val create : Spec.t -> t

(** The (offset, length, id) ranges of the allocations accesses are
    attributed to, in any order. *)
val set_alloc_table : t -> (int * int * int) array -> unit

(** The (offset, length, id) ranges of pinned host memory the device
    may access zero-copy, in any order. *)
val set_pinned_table : t -> (int * int * int) array -> unit

(** [begin_block t n_threads] starts a block; when it is sampled
    ([sample_block_seq >= 0]), every thread's access positions restart
    at 0. *)
val begin_block : t -> int -> unit

(** Zero a tally, as a thread starts. *)
val clear_classes : class_counts -> unit

(** [add_thread t lin c]: thread [lin] of the running block ran the
    steps of [c]; called for each thread before {!retire_block}. *)
val add_thread : t -> int -> class_counts -> unit

val retire_block : t -> int -> unit

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

(** [on_zerocopy_access t kind off] counts a kernel access to pinned
    host memory at host offset [off] (zero-copy; uncached, so no
    coalescing sample is kept), attributed to the pinned range it hit;
    false, counting nothing, when no pinned range covers [off]. *)
val on_zerocopy_access : t -> Cinterp.Interp.access -> int -> bool

val zerocopy_accesses : t -> int

(** Estimated DRAM transactions for one allocation (sampled
    transactions-per-access scaled to all accesses; perfectly coalesced
    when nothing was sampled). *)
val alloc_transactions : t -> alloc_stats -> float

val global_transactions : t -> float

val global_accesses : t -> int

(** Scale factor when only a subset of blocks was simulated. *)
val block_scale : t -> float
