(* Dynamic statistics of a kernel launch, feeding the cost model.

   Instruction counts are kept per thread within the running block and
   folded into per-warp maxima at block retirement, which approximates
   SIMT lockstep cost under divergence.  Global-memory coalescing is
   sampled on warp 0 of the first executed block: the k-th access of
   each lane to a given allocation is assumed to correspond to the same
   static memory instruction, so the number of distinct transaction
   segments covered by the 32 lanes at position k estimates the
   transactions issued for that warp-instruction. *)

open Machine

(* One warp-instruction's coalescing sample: its distinct segments in
   first-touch order, grown on demand (a warp touches at most one per
   lane), so recording a lane allocates only for a new segment past the
   array's capacity. *)
type sample = { mutable sm_segs : int array; mutable sm_nsegs : int; mutable sm_lanes : int }

let sample_segments sm = List.sort compare (Array.to_list (Array.sub sm.sm_segs 0 sm.sm_nsegs))

let rec seen sm seg i =
  i < sm.sm_nsegs && (Array.unsafe_get sm.sm_segs i = seg || seen sm seg (i + 1))

let add_segment sm seg =
  if not (seen sm seg 0) then begin
    if sm.sm_nsegs = Array.length sm.sm_segs then begin
      let grown = Array.make (2 * sm.sm_nsegs) 0 in
      Array.blit sm.sm_segs 0 grown 0 sm.sm_nsegs;
      sm.sm_segs <- grown
    end;
    sm.sm_segs.(sm.sm_nsegs) <- seg;
    sm.sm_nsegs <- sm.sm_nsegs + 1
  end;
  sm.sm_lanes <- sm.sm_lanes + 1

type class_counts = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

let zero_classes () = { arith = 0; mul = 0; div = 0; branch = 0; call = 0; special = 0 }

let class_total c = c.arith + c.mul + c.div + c.branch + c.call + c.special

type alloc_stats = {
  mutable a_loads : int;
  mutable a_stores : int;
  (* byte interval written within the allocation (relative to its base;
     lo >= hi means no store was observed).  Multi-device sharding uses
     these to merge exactly the bytes each shard produced. *)
  mutable a_store_lo : int;
  mutable a_store_hi : int;
  (* byte interval touched by atomic read-modify-writes: the only bytes a
     later shard may legally read after another shard wrote them *)
  mutable a_atomic_lo : int;
  mutable a_atomic_hi : int;
  (* warp-0 sampling: (block, access index) -> segment set + lane count *)
  samples : (int, sample) Hashtbl.t;
}

(* Zero-copy traffic per pinned range, so the memory policy can weigh a
   specific buffer's observed access volume against its transfer cost. *)
type pin_stats = {
  mutable p_loads : int;
  mutable p_stores : int;
}

type t = {
  spec : Spec.t;
  classes : class_counts;
  mutable thread_insts : int array; (* per linear thread of current block *)
  mutable warp_inst_sum : float; (* sum over retired warps of max-in-warp *)
  mutable warp_inst_max : float; (* heaviest single warp (makespan floor) *)
  mutable thread_inst_sum : float;
  mutable shared_accesses : int;
  mutable local_accesses : int;
  mutable barrier_warp_arrivals : int; (* rounded, for cost *)
  mutable atomics : int;
  mutable chunk_grabs : int; (* dynamic/guided scheduler chunk grants *)
  mutable blocks_executed : int;
  mutable blocks_total : int; (* including non-simulated (sampled-out) ones *)
  mutable zerocopy_loads : int; (* kernel accesses to pinned host memory *)
  mutable zerocopy_stores : int;
  per_alloc : (int, alloc_stats) Hashtbl.t;
  per_pin : (int, pin_stats) Hashtbl.t; (* zero-copy accesses keyed by pin id *)
  (* allocation table for addr -> allocation id: sorted (off, len, id) *)
  mutable alloc_table : (int * int * int) array;
  (* stats record for each [alloc_table] entry, so the per-access hot
     path resolves stats by binary search alone (no hashtable probe) *)
  mutable alloc_table_stats : alloc_stats array;
  (* pinned host ranges visible to the device (zero-copy): sorted (off, len, id) *)
  mutable pinned_table : (int * int * int) array;
  (* Coalescing is sampled on warp 0 of the first [max_sample_blocks]
     simulated blocks; [sample_block_seq] is the index of the block
     currently contributing samples, or -1 when sampling is off. *)
  mutable sample_block_seq : int;
  mutable block_contributed : bool; (* did the current sampled block produce any sample? *)
  max_sample_blocks : int;
  sample_cap : int;
}

let create spec =
  {
    spec;
    classes = zero_classes ();
    thread_insts = [||];
    warp_inst_sum = 0.0;
    warp_inst_max = 0.0;
    thread_inst_sum = 0.0;
    shared_accesses = 0;
    local_accesses = 0;
    barrier_warp_arrivals = 0;
    atomics = 0;
    chunk_grabs = 0;
    blocks_executed = 0;
    blocks_total = 0;
    zerocopy_loads = 0;
    zerocopy_stores = 0;
    per_alloc = Hashtbl.create 16;
    per_pin = Hashtbl.create 4;
    alloc_table = [||];
    alloc_table_stats = [||];
    pinned_table = [||];
    sample_block_seq = -1;
    block_contributed = false;
    max_sample_blocks = 8;
    sample_cap = 2048;
  }

let sorted_ranges (allocs : (int * int * int) array) =
  let allocs = Array.copy allocs in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) allocs;
  allocs

let alloc_stats t id =
  match Hashtbl.find_opt t.per_alloc id with
  | Some s -> s
  | None ->
    let s =
      {
        a_loads = 0;
        a_stores = 0;
        a_store_lo = max_int;
        a_store_hi = 0;
        a_atomic_lo = max_int;
        a_atomic_hi = 0;
        samples = Hashtbl.create 64;
      }
    in
    Hashtbl.replace t.per_alloc id s;
    s

let set_alloc_table t (allocs : (int * int * int) array) =
  let sorted = sorted_ranges allocs in
  t.alloc_table <- sorted;
  t.alloc_table_stats <- Array.map (fun (_, _, id) -> alloc_stats t id) sorted

let set_pinned_table t (ranges : (int * int * int) array) = t.pinned_table <- sorted_ranges ranges

(* Index of the entry of the sorted [(off, len, id)] ranges
   [arr.(lo..hi-1)] that covers [off], or -1.  A top-level function, not
   a local closure over [arr] and [off], so the per-access lookup
   allocates nothing. *)
let rec bsearch_idx (arr : (int * int * int) array) off lo hi : int =
  if lo >= hi then -1
  else
    let mid = (lo + hi) / 2 in
    let o, len, _ = Array.unsafe_get arr mid in
    if off < o then bsearch_idx arr off lo mid
    else if off >= o + len then bsearch_idx arr off (mid + 1) hi
    else mid

(* The entry index, so the caller can reach the parallel stats array
   without a probe. *)
let find_range_idx (arr : (int * int * int) array) off : int =
  bsearch_idx arr off 0 (Array.length arr)

let find_range (arr : (int * int * int) array) off : int option =
  match find_range_idx arr off with
  | -1 -> None
  | i ->
    let _, _, id = arr.(i) in
    Some id

let find_alloc t off : int option = find_range t.alloc_table off

let find_pinned t off : int option = find_range t.pinned_table off

let begin_block t n_threads =
  if Array.length t.thread_insts < n_threads then t.thread_insts <- Array.make n_threads 0
  else Array.fill t.thread_insts 0 n_threads 0

let retire_block t n_threads =
  t.blocks_executed <- t.blocks_executed + 1;
  let w = t.spec.Spec.warp_size in
  let nwarps = (n_threads + w - 1) / w in
  for wi = 0 to nwarps - 1 do
    let m = ref 0 in
    for lane = wi * w to min ((wi + 1) * w) n_threads - 1 do
      if t.thread_insts.(lane) > !m then m := t.thread_insts.(lane);
      t.thread_inst_sum <- t.thread_inst_sum +. float_of_int t.thread_insts.(lane)
    done;
    t.warp_inst_sum <- t.warp_inst_sum +. float_of_int !m;
    if float_of_int !m > t.warp_inst_max then t.warp_inst_max <- float_of_int !m
  done

let on_step t (lin : int) (k : Cinterp.Interp.step) =
  t.thread_insts.(lin) <- t.thread_insts.(lin) + 1;
  let c = t.classes in
  match k with
  | Cinterp.Interp.St_arith -> c.arith <- c.arith + 1
  | Cinterp.Interp.St_mul -> c.mul <- c.mul + 1
  | Cinterp.Interp.St_div -> c.div <- c.div + 1
  | Cinterp.Interp.St_branch -> c.branch <- c.branch + 1
  | Cinterp.Interp.St_call -> c.call <- c.call + 1
  | Cinterp.Interp.St_special -> c.special <- c.special + 1

(* A thread's per-allocation access counters for the sampler, indexed
   like [alloc_table]. *)
let access_seq t : int array = Array.make (Array.length t.alloc_table) 0

(* [seq ()] is the thread's [access_seq], provided by the thread state
   so that lanes can be aligned; it is only asked for in sampled blocks.
   The sampled path allocates only for a new segment or a new sample
   key. *)
let on_global_access t ~(lin : int) ~(seq : unit -> int array) (kind : Cinterp.Interp.access)
    (a : Addr.t) (bytes : int) =
  let off = (a :> int) asr Addr.code_bits in
  match find_range_idx t.alloc_table off with
  | -1 -> ()
  | i ->
    let base, _, _ = Array.unsafe_get t.alloc_table i in
    let s = Array.unsafe_get t.alloc_table_stats i in
    (match kind with
    | Cinterp.Interp.Load -> s.a_loads <- s.a_loads + 1
    | Cinterp.Interp.Store ->
      s.a_stores <- s.a_stores + 1;
      let rel = off - base in
      if rel < s.a_store_lo then s.a_store_lo <- rel;
      if rel + bytes > s.a_store_hi then s.a_store_hi <- rel + bytes);
    if t.sample_block_seq >= 0 then begin
      let warp = lin / t.spec.Spec.warp_size in
      let seq = seq () in
      let k = seq.(i) in
      seq.(i) <- k + 1;
      if k < t.sample_cap then begin
        t.block_contributed <- true;
        let seg = off / t.spec.Spec.transaction_bytes in
        let key = (((t.sample_block_seq * 32) + warp) * t.sample_cap) + k in
        match Hashtbl.find s.samples key with
        | sm -> add_segment sm seg
        | exception Not_found ->
          Hashtbl.replace s.samples key { sm_segs = Array.make 4 seg; sm_nsegs = 1; sm_lanes = 1 }
      end
    end

(* Record an atomic read-modify-write's target bytes.  Called from the
   device-runtime atomics (which know the address), not from the access
   hook: only RMWs matter for cross-shard exchange, and only they may
   legally carry values between teams of one distribute. *)
let note_atomic t ~(off : int) ~(len : int) =
  match find_range_idx t.alloc_table off with
  | -1 -> ()
  | i ->
    let base, _, _ = Array.unsafe_get t.alloc_table i in
    let s = Array.unsafe_get t.alloc_table_stats i in
    let rel = off - base in
    if rel < s.a_atomic_lo then s.a_atomic_lo <- rel;
    if rel + len > s.a_atomic_hi then s.a_atomic_hi <- rel + len

let interval_opt lo hi = if hi > lo then Some (lo, hi) else None

(* Byte interval (relative to the allocation base, hi exclusive) written
   by this launch into allocation [id], if any. *)
let store_interval t (id : int) : (int * int) option =
  match Hashtbl.find_opt t.per_alloc id with
  | None -> None
  | Some s -> interval_opt s.a_store_lo s.a_store_hi

let atomic_interval t (id : int) : (int * int) option =
  match Hashtbl.find_opt t.per_alloc id with
  | None -> None
  | Some s -> interval_opt s.a_atomic_lo s.a_atomic_hi

(* Zero-copy: a kernel access that resolved to pinned host memory.  These
   bypass the GPU caches entirely, so there is no coalescing sample to
   keep — the cost model charges them at the uncached bandwidth.  Traffic
   is also attributed to the pinned range it hit, so the memory policy
   can weigh a specific buffer's access volume against its pin cost. *)
let pin_stats t id =
  match Hashtbl.find_opt t.per_pin id with
  | Some s -> s
  | None ->
    let s = { p_loads = 0; p_stores = 0 } in
    Hashtbl.replace t.per_pin id s;
    s

let on_zerocopy_access t ~(pin : int) (kind : Cinterp.Interp.access) =
  let s = pin_stats t pin in
  match kind with
  | Cinterp.Interp.Load ->
    t.zerocopy_loads <- t.zerocopy_loads + 1;
    s.p_loads <- s.p_loads + 1
  | Cinterp.Interp.Store ->
    t.zerocopy_stores <- t.zerocopy_stores + 1;
    s.p_stores <- s.p_stores + 1

let zerocopy_accesses t = t.zerocopy_loads + t.zerocopy_stores

(* Estimated DRAM transactions for one allocation: transactions per
   sampled access (so partially-populated edge warps are weighted by
   their actual lane count), scaled to all accesses. *)
let alloc_transactions t (s : alloc_stats) : float =
  let accesses = s.a_loads + s.a_stores in
  if accesses = 0 then 0.0
  else begin
    let total_tx, total_sampled =
      Hashtbl.fold
        (fun _ sm (tx, n) -> (tx + sm.sm_nsegs, n + sm.sm_lanes))
        s.samples (0, 0)
    in
    if total_sampled = 0 then
      (* no sample: assume perfectly coalesced *)
      float_of_int accesses /. float_of_int t.spec.Spec.warp_size
    else float_of_int accesses *. float_of_int total_tx /. float_of_int total_sampled
  end

let global_transactions t =
  Hashtbl.fold (fun _ s acc -> acc +. alloc_transactions t s) t.per_alloc 0.0

let global_accesses t =
  Hashtbl.fold (fun _ s acc -> acc + s.a_loads + s.a_stores) t.per_alloc 0

(* Scale factor applied when only a subset of blocks was simulated. *)
let block_scale t =
  if t.blocks_executed = 0 then 1.0
  else float_of_int t.blocks_total /. float_of_int t.blocks_executed
