(* Dynamic statistics of a kernel launch, feeding the cost model.

   A thread's instruction tally is added here when its block retires
   and folded into per-warp maxima, which approximates SIMT lockstep
   cost under divergence.  Global-memory coalescing is sampled on every warp of the first [max_sample_blocks] simulated
   blocks that touch global memory: the k-th access of each lane to a
   given allocation is assumed to correspond to the same static memory
   instruction, so the number of distinct transaction segments covered
   by a warp's lanes at position k estimates the transactions issued
   for that warp-instruction. *)

open Machine

(* Sampled blocks per launch, and access positions sampled per lane and
   allocation. *)
let max_sample_blocks = 8

let sample_cap = 2048

(* One warp-instruction's coalescing sample: its distinct segments in
   first-touch order, grown on demand (a warp touches at most one per
   lane), so recording a lane allocates only for a new segment past the
   array's capacity. *)
type sample = { mutable sm_segs : int array; mutable sm_nsegs : int; mutable sm_lanes : int }

let sample_segments sm = List.sort compare (Array.to_list (Array.sub sm.sm_segs 0 sm.sm_nsegs))

(* The empty slot of a sample row, told apart by physical equality. *)
let no_sample = { sm_segs = [||]; sm_nsegs = 0; sm_lanes = 0 }

(* Is [seg] among [segs.(0..i)]?  Scanned backwards: a warp's lanes
   mostly revisit the segments they touched last. *)
let rec seen (segs : int array) (seg : int) i =
  i >= 0 && (Array.unsafe_get segs i = seg || seen segs seg (i - 1))

(* Count a lane of [sm] at segment [seg].  Most lanes fall in the
   segment added last, so that one is compared before the scan. *)
let add_segment sm (seg : int) =
  let n = sm.sm_nsegs in
  if Array.unsafe_get sm.sm_segs (n - 1) <> seg && not (seen sm.sm_segs seg (n - 2)) then begin
    if n = Array.length sm.sm_segs then begin
      let grown = Array.make (2 * n) 0 in
      Array.blit sm.sm_segs 0 grown 0 n;
      sm.sm_segs <- grown
    end;
    sm.sm_segs.(n) <- seg;
    sm.sm_nsegs <- n + 1
  end;
  sm.sm_lanes <- sm.sm_lanes + 1

type class_counts = Simclock.tally = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

let class_total = Simclock.tally_total

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
  (* Coalescing samples, one row per (sampled block, warp) at index
     [block * sample_warps + warp], each row direct-indexed by the
     access position k and grown by doubling up to [sample_cap]; empty
     slots hold [no_sample].  [[||]] until the first sampled access. *)
  mutable samples : sample array array;
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
  mutable barrier_warp_arrivals : int; (* rounded, for cost *)
  mutable atomics : int;
  mutable chunk_grabs : int; (* dynamic/guided scheduler chunk grants *)
  mutable blocks_executed : int;
  mutable blocks_total : int; (* including non-simulated (sampled-out) ones *)
  mutable zerocopy_loads : int; (* kernel accesses to pinned host memory *)
  mutable zerocopy_stores : int;
  per_alloc : (int, alloc_stats) Hashtbl.t;
  per_pin : (int, pin_stats) Hashtbl.t; (* zero-copy accesses keyed by pin id *)
  (* the allocations as sorted flat bounds [|off0; end0; off1; ...|],
     and each entry's stats record, found by binary search alone *)
  mutable alloc_bounds : int array;
  mutable alloc_entries : alloc_stats array;
  (* pinned host ranges (zero-copy), likewise, with each entry's pin id
     and stats record ([no_pin] until the range's first access) *)
  mutable pinned_bounds : int array;
  mutable pinned_ids : int array;
  mutable pinned_entries : pin_stats array;
  (* Coalescing is sampled on every warp of the first [max_sample_blocks]
     simulated blocks that touch global memory; [sample_block_seq] is
     the index of the block currently contributing samples, or -1 when
     sampling is off. *)
  mutable sample_block_seq : int;
  mutable block_contributed : bool; (* did the current sampled block produce any sample? *)
  (* sample rows per block: the spec's largest block, in warps *)
  sample_warps : int;
  (* the sampled block's access positions, one per (thread, allocation)
     at index [lin * Array.length alloc_entries + entry] *)
  mutable access_seqs : int array;
}

(* The empty slot of [pinned_table_stats]. *)
let no_pin = { p_loads = 0; p_stores = 0 }

let create spec =
  {
    spec;
    classes = Simclock.tally ();
    thread_insts = [||];
    warp_inst_sum = 0.0;
    warp_inst_max = 0.0;
    thread_inst_sum = 0.0;
    shared_accesses = 0;
    barrier_warp_arrivals = 0;
    atomics = 0;
    chunk_grabs = 0;
    blocks_executed = 0;
    blocks_total = 0;
    zerocopy_loads = 0;
    zerocopy_stores = 0;
    per_alloc = Hashtbl.create 16;
    per_pin = Hashtbl.create 4;
    alloc_bounds = [||];
    alloc_entries = [||];
    pinned_bounds = [||];
    pinned_ids = [||];
    pinned_entries = [||];
    sample_block_seq = -1;
    block_contributed = false;
    sample_warps = Spec.warps_per_block spec spec.Spec.max_threads_per_block;
    access_seqs = [||];
  }

(* The [(off, len, id)] ranges sorted by offset, as flat bounds and
   their ids. *)
let flat_ranges (ranges : (int * int * int) array) : int array * int array =
  let sorted = Array.copy ranges in
  Array.sort (fun (a, _, _) (b, _, _) -> compare a b) sorted;
  let bounds = Array.make (2 * Array.length sorted) 0 in
  Array.iteri
    (fun i (off, len, _) ->
      bounds.(2 * i) <- off;
      bounds.((2 * i) + 1) <- off + len)
    sorted;
  (bounds, Array.map (fun (_, _, id) -> id) sorted)

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
        samples = [||];
      }
    in
    Hashtbl.replace t.per_alloc id s;
    s

let set_alloc_table t (allocs : (int * int * int) array) =
  let bounds, ids = flat_ranges allocs in
  t.alloc_bounds <- bounds;
  t.alloc_entries <- Array.map (alloc_stats t) ids

let set_pinned_table t (ranges : (int * int * int) array) =
  let bounds, ids = flat_ranges ranges in
  t.pinned_bounds <- bounds;
  t.pinned_ids <- ids;
  t.pinned_entries <- Array.make (Array.length ids) no_pin

(* Index of the entry of the flat bounds [b] that covers [off], among
   entries [lo..hi-1], or -1.  A top-level function, not a local
   closure, so the per-access lookup allocates nothing. *)
let rec search (b : int array) off lo hi : int =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    if off < Array.unsafe_get b (2 * mid) then search b off lo mid
    else if off >= Array.unsafe_get b ((2 * mid) + 1) then search b off (mid + 1) hi
    else mid

let find_range (b : int array) off : int = search b off 0 (Array.length b lsr 1)

(* [arr] with its first [n] entries zeroed, or a fresh array of [n]
   zeros when it is shorter. *)
let zero_prefix (arr : int array) n =
  if Array.length arr < n then Array.make n 0
  else begin
    Array.fill arr 0 n 0;
    arr
  end

let begin_block t n_threads =
  t.thread_insts <- zero_prefix t.thread_insts n_threads;
  if t.sample_block_seq >= 0 then
    t.access_seqs <- zero_prefix t.access_seqs (n_threads * Array.length t.alloc_entries)

(* Zero a thread's tally as it starts. *)
let clear_classes (c : class_counts) =
  c.arith <- 0;
  c.mul <- 0;
  c.div <- 0;
  c.branch <- 0;
  c.call <- 0;
  c.special <- 0

(* Thread [lin] of the running block ran the steps of [c]. *)
let add_thread t (lin : int) (c : class_counts) =
  t.thread_insts.(lin) <- class_total c;
  let s = t.classes in
  s.arith <- s.arith + c.arith;
  s.mul <- s.mul + c.mul;
  s.div <- s.div + c.div;
  s.branch <- s.branch + c.branch;
  s.call <- s.call + c.call;
  s.special <- s.special + c.special

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

(* The row of sample slots for [row], grown to hold position [k].  A
   lane records its positions in order, so [k] is at most the row's
   length and one doubling is enough. *)
let sample_row t s row k =
  if Array.length s.samples = 0 then
    s.samples <- Array.make (max_sample_blocks * t.sample_warps) [||];
  let r = s.samples.(row) in
  if k < Array.length r then r
  else begin
    let grown = Array.make (min sample_cap (max 16 (2 * Array.length r))) no_sample in
    Array.blit r 0 grown 0 (Array.length r);
    s.samples.(row) <- grown;
    grown
  end

(* In a sampled block, the access is the [k]-th of thread [lin] to the
   allocation and joins sample k of the thread's warp.  Once that sample
   exists, recording it allocates only for a new segment past its
   array's capacity. *)
let on_global_access t ~(lin : int) (kind : Cinterp.Interp.access) (a : Addr.t) (bytes : int) =
  let off = (a :> int) asr Addr.code_bits in
  match find_range t.alloc_bounds off with
  | -1 -> ()
  | i ->
    let s = Array.unsafe_get t.alloc_entries i in
    (match kind with
    | Cinterp.Interp.Load -> s.a_loads <- s.a_loads + 1
    | Cinterp.Interp.Store ->
      s.a_stores <- s.a_stores + 1;
      let rel = off - Array.unsafe_get t.alloc_bounds (2 * i) in
      if rel < s.a_store_lo then s.a_store_lo <- rel;
      if rel + bytes > s.a_store_hi then s.a_store_hi <- rel + bytes);
    if t.sample_block_seq >= 0 then begin
      let j = (lin * Array.length t.alloc_entries) + i in
      let k = t.access_seqs.(j) in
      t.access_seqs.(j) <- k + 1;
      if k < sample_cap then begin
        t.block_contributed <- true;
        let seg = off / t.spec.Spec.transaction_bytes in
        let row = (t.sample_block_seq * t.sample_warps) + (lin / t.spec.Spec.warp_size) in
        let r = sample_row t s row k in
        let sm = Array.unsafe_get r k in
        if sm == no_sample then r.(k) <- { sm_segs = Array.make 4 seg; sm_nsegs = 1; sm_lanes = 1 }
        else add_segment sm seg
      end
    end

(* Fold [f key sample] over an allocation's samples, keyed
   [((block * sample_warps) + warp) * sample_cap + k]. *)
let fold_samples f (s : alloc_stats) acc =
  let acc = ref acc in
  Array.iteri
    (fun row r ->
      Array.iteri (fun k sm -> if sm != no_sample then acc := f ((row * sample_cap) + k) sm !acc) r)
    s.samples;
  !acc

(* Record an atomic read-modify-write's target bytes.  Called from the
   device-runtime atomics (which know the address), not from the
   accounted resolver: only RMWs matter for cross-shard exchange, and only they may
   legally carry values between teams of one distribute. *)
let note_atomic t ~(off : int) ~(len : int) =
  match find_range t.alloc_bounds off with
  | -1 -> ()
  | i ->
    let s = Array.unsafe_get t.alloc_entries i in
    let rel = off - Array.unsafe_get t.alloc_bounds (2 * i) in
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
let pin_stats t i =
  match Array.unsafe_get t.pinned_entries i with
  | s when s != no_pin -> s
  | _ ->
    let id = t.pinned_ids.(i) in
    let s =
      match Hashtbl.find_opt t.per_pin id with
      | Some s -> s
      | None ->
        let s = { p_loads = 0; p_stores = 0 } in
        Hashtbl.replace t.per_pin id s;
        s
    in
    t.pinned_entries.(i) <- s;
    s

(* False, counting nothing, when no pinned range covers [off]. *)
let on_zerocopy_access t (kind : Cinterp.Interp.access) (off : int) : bool =
  match find_range t.pinned_bounds off with
  | -1 -> false
  | i ->
    let s = pin_stats t i in
    (match kind with
    | Cinterp.Interp.Load ->
      t.zerocopy_loads <- t.zerocopy_loads + 1;
      s.p_loads <- s.p_loads + 1
    | Cinterp.Interp.Store ->
      t.zerocopy_stores <- t.zerocopy_stores + 1;
      s.p_stores <- s.p_stores + 1);
    true

let zerocopy_accesses t = t.zerocopy_loads + t.zerocopy_stores

(* Estimated DRAM transactions for one allocation: transactions per
   sampled access (so partially-populated edge warps are weighted by
   their actual lane count), scaled to all accesses. *)
let alloc_transactions t (s : alloc_stats) : float =
  let accesses = s.a_loads + s.a_stores in
  if accesses = 0 then 0.0
  else begin
    (* summed over every slot, [no_sample] adding 0 to both: a fold
       over the samples would allocate its accumulator per sample *)
    let total_tx = ref 0 and total_sampled = ref 0 in
    Array.iter
      (Array.iter (fun sm ->
           total_tx := !total_tx + sm.sm_nsegs;
           total_sampled := !total_sampled + sm.sm_lanes))
      s.samples;
    let total_tx = !total_tx and total_sampled = !total_sampled in
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
