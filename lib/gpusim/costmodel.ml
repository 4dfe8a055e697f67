(* Converts dynamic launch statistics into simulated kernel time.

   The model is a roofline over two components:
   - issue time: per-warp instructions (max over lanes, so divergence is
     charged) spread over the SM's warp schedulers, weighted by a
     per-class CPI mix;
   - memory time: estimated DRAM transactions at the device bandwidth.

   Absolute constants are calibrated against the magnitudes reported in
   the paper (Section 5); see EXPERIMENTS.md. *)

type breakdown = {
  bd_issue_cycles : float;
  bd_mem_cycles : float;
  bd_barrier_cycles : float;
  bd_total_cycles : float;
  bd_time_ns : float;
  bd_global_bytes : float;
  bd_zerocopy_bytes : float; (* uncached pinned-host traffic (zero-copy maps) *)
  bd_divergence : float; (* warp-max sum vs thread-average ratio, >= 1 *)
}

let cpi (spec : Spec.t) (c : Counters.class_counts) : float =
  let total = float_of_int (Counters.class_total c) in
  if total = 0.0 then 1.0
  else
    let f n w = float_of_int n *. w in
    (f c.arith 1.0 +. f c.mul 1.6 +. f c.div 5.0 +. f c.branch 1.4 +. f c.call 2.0 +. f c.special 7.0)
    /. total
    *. spec.Spec.cycles_per_interp_step

(* Resident parallelism: how many of the SM's warp slots are actually
   covered by this launch. *)
let issue_parallelism (spec : Spec.t) ~block_threads ~total_blocks =
  let warps_per_block = Spec.warps_per_block spec block_threads in
  let max_resident_threads = 2048 in
  let resident_blocks = max 1 (min total_blocks (max_resident_threads / max 1 block_threads)) in
  float_of_int (min spec.Spec.warp_schedulers (warps_per_block * resident_blocks))

let kernel_time (spec : Spec.t) (t : Counters.t) ~block_threads ~total_blocks : breakdown =
  let scale = Counters.block_scale t in
  let warp_insts = t.Counters.warp_inst_sum *. scale in
  let thread_insts = t.Counters.thread_inst_sum *. scale in
  let divergence = if thread_insts = 0.0 then 1.0 else warp_insts *. 32.0 /. thread_insts in
  (* memory instructions occupy the LSU pipeline for several cycles per
     warp; this is what makes load-heavy kernels insensitive to modest
     amounts of extra integer arithmetic *)
  let mem_insts =
    (float_of_int (Counters.global_accesses t) +. float_of_int t.Counters.shared_accesses
   +. float_of_int (Counters.zerocopy_accesses t))
    *. scale /. float_of_int spec.Spec.warp_size
  in
  let mix = cpi spec t.Counters.classes in
  let throughput_cycles =
    ((warp_insts *. mix) +. (mem_insts *. spec.Spec.mem_issue_cycles))
    /. issue_parallelism spec ~block_threads ~total_blocks
  in
  (* makespan floor: the heaviest single warp cannot be split across
     schedulers — this is what an imbalanced schedule or a serial master
     thread costs *)
  let makespan_cycles = t.Counters.warp_inst_max *. mix in
  let issue_cycles = Float.max throughput_cycles makespan_cycles in
  let transactions = Counters.global_transactions t *. scale in
  let global_bytes =
    transactions *. float_of_int spec.Spec.transaction_bytes *. (1.0 -. spec.Spec.l2_hit_fraction)
  in
  let bytes_per_cycle = spec.Spec.mem_bandwidth /. spec.Spec.gpu_clock_hz in
  let bandwidth_cycles = global_bytes /. bytes_per_cycle in
  (* At low occupancy there are not enough warps in flight to hide DRAM
     latency, so accesses serialise (the regime of gramschmidt's
     single-thread normalisation kernel). *)
  let warps_per_block = Spec.warps_per_block spec block_threads in
  let resident_blocks = max 1 (min total_blocks (2048 / max 1 block_threads)) in
  let resident_warps = warps_per_block * resident_blocks in
  let mem_latency_cycles = 400.0 in
  let latency_cycles =
    if resident_warps >= 8 then 0.0
    else transactions *. mem_latency_cycles /. (float_of_int resident_warps *. 4.0)
  in
  (* Zero-copy traffic bypasses L2 entirely and streams over the shared
     DRAM at the (lower) uncached pinned bandwidth.  There is no cache
     discount and no coalescing sample: one warp-wide transaction per
     warp memory instruction. *)
  let zc_transactions =
    float_of_int (Counters.zerocopy_accesses t) *. scale /. float_of_int spec.Spec.warp_size
  in
  let zc_bytes = zc_transactions *. float_of_int spec.Spec.transaction_bytes in
  let zc_cycles = zc_bytes /. (spec.Spec.zerocopy_bandwidth /. spec.Spec.gpu_clock_hz) in
  let mem_cycles = Float.max bandwidth_cycles latency_cycles +. zc_cycles in
  let barrier_cycles = float_of_int t.Counters.barrier_warp_arrivals *. scale *. 24.0 in
  let total = Float.max issue_cycles mem_cycles +. barrier_cycles in
  {
    bd_issue_cycles = issue_cycles;
    bd_mem_cycles = mem_cycles;
    bd_barrier_cycles = barrier_cycles;
    bd_total_cycles = total;
    bd_time_ns = total /. spec.Spec.gpu_clock_hz *. 1e9;
    bd_global_bytes = global_bytes;
    bd_zerocopy_bytes = zc_bytes;
    bd_divergence = divergence;
  }

let pp_breakdown fmt b =
  Format.fprintf fmt
    "issue=%.0f cyc, mem=%.0f cyc (%.1f MB), barriers=%.0f cyc, total=%.0f cyc (%.3f ms), divergence=%.2f"
    b.bd_issue_cycles b.bd_mem_cycles
    (b.bd_global_bytes /. 1e6)
    b.bd_barrier_cycles b.bd_total_cycles (b.bd_time_ns /. 1e6) b.bd_divergence
