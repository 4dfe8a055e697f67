(** Converts dynamic launch statistics into simulated kernel time.

    Roofline over two components:
    - issue time: per-warp instruction counts (max over lanes, so
      divergence is charged) weighted by a CPI mix and spread over the
      SM's warp schedulers, floored by the heaviest single warp
      (makespan — what an imbalanced schedule or a serial master costs);
    - memory time: estimated DRAM transactions at device bandwidth,
      floored by a latency term when too few warps are resident to hide
      it.

    Calibration constants live in {!Spec.t}; the anchoring against the
    paper's magnitudes is described in EXPERIMENTS.md. *)

type breakdown = {
  bd_issue_cycles : float;
  bd_mem_cycles : float;
  bd_barrier_cycles : float;
  bd_total_cycles : float;
  bd_time_ns : float;
  bd_global_bytes : float;
  bd_zerocopy_bytes : float;  (** uncached pinned-host traffic (zero-copy maps) *)
  bd_divergence : float;  (** warp-max sum vs thread-average ratio, >= 1 *)
}

(** Mean cycles-per-instruction of the launch's instruction mix. *)
val cpi : Spec.t -> Counters.class_counts -> float

val issue_parallelism : Spec.t -> block_threads:int -> total_blocks:int -> float

val kernel_time : Spec.t -> Counters.t -> block_threads:int -> total_blocks:int -> breakdown

val pp_breakdown : Format.formatter -> breakdown -> unit
