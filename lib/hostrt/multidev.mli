(** Multi-device sharding of [distribute] grids.

    When the runtime holds more than one live device and a launch
    targets the default device, the team space is split into contiguous
    per-device shards sized by compute weight.  Every device keeps the
    full grid geometry (global team ids stay correct) and executes only
    its own block range; a three-phase memory protocol (broadcast,
    ascending launches with atomic-byte exchange, merge) keeps the
    result bit-identical to a single-device run.  A dead secondary's
    shard is re-run on the host; a dead primary degrades to the caller's
    whole-region host fallback ({!Resilience.Device_dead}). *)

open Gpusim

type shard = {
  sh_dev : int;  (** device ordinal that owned the shard *)
  sh_lo : int;  (** first linear block, inclusive *)
  sh_hi : int;  (** past-last linear block *)
  sh_stats : Driver.launch_stats option;
      (** [None]: the device died and the shard was re-run on the host *)
}

type result = {
  r_shards : shard list;  (** ascending block order *)
  r_stats : Driver.launch_stats;  (** the primary's shard *)
  r_output : string;  (** concatenated device printf output, shard order *)
}

(** Relative compute throughput of a device spec (cores x clock), the
    weight used to size its shard. *)
val device_weight : Spec.t -> float

(** Split [[0, total_blocks)] into one contiguous non-empty interval per
    weight, sized proportionally.
    @raise Invalid_argument when [total_blocks < Array.length weights]
    or no weights are given *)
val plan : total_blocks:int -> weights:float array -> (int * int) array

(** Sharded launch across every live device.  Falls back to
    {!Offload.launch} on [dev] alone when sharding does not apply
    (single live device, block sampling active, a single-block grid,
    or an operand not mapped on [dev]).
    Raises {!Resilience.Device_dead} only when the primary [dev] is
    dead — secondary deaths are absorbed by host-fallback shards. *)
val launch :
  Rt.t ->
  dev:int ->
  kernel_file:string ->
  entry:string ->
  num_teams:int ->
  num_threads:int ->
  args:Offload.arg list ->
  result
