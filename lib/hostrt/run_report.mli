(** What a run decided and counted, read once from a runtime: one entry
    per device and the farm totals.  The CLIs print it, [Ompi.run] and
    [Serve.run] take their counts from it, and the test oracle reads its
    launch log and dead devices from it; nothing outside this library
    walks the device array for counts. *)

open Gpusim

type device = {
  dv_id : int;
  dv_launches : Driver.launch_stats list;  (** oldest first *)
  dv_mem : Dataenv.stats;
  dv_resident : int;  (** buffers parked in the resident cache *)
  dv_policy : ((int * int) * (string * int) list) list;
      (** per-buffer cold-map decisions (see {!Dataenv.policy_decisions}) *)
  dv_dead : string option;  (** why the device was declared dead *)
  dv_left_out : (string * string * string) list;
      (** (module, function, reason) for every function the closure JIT
          left out of the driver's loaded modules (it runs on the
          tree-walker), by module name *)
}

type t = {
  r_devices : device list;  (** by ordinal *)
  r_mem : Dataenv.stats;  (** every field summed over the devices *)
  r_launches : int;  (** kernel launches on every device *)
  r_resident : int;  (** resident buffers on every device *)
  r_dead : (int * string) list;  (** dead devices by ordinal, with the reason *)
  r_faults : (int * int) option;
      (** injected faults and fallible calls seen; [None] when no fault
          plan is armed *)
}

val of_rt : Rt.t -> t

(** Every launch as (device, stats), device by device, oldest first. *)
val launches : t -> (int * Driver.launch_stats) list

(** One per-buffer decision row: ["buffer 0x<off>+<bytes> -> copy x1, ..."]. *)
val policy_row : (int * int) * (string * int) list -> string

(** The [[faults: …]] line (when a plan is armed, naming every dead
    device) and, with [~mem], the summed [[mem: …]] lines and one
    decision row per buffer.  On a farm each row names its device; a
    single device prints no device tags. *)
val print : out_channel -> mem:bool -> t -> unit

(** One line per launch, in {!launches} order; on a farm each line
    names its device. *)
val print_launches : out_channel -> t -> unit
