(** Per-buffer memory-mode policy: classify each cold mapping as copy,
    elide (resident + transfer elision) or zero-copy, from observed
    per-buffer signals plus the device's transfer/zero-copy bandwidths
    as a cost model.  One instance lives per data environment, so
    multi-device farms keep per-device histories.  Buffers are keyed by
    their stable host (offset, bytes), which survives across data
    environments.

    Zero-copy is only chosen where it is provably bit-identical to the
    copying semantics: tofrom always; from always (pinning plus an
    in-place zero of the host range reproduces the zero-filled device
    image a from map would otherwise get); [to] once history shows the
    kernel reading the buffer without ever storing into it; never for
    alloc. *)

open Gpusim

type mode = Copy | Elide | Zerocopy [@@deriving show, eq]

(** A run-level selection: decide per buffer, or force one mode for
    every buffer.  This one value is the memory mode at every layer: the
    [--mem-policy] CLI option sets [Rt.config.mem_policy] (which
    [Ompi.config] re-exports and [Serve.config.cf_rt] carries), and
    {!Rt.create} hands it to each device's {!Dataenv.set_mem_mode}. *)
type sel = Auto | Forced of mode [@@deriving show, eq]

val mode_name : mode -> string

val sel_name : sel -> string

(** Parse "auto" | "copy" | "elide" | "zerocopy". *)
val sel_of_string : string -> sel option

type decision = {
  d_mode : mode;
  d_reason : string;
      (** "forced" | "cold" | "history" | "always" | "async_pending" *)
  d_seq : int;  (** per-buffer ordinal: this is the buffer's d_seq-th decision *)
  d_est_copy_ns : float;
  d_est_elide_ns : float;
  d_est_zerocopy_ns : float;
}

type t

val create : Spec.t -> t

(** Everything the cost model weighs for one cold map. *)
type inputs = {
  i_bytes : int;
  i_needs_h2d : bool;  (** to / tofrom *)
  i_needs_d2h : bool;  (** from / tofrom *)
  i_always : bool;
  i_pending : bool;  (** queued stream work overlaps the range *)
  i_async : bool;  (** mapping from inside a stream task *)
  i_zerocopy_safe : bool;  (** tofrom / from: zero-copy provably bit-identical *)
  i_can_zerocopy_if_readonly : bool;
      (** to-mapped: zero-copy safe once history shows reads but zero
          stores *)
  i_revivable : bool;  (** a parked resident buffer covers the range *)
  i_host_digest : Digest.t Lazy.t;
      (** current host image, for the host-dirty signal (forced lazily,
          only when a history exists to compare against) *)
}

(** Decide the mode for one cold map and record the decision. *)
val decide : t -> key:int * int -> inputs -> decision

(** Record a forced-mode cold map (ordinal + tally), so summaries and
    the trace-consistency check are uniform across modes. *)
val forced : t -> key:int * int -> mode -> decision

(** Fold in the device-side observations of one completed map→unmap
    cycle: access counts, the fraction of bytes the device wrote, and
    the host image at release (compared at the next map to detect host
    mutation). *)
val observe :
  t -> key:int * int -> loads:int -> stores:int -> dev_dirty:float -> digest:Digest.t option -> unit

(** Per-buffer tally of chosen modes, sorted by buffer offset:
    ((off, bytes), [(mode_name, count); ...]), zero counts omitted. *)
val decisions : t -> ((int * int) * (string * int) list) list

(** Distinct modes this policy has chosen across all buffers. *)
val modes_used : t -> mode list
