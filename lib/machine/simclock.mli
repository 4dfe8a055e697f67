(** Simulated wall clock.  All components of the virtual platform
    advance it with modelled durations; benchmark harnesses read it to
    report "execution time" the way the paper reports seconds. *)

(** Executed instructions by cost-model class, counted in place by the
    executors' steps. *)
type tally = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

val tally : unit -> tally

val tally_total : tally -> int

type t

(** [step_ns] (default 0) is the simulated cost of one host step. *)
val create : ?step_ns:float -> unit -> t

(** The tally host code counts its steps into.  Every read or advance
    first adds [step_ns] once per step counted since the last one, as
    separate additions. *)
val host_steps : t -> tally

val now_ns : t -> float

val now_s : t -> float

(** Raises [Invalid_argument] on negative durations. *)
val advance_ns : t -> float -> unit

val advance_us : t -> float -> unit

val advance_ms : t -> float -> unit

(** Wait until [ns]: the clock lands on exactly [ns] when that lies
    ahead, and stays put otherwise. *)
val advance_to : t -> float -> unit

(** Back to 0; steps counted before are never charged. *)
val reset : t -> unit

(** [time t f] runs [f] and returns its result together with the
    simulated seconds it accounted for. *)
val time : t -> (unit -> 'a) -> 'a * float
