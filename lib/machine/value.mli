(** Runtime values of the interpreted C subset.  Integers are normalised
    to the width and signedness of their C type; [float]-typed values
    are rounded to binary32 on creation, matching the FP32 units of the
    simulated GPU. *)

type t =
  | VInt of int64 * Cty.t
  | VFlt of float * Cty.t
  | VPtr of Addr.t * Cty.t  (** address and pointee type *)
  | VVoid

val pp : Format.formatter -> t -> unit

val show : t -> string

val equal : t -> t -> bool

exception Value_error of string

(** Round to binary32 (the C [float] type). *)
val round32 : float -> float

(** Truncate/sign-extend an [int64] to the representation of the given
    integer type. *)
val normalise_int : Cty.t -> int64 -> int64

(** [normalise_int] for an integer type of at most 32 bits, on the
    native int (the low bits of the argument are what count). *)
val normalise_narrow : Cty.t -> int -> int

(** {1 Scalar conversions}

    C's conversion rules on payloads, the one statement of them:
    [cast], the accessors and the closure JIT's typed code use these. *)

(** Integer of type [ty] to floating: an unsigned payload's 64 bits
    read as non-negative. *)
val float_of_int64 : Cty.t -> int64 -> float

(** Floating to integer, truncating toward zero. *)
val int64_of_float : float -> int64

(** A floating payload as one of type [ty] ([float] or [double]):
    [float] rounds to binary32. *)
val round_to : Cty.t -> float -> float

(** Any integer payload to an integer type of at most 32 bits. *)
val narrow_of_int64 : Cty.t -> int64 -> int

(** {1 Constructors} *)

(** The value of an already normalised payload of an integer type of at
    most 32 bits; small [int]s are shared, not allocated. *)
val of_narrow : Cty.t -> int -> t

val int : ?ty:Cty.t -> int64 -> t

val of_int : ?ty:Cty.t -> int -> t

val flt : ?ty:Cty.t -> float -> t

val ptr : ?ty:Cty.t -> Addr.t -> t

val bool : bool -> t

(** {1 Accessors and conversions} *)

val ty_of : t -> Cty.t

val as_int : t -> int64

val to_int : t -> int

val as_float : t -> float

val as_addr : t -> Addr.t

val is_true : t -> bool

(** C conversion rules ([(ty) v]). *)
val cast : Cty.t -> t -> t

(** {1 Cast payloads}

    The payload of [cast ty v] without building the cast value (for
    the closure JIT's typed code); each raises what [cast ty v]
    raises. *)

(** [ty] an integer type of at most 32 bits. *)
val to_narrow : Cty.t -> t -> int

(** [ty] [float] (rounded to binary32) or [double]. *)
val to_float : Cty.t -> t -> float

(** [ty] a pointer type. *)
val to_addr : Cty.t -> t -> Addr.t
