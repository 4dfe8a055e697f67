(** Tagged addresses: every pointer in the simulated system knows which
    memory space it lives in, so the SIMT engine can enforce the
    platform's visibility rules (e.g. device code never dereferences
    host memory). *)

type space =
  | Host  (** the host program's memory *)
  | Global  (** device global memory (cuMemAlloc arena) *)
  | Shared of int  (** per-block shared memory; the id is the block *)
  | Local of int  (** per-thread local stack; the id is the thread *)
  | Strings  (** interpreter-private arena for interned string literals *)

val pp_space : Format.formatter -> space -> unit

val show_space : space -> string

val equal_space : space -> space -> bool

val compare_space : space -> space -> int

(** An address: one immediate int, so building, moving or storing one
    allocates nothing and an array of addresses holds no pointer.

    Layout: [(a :> int) asr code_bits] is the signed offset and
    [(a :> int) land code_mask] the space code, a 3-bit tag (Host 0,
    Global 1, Shared 2, Local 3, Strings 4) above a 24-bit id (the block
    or thread of [Shared]/[Local], 0 otherwise).  Codes are ordered as
    {!compare} orders spaces, and [code_of_space (Local i)] is
    [code_of_space (Local 0) + i] (the same for [Shared]).

    Ranges: ids [0, 2{^24}-1]; offsets [-2{^35}, 2{^35}-1].  {!make} and
    {!add} raise {!Addr_error} outside them, so an address never wraps
    onto another one.

    The layout is part of this interface because a build without
    cross-module inlining (dune's dev profile compiles with [-opaque])
    pays a function call for every {!off}: the access paths ([Mem]'s
    accessors, the resolvers, the access hooks) decode an address
    inline, once per access, with [code_bits] and [code_mask]. *)
type t = private int

exception Addr_error of string

val code_bits : int

val code_mask : int

(** Raises {!Addr_error} on an id outside the range. *)
val code_of_space : space -> int

val make : space -> int -> t

val off : t -> int

(** The space as a variant, for slow paths and printing. *)
val space : t -> space

val same_space : t -> t -> bool

(** [{ space = …; off = … }] (Dataenv's map errors embed this text). *)
val pp : Format.formatter -> t -> unit

val show : t -> string

val equal : t -> t -> bool

(** By space ([Host < Global < Shared _ < Local _ < Strings], ids in
    order), then by offset. *)
val compare : t -> t -> int

(** Offset 0 in [Host]. *)
val null : t

(** Offset 0 in any space. *)
val is_null : t -> bool

(** Pointer arithmetic: move the offset by a byte count. *)
val add : t -> int -> t

(** Byte distance between two addresses of the same space; raises
    [Invalid_argument] across spaces. *)
val diff : t -> t -> int

(** {1 Integer encoding}

    Addresses round-trip through [int64] so that interpreted C code can
    cast pointers to integers and back (8-bit space tag, 24-bit space
    id, the offset's low 32 bits).  [of_int64] raises [Invalid_argument]
    on a tag above 4. *)

val to_int64 : t -> int64

val of_int64 : int64 -> t
