(** A byte-addressed memory region backing one address space.

    Device global memory uses {!alloc}/{!free} (first-fit free list with
    coalescing, mirroring cuMemAlloc/cuMemFree); shared memory and
    thread-local stacks use the {!push}/{!mark}/{!release} stack
    discipline, bumping [brk].  Host memory serves both: {!carve_stack}
    (called by [Hostrt.Rt.create] before any user allocation) moves its
    stack into segments that are themselves {!alloc} blocks, the first
    carved from the initial storage, so a host call never moves [brk]
    and grows the storage only when a frame needs a new segment.
    Offset 0 is reserved so a zero offset can act as NULL. *)

(** A segmented stack's pointer and segments. *)
type stack

type t = {
  name : string;
  base : Addr.t;  (** offset 0 of the region's space *)
  mutable data : Bytes.t;  (** raw storage; grows lazily up to [limit] *)
  mutable brk : int;
  mutable free_list : (int * int) list;
  sizes : (int, int) Hashtbl.t;
  mutable limit : int;
  mutable stack : stack option;  (** [None]: the stack bumps [brk] *)
}

exception Out_of_memory of string

exception Bad_access of string

val create : ?initial:int -> ?limit:int -> space:Addr.space -> string -> t

(** Current size of the storage.  It grows on demand to
    [min limit (max needed (2 * capacity))]; bytes at or above [brk] are
    zero right after a growth, and bytes below it are preserved. *)
val capacity : t -> int

(** Restore the state [create ~initial] gives (the name, space and limit
    are kept): capacity [initial], every byte zero, [mark] 16, no free
    hole, no allocation and a stack at [brk].  Storage of the right size
    is zeroed in place rather than reallocated. *)
val reset : t -> initial:int -> unit

(** {1 Heap discipline} *)

(** First-fit allocation, 8-byte aligned, zero-filled. *)
val alloc : t -> int -> Addr.t

(** Raises {!Bad_access} on double free, foreign addresses and any
    address inside a stack segment; coalesces adjacent holes. *)
val free : t -> Addr.t -> unit

val allocated_bytes : t -> int

(** {1 Stack discipline}

    [push] returns zeroed, 8-byte aligned storage; [release] pops back
    to a [mark].  On a segmented stack a push that does not fit the
    current segment opens a new one of at least 64 KiB with {!alloc},
    and a release frees the segments above the mark's. *)

(** Move the stack off [brk] into segments: the first 64 KiB segment
    is allocated now.  Call it before the region's first push. *)
val carve_stack : t -> unit

val push : t -> int -> Addr.t

val mark : t -> int

val release : t -> int -> unit

(** {1 Scalar access}

    Bounds-checked little-endian loads/stores of C scalars.  Loading an
    array type yields the decayed pointer; struct access goes through
    field offsets at a higher layer. *)

val load_scalar : t -> Cty.layout_env -> Addr.t -> Cty.t -> Value.t

val store_scalar : t -> Cty.layout_env -> Addr.t -> Cty.t -> Value.t -> unit

(** {2 Typed payloads}

    [load_scalar]/[store_scalar] without the [Value.t]: the same bytes,
    bounds checks and errors, for the closure JIT's typed code.
    [load_narrow]/[store_narrow] take an integer type of at most 32
    bits, with the payload normalised to it ({!Value.normalise_narrow});
    the [int64] pair serves [long] and [unsigned long].  A float travels
    as its bits, a [float] in an [Uint] word and a [double] in an
    [int64] (a float returned across a module boundary is boxed, an
    [int] is not). *)

val load_narrow : t -> Addr.t -> Cty.t -> int

val load_int64 : t -> Addr.t -> int64

(** The address stored in a pointer-typed word: [load_scalar]'s [Ptr]
    case without building the pointer value. *)
val load_addr : t -> Addr.t -> Addr.t

val store_narrow : t -> Addr.t -> Cty.t -> int -> unit

val store_int64 : t -> Addr.t -> int64 -> unit

val store_addr : t -> Addr.t -> Addr.t -> unit

(** {1 Bulk transfer} *)

val blit_out : t -> src_off:int -> len:int -> Bytes.t

val blit_in : t -> dst_off:int -> Bytes.t -> unit

val copy : src:t -> src_off:int -> dst:t -> dst_off:int -> len:int -> unit
