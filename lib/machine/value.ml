(* Runtime values of the interpreted C subset.  Integer values are kept in
   an Int64 normalised to the width/signedness of their C type; floats of
   C type [float] are rounded to binary32 on creation so that arithmetic
   matches what the Jetson's FP32 units produce. *)

type t =
  | VInt of int64 * Cty.t
  | VFlt of float * Cty.t
  | VPtr of Addr.t * Cty.t (* pointee type *)
  | VVoid
[@@deriving show { with_path = false }, eq]

exception Value_error of string

let value_error fmt = Format.kasprintf (fun s -> raise (Value_error s)) fmt

let round32 f = Int32.float_of_bits (Int32.bits_of_float f)

(* Truncate an integer to the representation of an integer type of at
   most 32 bits, on the native int: the low bits of [i] survive
   whatever [Int64.to_int] dropped. *)
let normalise_narrow ty (i : int) : int =
  match ty with
  | Cty.Char ->
    let v = i land 0xFF in
    if v > 0x7F then v - 0x100 else v
  | Cty.Uchar -> i land 0xFF
  | Cty.Short ->
    let v = i land 0xFFFF in
    if v > 0x7FFF then v - 0x10000 else v
  | Cty.Ushort -> i land 0xFFFF
  | Cty.Int ->
    let v = i land 0xFFFFFFFF in
    if v > 0x7FFFFFFF then v - 0x100000000 else v
  | Cty.Uint -> i land 0xFFFFFFFF
  | ty -> value_error "normalise_int: not an integer type %s" (Cty.show ty)

(* C's conversion rules between scalar payloads, stated once: [cast],
   the accessors below and the closure JIT's typed code are built from
   these. *)

(* Integer (of type [ty]) to floating: an unsigned payload is the low
   64 bits reinterpreted as non-negative. *)
let float_of_int64 ty (i : int64) : float =
  if Cty.is_unsigned ty && Int64.compare i 0L < 0 then Int64.to_float i +. 18446744073709551616.0
  else Int64.to_float i

(* Floating to integer: truncation toward zero. *)
let int64_of_float (f : float) : int64 = Int64.of_float f

(* A floating payload as one of type [ty]: [float] rounds to binary32. *)
let round_to ty (f : float) : float = match ty with Cty.Float -> round32 f | _ -> f

(* Any integer payload to an integer type of at most 32 bits. *)
let narrow_of_int64 ty (i : int64) : int = normalise_narrow ty (Int64.to_int i)

(* Truncate an int64 to the representation of the given integer type. *)
let normalise_int ty (i : int64) =
  match ty with
  | Cty.Long | Cty.Ulong -> i
  | _ -> Int64.of_int (narrow_of_int64 ty i)

(* Values are immutable, so the common small ints (loop counters, thread
   ids, array indices, booleans) are shared instead of re-boxed on every
   creation; the interpreter allocates one per evaluated expression
   otherwise, and the executors live on [int]-typed index arithmetic. *)
let small_int_limit = 65536

let small_ints = Array.init small_int_limit (fun i -> VInt (Int64.of_int i, Cty.Int))

(* The value of an already normalised payload of a type of at most 32
   bits: cached for small [int]s, so building it allocates nothing. *)
let of_narrow ty (v : int) =
  match ty with
  | Cty.Int when v >= 0 && v < small_int_limit -> Array.unsafe_get small_ints v
  | _ -> VInt (Int64.of_int v, ty)

(* Allocation-free for cached [int]-typed values: widths up to 32 bits
   normalise on the native int, so no intermediate Int64 is boxed. *)
let int ?(ty = Cty.Int) i =
  match ty with
  | Cty.Long | Cty.Ulong -> VInt (i, ty)
  | _ -> of_narrow ty (narrow_of_int64 ty i)

let of_int ?(ty = Cty.Int) i =
  match ty with
  | Cty.Long | Cty.Ulong -> VInt (Int64.of_int i, ty)
  | _ -> of_narrow ty (normalise_narrow ty i)

let flt ?(ty = Cty.Double) f =
  match ty with
  | Cty.Float | Cty.Double -> VFlt (round_to ty f, ty)
  | ty -> value_error "flt: not a float type %s" (Cty.show ty)

let ptr ?(ty = Cty.Void) a = VPtr (a, ty)

let ty_of = function
  | VInt (_, ty) -> ty
  | VFlt (_, ty) -> ty
  | VPtr (_, ty) -> Cty.Ptr ty
  | VVoid -> Cty.Void

let as_int = function
  | VInt (i, _) -> i
  | VFlt (f, _) -> int64_of_float f
  | VPtr (a, _) -> Addr.to_int64 a
  | VVoid -> value_error "as_int: void value"

let to_int v = Int64.to_int (as_int v)

let as_float = function
  | VInt (i, ty) -> float_of_int64 ty i
  | VFlt (f, _) -> f
  | VPtr _ | VVoid -> value_error "as_float: not a number"

let as_addr = function
  | VPtr (a, _) -> a
  | VInt (i, _) -> Addr.of_int64 i
  | v -> value_error "as_addr: not a pointer: %s" (show v)

let is_true = function
  | VInt (i, _) -> i <> 0L
  | VFlt (f, _) -> f <> 0.0
  | VPtr (a, _) -> not (Addr.is_null a)
  | VVoid -> value_error "is_true: void value"

let v_false = small_ints.(0)

let v_true = small_ints.(1)

let bool b = if b then v_true else v_false

(* Convert [v] to type [ty] following C conversion rules.  A value that
   already carries the target scalar type is normalised by construction,
   so it is returned as-is (values are immutable). *)
let cast ty v =
  match (ty, v) with
  | Cty.Int, VInt (_, Cty.Int)
  | Cty.Uint, VInt (_, Cty.Uint)
  | Cty.Long, VInt (_, Cty.Long)
  | Cty.Ulong, VInt (_, Cty.Ulong)
  | Cty.Char, VInt (_, Cty.Char)
  | Cty.Uchar, VInt (_, Cty.Uchar)
  | Cty.Short, VInt (_, Cty.Short)
  | Cty.Ushort, VInt (_, Cty.Ushort)
  | Cty.Float, VFlt (_, Cty.Float)
  | Cty.Double, VFlt (_, Cty.Double) -> v
  | Cty.Void, _ -> VVoid
  | (Cty.Float | Cty.Double), _ -> flt ~ty (as_float v)
  | ty, _ when Cty.is_integer ty -> int ~ty (as_int v)
  | Cty.Ptr p, VPtr (a, _) -> VPtr (a, p)
  | Cty.Ptr p, VInt (i, _) -> VPtr (Addr.of_int64 i, p)
  | ty, v -> value_error "cast: cannot cast %s to %s" (show v) (Cty.show ty)

(* The payload of [cast ty v], without building the cast value, for the
   closure JIT's typed code.  Each raises exactly what [cast ty v]
   raises. *)

(* [ty] an integer type of at most 32 bits *)
let to_narrow ty v = narrow_of_int64 ty (as_int v)

(* [ty] [float] or [double] *)
let to_float ty v =
  match (ty, v) with
  | Cty.Float, VFlt (f, Cty.Float) | Cty.Double, VFlt (f, Cty.Double) -> f
  | _ -> round_to ty (as_float v)

(* [ty] a pointer type *)
let to_addr ty v =
  match v with
  | VPtr (a, _) -> a
  | VInt (i, _) -> Addr.of_int64 i
  | _ -> ( match cast ty v with VPtr (a, _) -> a | _ -> assert false)
