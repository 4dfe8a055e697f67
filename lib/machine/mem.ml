(* A byte-addressed memory region backing one address space.  Device
   global memory uses [alloc]/[free] (first-fit free list, mirroring
   cuMemAlloc/cuMemFree); shared memory and thread-local stacks use the
   [push]/[mark]/[release] stack discipline at [brk].  A region that
   serves both (host memory) keeps its stack in segments carved with
   [alloc] instead ([carve_stack]), so a frame never moves [brk]. *)

(* The segmented stack: [sp] bumps within the head of [segs], each
   segment a live [alloc] block. *)
type stack = {
  mutable sp : int;
  mutable segs : (int * int) list; (* (offset, length), innermost first; never empty *)
}

type t = {
  name : string;
  base : Addr.t; (* offset 0 of the region's space *)
  mutable data : Bytes.t;
  mutable brk : int; (* high-water mark of the bump/stack region *)
  mutable free_list : (int * int) list; (* (offset, length), sorted by offset *)
  sizes : (int, int) Hashtbl.t; (* allocation sizes for [free] *)
  mutable limit : int; (* capacity cap; grows lazily up to this *)
  mutable stack : stack option; (* [None]: the stack bumps [brk] *)
}

exception Out_of_memory of string
exception Bad_access of string

let create ?(initial = 4096) ?(limit = 1 lsl 31) ~space name =
  (* Offset 0 is reserved so that a zero offset can act as NULL. *)
  {
    name;
    base = Addr.make space 0;
    data = Bytes.make initial '\000';
    brk = 16;
    free_list = [];
    sizes = Hashtbl.create 64;
    limit;
    stack = None;
  }

let capacity t = Bytes.length t.data

(* Back to what [create ~initial] gives, reusing the storage when its
   capacity is already [initial]: a region reused across launches must
   not show a byte, a growth or an allocation of its previous use. *)
let reset t ~initial =
  if Bytes.length t.data = initial then Bytes.fill t.data 0 initial '\000'
  else t.data <- Bytes.make initial '\000';
  t.brk <- 16;
  t.free_list <- [];
  Hashtbl.reset t.sizes;
  t.stack <- None

(* Grow the storage to hold [upto] bytes and report whether it grew.
   Capacity becomes [min limit (max upto (2 * capacity))]: doubling keeps
   a run of small growths amortised, while one large request is not
   rounded up past what it asked for.  The new storage is written once:
   the live prefix [0, brk) is copied and the rest zeroed, so bytes at
   or above [brk] are fresh zeros after a growth. *)
let ensure t upto =
  if upto > t.limit then
    raise (Out_of_memory (Printf.sprintf "%s: request for %d bytes exceeds limit %d" t.name upto t.limit));
  let old_cap = Bytes.length t.data in
  if upto <= old_cap then false
  else begin
    let cap = min t.limit (max upto (2 * old_cap)) in
    let data = Bytes.create cap in
    Bytes.blit t.data 0 data 0 t.brk;
    Bytes.fill data t.brk (cap - t.brk) '\000';
    t.data <- data;
    true
  end

let align_up off align = (off + align - 1) / align * align

(* First-fit allocation with an 8-byte minimum alignment. *)
let alloc t size =
  let size = max 1 (align_up size 8) in
  let rec take acc = function
    | [] -> None
    | (off, len) :: rest when len >= size ->
      let remainder = if len > size then [ (off + size, len - size) ] else [] in
      Some (off, List.rev_append acc (remainder @ rest))
    | hole :: rest -> take (hole :: acc) rest
  in
  (* cuMemAlloc zero semantics: a reused hole or a bump over old storage
     may hold stale bytes and is cleared; a bump that just grew the
     storage already lies in fresh zeros. *)
  let off, fresh =
    match take [] t.free_list with
    | Some (off, free_list) ->
      t.free_list <- free_list;
      (off, false)
    | None ->
      let off = align_up t.brk 8 in
      let grew = ensure t (off + size) in
      t.brk <- off + size;
      (off, grew)
  in
  Hashtbl.replace t.sizes off size;
  if not fresh then Bytes.fill t.data off size '\000';
  Addr.add t.base off

let free_block t a_off =
  match Hashtbl.find_opt t.sizes a_off with
  | None -> raise (Bad_access (Printf.sprintf "%s: free of unallocated offset %d" t.name a_off))
  | Some size ->
    Hashtbl.remove t.sizes a_off;
    (* Insert sorted and coalesce with neighbours. *)
    let rec insert = function
      | [] -> [ (a_off, size) ]
      | (o, l) :: rest when a_off + size = o -> (a_off, size + l) :: rest
      | (o, l) :: rest when o + l = a_off -> insert_merge o l rest
      | (o, l) :: rest when o > a_off -> (a_off, size) :: (o, l) :: rest
      | hole :: rest -> hole :: insert rest
    and insert_merge o l = function
      | (o2, l2) :: rest when o + l + size = o2 -> (o, l + size + l2) :: rest
      | rest -> (o, l + size) :: rest
    in
    t.free_list <- insert t.free_list

let in_stack t off =
  match t.stack with
  | None -> false
  | Some s ->
    List.exists (fun (o, l) -> o <= off && off < o + l) s.segs

let free t (a : Addr.t) =
  if not (Addr.same_space a t.base) then raise (Bad_access (t.name ^ ": free of foreign address"));
  let a_off = Addr.off a in
  (* a stack segment is an [alloc] block too, but not the program's *)
  if in_stack t a_off then
    raise (Bad_access (Printf.sprintf "%s: free of stack offset %d" t.name a_off));
  free_block t a_off

let allocated_bytes t = Hashtbl.fold (fun _ s acc -> acc + s) t.sizes 0

(* Stack discipline.  Shared-memory and lane stacks bump [brk]; a
   segmented stack bumps [sp], and a push that does not fit the current
   segment opens a new segment of [max segment_bytes size]. *)
let segment_bytes = 64 * 1024

let carve_stack t =
  let o = Addr.off (alloc t segment_bytes) in
  t.stack <- Some { sp = o; segs = [ (o, segment_bytes) ] }

let push_segment t s size =
  (match s.segs with
  | (o, l) :: _ when s.sp + size <= o + l -> ()
  | _ ->
    let len = max segment_bytes size in
    let o = Addr.off (alloc t len) in
    s.segs <- (o, len) :: s.segs;
    s.sp <- o);
  let off = s.sp in
  s.sp <- off + size;
  Bytes.fill t.data off size '\000';
  Addr.add t.base off

let push t size =
  let size = max 1 (align_up size 8) in
  match t.stack with
  | Some s -> push_segment t s size
  | None ->
    let off = align_up t.brk 8 in
    ignore (ensure t (off + size));
    t.brk <- off + size;
    Bytes.fill t.data off size '\000';
    Addr.add t.base off

let mark t = match t.stack with None -> t.brk | Some s -> s.sp

(* Back to the segment that holds [mark], freeing the segments above
   it. *)
let rec pop_segments t s mark =
  match s.segs with
  | (o, l) :: (_ :: _ as rest) when mark < o || mark > o + l ->
    free_block t o;
    s.segs <- rest;
    pop_segments t s mark
  | _ -> ()

let release t mark =
  match t.stack with
  | None -> t.brk <- mark
  | Some s ->
    pop_segments t s mark;
    s.sp <- mark

let check t off len =
  if off < 0 || off + len > Bytes.length t.data then
    raise (Bad_access (Printf.sprintf "%s: access [%d,%d) outside capacity %d" t.name off len (Bytes.length t.data)))

(* Raw accessors -------------------------------------------------------- *)

(* [Addr.off], inline: an access decodes its address here, once. *)
let[@inline] off_of (a : Addr.t) = (a :> int) asr Addr.code_bits

(* Unchecked byte-order-native word access (the callers [check] first),
   so no accessor boxes an int32 or int64 on its way through. *)
external bytes_get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external bytes_get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external bytes_set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

external bswap32 : int32 -> int32 = "%bswap_int32"

external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline] get32le d off =
  let w = bytes_get32u d off in
  if Sys.big_endian then bswap32 w else w

let[@inline] get64le d off =
  let w = bytes_get64u d off in
  if Sys.big_endian then bswap64 w else w

let[@inline] set32le d off w = bytes_set32u d off (if Sys.big_endian then bswap32 w else w)

let[@inline] set64le d off w = bytes_set64u d off (if Sys.big_endian then bswap64 w else w)

(* Typed scalar accessors: the payloads [load_scalar] and [store_scalar]
   wrap in and unwrap from a [Value.t].  [load_narrow] and
   [store_narrow] take an integer type of at most 32 bits and a payload
   normalised to it ([Value.normalise_narrow]).  A float travels as its
   bits (binary32 in an [Uint] word, binary64 in an int64): a float
   returned across a module boundary is boxed, an int is not. *)

let load_narrow t (a : Addr.t) (ty : Cty.t) : int =
  let off = off_of a in
  let d = t.data in
  match ty with
  | Cty.Char | Cty.Uchar ->
    check t off 1;
    Value.normalise_narrow ty (Char.code (Bytes.unsafe_get d off))
  | Cty.Short | Cty.Ushort ->
    check t off 2;
    Value.normalise_narrow ty
      (Char.code (Bytes.unsafe_get d off) lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8))
  | _ ->
    check t off 4;
    (* native assembly: no Int32/Int64 boxing on the executor's hottest
       load *)
    Value.normalise_narrow ty
      (Char.code (Bytes.unsafe_get d off)
      lor (Char.code (Bytes.unsafe_get d (off + 1)) lsl 8)
      lor (Char.code (Bytes.unsafe_get d (off + 2)) lsl 16)
      lor (Char.code (Bytes.unsafe_get d (off + 3)) lsl 24))

let load_int64 t (a : Addr.t) : int64 =
  let off = off_of a in
  check t off 8;
  get64le t.data off

(* The address held by a pointer-typed word, without the [VPtr] that
   [load_scalar] would build around it. *)
let load_addr t (a : Addr.t) : Addr.t =
  let off = off_of a in
  check t off 8;
  Addr.of_int64 (get64le t.data off)

let store_narrow t (a : Addr.t) (ty : Cty.t) (i : int) : unit =
  let off = off_of a in
  let d = t.data in
  match ty with
  | Cty.Char | Cty.Uchar ->
    check t off 1;
    Bytes.unsafe_set d off (Char.unsafe_chr (i land 0xFF))
  | Cty.Short | Cty.Ushort ->
    check t off 2;
    Bytes.unsafe_set d off (Char.unsafe_chr (i land 0xFF));
    Bytes.unsafe_set d (off + 1) (Char.unsafe_chr ((i lsr 8) land 0xFF))
  | _ ->
    check t off 4;
    Bytes.unsafe_set d off (Char.unsafe_chr (i land 0xFF));
    Bytes.unsafe_set d (off + 1) (Char.unsafe_chr ((i lsr 8) land 0xFF));
    Bytes.unsafe_set d (off + 2) (Char.unsafe_chr ((i lsr 16) land 0xFF));
    Bytes.unsafe_set d (off + 3) (Char.unsafe_chr ((i lsr 24) land 0xFF))

let store_int64 t (a : Addr.t) (i : int64) : unit =
  let off = off_of a in
  check t off 8;
  set64le t.data off i

let store_addr t (a : Addr.t) (p : Addr.t) : unit =
  let off = off_of a in
  check t off 8;
  set64le t.data off (Addr.to_int64 p)

let load_scalar t (env : Cty.layout_env) (a : Addr.t) (ty : Cty.t) : Value.t =
  match ty with
  | Cty.Char | Cty.Uchar | Cty.Short | Cty.Ushort | Cty.Int | Cty.Uint ->
    Value.of_narrow ty (load_narrow t a ty)
  | Cty.Long | Cty.Ulong -> Value.VInt (load_int64 t a, ty)
  | Cty.Float ->
    (* a binary32 read back needs no rounding *)
    let off = off_of a in
    check t off 4;
    Value.VFlt (Int32.float_of_bits (get32le t.data off), ty)
  | Cty.Double -> Value.VFlt (Int64.float_of_bits (load_int64 t a), ty)
  | Cty.Ptr p -> Value.ptr ~ty:p (load_addr t a)
  | Cty.Array (elt, _) -> Value.ptr ~ty:elt a (* array lvalue decays to pointer *)
  | (Cty.Void | Cty.Struct _ | Cty.Func _) as ty ->
    ignore env;
    raise (Bad_access ("load of non-scalar type " ^ Cty.show ty))

let store_scalar t (_env : Cty.layout_env) (a : Addr.t) (ty : Cty.t) (v : Value.t) =
  match ty with
  | Cty.Char | Cty.Uchar | Cty.Short | Cty.Ushort | Cty.Int | Cty.Uint ->
    store_narrow t a ty (Int64.to_int (Value.as_int v))
  | Cty.Long | Cty.Ulong -> store_int64 t a (Value.as_int v)
  | Cty.Float ->
    let off = off_of a in
    check t off 4;
    set32le t.data off (Int32.bits_of_float (Value.as_float v))
  | Cty.Double -> store_int64 t a (Int64.bits_of_float (Value.as_float v))
  | Cty.Ptr _ -> store_addr t a (Value.as_addr v)
  | (Cty.Void | Cty.Array _ | Cty.Struct _ | Cty.Func _) as ty ->
    raise (Bad_access ("store of non-scalar type " ^ Cty.show ty))

let blit_out t ~src_off ~len : Bytes.t =
  check t src_off len;
  Bytes.sub t.data src_off len

let blit_in t ~dst_off (b : Bytes.t) =
  let len = Bytes.length b in
  ignore (ensure t (dst_off + len));
  if dst_off + len > t.brk then t.brk <- dst_off + len;
  Bytes.blit b 0 t.data dst_off len

let copy ~src ~src_off ~dst ~dst_off ~len =
  check src src_off len;
  ignore (ensure dst (dst_off + len));
  if dst_off + len > dst.brk then dst.brk <- dst_off + len;
  Bytes.blit src.data src_off dst.data dst_off len
