(* Addresses are tagged with the memory space they live in; pointer
   arithmetic only moves the offset.  Space identifiers for [Shared] and
   [Local] are assigned by the simulator (block index / linear thread id).

   An address is one immediate int, so building, moving or storing one
   allocates nothing:

     bit  62 ........ 27 | 26 .. 24 | 23 ........ 0
          offset (signed) |   tag    |      id

   The low 27 bits are the space code: the tag (Host 0, Global 1,
   Shared 2, Local 3, Strings 4) and the id (0 for the spaceless tags).
   [a asr 27] is the offset, so moving an address is an add on the high
   bits and a negative offset never reaches the code. *)

type space =
  | Host
  | Global
  | Shared of int
  | Local of int
  | Strings (* interpreter-private arena for interned string literals *)
[@@deriving show { with_path = false }, eq, ord]

type t = int

exception Addr_error of string

let code_bits = 27

let code_mask = (1 lsl code_bits) - 1

let max_id = (1 lsl 24) - 1

let max_off = max_int asr code_bits

let min_off = min_int asr code_bits

let addr_error fmt = Printf.ksprintf (fun s -> raise (Addr_error s)) fmt

let check_id i =
  if i < 0 || i > max_id then addr_error "space id %d outside [0, %d]" i max_id else i

let code_of_space = function
  | Host -> 0
  | Global -> 1 lsl 24
  | Shared i -> (2 lsl 24) lor check_id i
  | Local i -> (3 lsl 24) lor check_id i
  | Strings -> 4 lsl 24

let[@inline] at code off =
  if off > max_off || off < min_off then
    addr_error "offset %d outside [%d, %d]" off min_off max_off;
  (off lsl code_bits) lor code

let make space off = at (code_of_space space) off

let off a = a asr code_bits

let code a = a land code_mask

let space a =
  let c = code a in
  match c lsr 24 with
  | 0 -> Host
  | 1 -> Global
  | 2 -> Shared (c land max_id)
  | 3 -> Local (c land max_id)
  | _ -> Strings

let same_space a b = code a = code b

let pp fmt a =
  Format.fprintf fmt "@[<2>{ @[space =@ %a@];@ @[off =@ %d@]@ }@]" pp_space (space a) (off a)

let show a = Format.asprintf "%a" pp a

let equal (a : t) b = a = b

(* Space (tag, then id), then offset: the order C's pointer [<] sees in
   both executors.  Equal codes compare by offset alone. *)
let compare (a : t) b =
  let ca = code a and cb = code b in
  if ca = cb then Int.compare (off a) (off b) else Int.compare ca cb

let null = 0

let is_null a = off a = 0

let add a bytes = at (code a) (off a + bytes)

let diff a b =
  if code a <> code b then invalid_arg "Addr.diff: different spaces";
  off a - off b

(* Encode an address as a 64-bit integer so that pointers can transit
   through integer casts inside interpreted C code.  Layout: 8-bit space
   tag, 24-bit space id, 32-bit offset (its low 32 bits).  The tag is at
   most 4, so the word is built in a native int. *)
let to_int64 a =
  let c = code a in
  Int64.of_int (((c lsr 24) lsl 56) lor ((c land max_id) lsl 32) lor (off a land 0xFFFFFFFF))

let of_int64 i =
  let tag = Int64.(to_int (shift_right_logical i 56)) land 0xFF in
  let id = Int64.(to_int (shift_right_logical i 32)) land max_id in
  let off = Int64.(to_int (logand i 0xFFFFFFFFL)) in
  match tag with
  | 0 | 1 | 4 -> (off lsl code_bits) lor (tag lsl 24)
  | 2 | 3 -> (off lsl code_bits) lor (tag lsl 24) lor id
  | n -> invalid_arg (Printf.sprintf "Addr.of_int64: bad space tag %d" n)
