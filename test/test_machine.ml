(* Unit and property tests for the machine substrate: C types and
   layouts, value semantics, memory regions, addresses, clock. *)

open Machine

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

(* ------------------------- Cty ------------------------- *)

let env () = Cty.create_layout_env ()

let test_scalar_sizes () =
  let e = env () in
  List.iter
    (fun (ty, size) -> check_int (Cty.show ty) size (Cty.sizeof e ty))
    [
      (Cty.Char, 1); (Cty.Uchar, 1); (Cty.Short, 2); (Cty.Ushort, 2); (Cty.Int, 4);
      (Cty.Uint, 4); (Cty.Long, 8); (Cty.Ulong, 8); (Cty.Float, 4); (Cty.Double, 8);
      (Cty.Ptr Cty.Float, 8); (Cty.Ptr (Cty.Ptr Cty.Int), 8);
    ]

let test_array_sizes () =
  let e = env () in
  check_int "float[10]" 40 (Cty.sizeof e (Cty.Array (Cty.Float, Some 10)));
  check_int "float[4][8]" 128 (Cty.sizeof e (Cty.Array (Cty.Array (Cty.Float, Some 8), Some 4)));
  Alcotest.check_raises "incomplete array" (Cty.Type_error "sizeof of incomplete array") (fun () ->
      ignore (Cty.sizeof e (Cty.Array (Cty.Int, None))))

let test_struct_layout () =
  let e = env () in
  let lay = Cty.define_struct e "s" [ ("c", Cty.Char); ("i", Cty.Int); ("d", Cty.Double); ("c2", Cty.Char) ] in
  check_int "size (padded)" 24 lay.Cty.lay_size;
  check_int "align" 8 lay.Cty.lay_align;
  check_int "offset c" 0 (Cty.find_field e "s" "c").Cty.fld_off;
  check_int "offset i" 4 (Cty.find_field e "s" "i").Cty.fld_off;
  check_int "offset d" 8 (Cty.find_field e "s" "d").Cty.fld_off;
  check_int "offset c2" 16 (Cty.find_field e "s" "c2").Cty.fld_off

let test_struct_nesting () =
  let e = env () in
  ignore (Cty.define_struct e "inner" [ ("x", Cty.Int); ("y", Cty.Int) ]);
  let lay = Cty.define_struct e "outer" [ ("c", Cty.Char); ("in", Cty.Struct "inner") ] in
  check_int "outer size" 12 lay.Cty.lay_size;
  check_int "inner at offset 4" 4 (Cty.find_field e "outer" "in").Cty.fld_off

let test_common_arith () =
  let t = Alcotest.testable (Fmt.of_to_string Cty.show) Cty.equal in
  Alcotest.check t "int+int" Cty.Int (Cty.common_arith Cty.Int Cty.Int);
  Alcotest.check t "char+short promotes" Cty.Int (Cty.common_arith Cty.Char Cty.Short);
  Alcotest.check t "int+float" Cty.Float (Cty.common_arith Cty.Int Cty.Float);
  Alcotest.check t "float+double" Cty.Double (Cty.common_arith Cty.Float Cty.Double);
  Alcotest.check t "int+uint" Cty.Uint (Cty.common_arith Cty.Int Cty.Uint);
  Alcotest.check t "long+int" Cty.Long (Cty.common_arith Cty.Long Cty.Int)

let test_c_syntax () =
  let s ?name ty = Cty.to_c_string ?name ty in
  Alcotest.(check string) "ptr" "float *x" (s ~name:"x" (Cty.Ptr Cty.Float));
  Alcotest.(check string) "array" "int a[10]" (s ~name:"a" (Cty.Array (Cty.Int, Some 10)));
  Alcotest.(check string) "ptr to array" "int (*x)[96]"
    (s ~name:"x" (Cty.Ptr (Cty.Array (Cty.Int, Some 96))));
  Alcotest.(check string) "array of ptr" "int *x[4]"
    (s ~name:"x" (Cty.Array (Cty.Ptr Cty.Int, Some 4)));
  Alcotest.(check string) "2d" "float m[2][3]"
    (s ~name:"m" (Cty.Array (Cty.Array (Cty.Float, Some 3), Some 2)))

let test_decay_pointee () =
  let t = Alcotest.testable (Fmt.of_to_string Cty.show) Cty.equal in
  Alcotest.check t "array decays" (Cty.Ptr Cty.Float) (Cty.decay (Cty.Array (Cty.Float, Some 4)));
  Alcotest.check t "scalar unchanged" Cty.Int (Cty.decay Cty.Int);
  Alcotest.check t "pointee of ptr" Cty.Float (Cty.pointee (Cty.Ptr Cty.Float));
  Alcotest.check t "pointee of array" Cty.Int (Cty.pointee (Cty.Array (Cty.Int, Some 3)))

(* ------------------------- Value ------------------------- *)

let test_normalise_int () =
  let v ty i = Value.as_int (Value.int ~ty i) in
  Alcotest.(check int64) "char wrap" (-128L) (v Cty.Char 128L);
  Alcotest.(check int64) "uchar wrap" 255L (v Cty.Uchar (-1L));
  Alcotest.(check int64) "short wrap" (-32768L) (v Cty.Short 32768L);
  Alcotest.(check int64) "int wrap" Int64.(of_int32 Int32.min_int) (v Cty.Int 0x80000000L);
  Alcotest.(check int64) "uint wrap" 0xFFFFFFFFL (v Cty.Uint (-1L));
  Alcotest.(check int64) "long identity" Int64.max_int (v Cty.Long Int64.max_int)

let test_float32_rounding () =
  let v = Value.flt ~ty:Cty.Float 0.1 in
  let f = Value.as_float v in
  check_bool "rounded to binary32" true (f <> 0.1);
  check_bool "close to 0.1" true (Float.abs (f -. 0.1) < 1e-7);
  let d = Value.flt ~ty:Cty.Double 0.1 in
  check_bool "double keeps precision" true (Value.as_float d = 0.1)

let test_casts () =
  Alcotest.(check int64) "float->int truncates" 3L (Value.as_int (Value.cast Cty.Int (Value.flt 3.9)));
  Alcotest.(check int64) "negative float->int" (-3L)
    (Value.as_int (Value.cast Cty.Int (Value.flt (-3.9))));
  check_bool "int->float" true (Value.as_float (Value.cast Cty.Double (Value.of_int 42)) = 42.0);
  check_bool "unsigned long->double reads the bits as non-negative" true
    (Value.as_float (Value.cast Cty.Double (Value.int ~ty:Cty.Ulong (-1L))) = 18446744073709551616.0);
  check_bool "long->double keeps the sign" true
    (Value.as_float (Value.cast Cty.Double (Value.int ~ty:Cty.Long (-1L))) = -1.0);
  Alcotest.(check int64) "int->char" 1L (Value.as_int (Value.cast Cty.Char (Value.int 257L)))

let test_truthiness () =
  check_bool "zero false" false (Value.is_true (Value.of_int 0));
  check_bool "nonzero true" true (Value.is_true (Value.of_int (-7)));
  check_bool "0.0 false" false (Value.is_true (Value.flt 0.0));
  check_bool "null false" false (Value.is_true (Value.ptr Addr.null))

let prop_normalise_idempotent =
  QCheck.Test.make ~name:"int normalisation is idempotent" ~count:500
    QCheck.(pair (oneofl [ Cty.Char; Cty.Uchar; Cty.Short; Cty.Ushort; Cty.Int; Cty.Uint; Cty.Long ]) int64)
    (fun (ty, i) ->
      let once = Value.normalise_int ty i in
      Value.normalise_int ty once = once)

let prop_addr_roundtrip =
  QCheck.Test.make ~name:"address int64 encoding roundtrips" ~count:500
    QCheck.(pair (int_bound 0xFFFFF) (int_bound 3))
    (fun (off, tag) ->
      let space =
        match tag with
        | 0 -> Addr.Host
        | 1 -> Addr.Global
        | 2 -> Addr.Shared (off land 0xFF)
        | _ -> Addr.Local (off land 0xFF)
      in
      let a = Addr.make space off in
      Addr.equal (Addr.of_int64 (Addr.to_int64 a)) a)

(* The packed [Addr.t] against the record it replaced, kept here as the
   reference: [{ space; off }] with the derived order (space, then
   offset), the 8/24/32-bit int64 image and the printed text. *)
type ref_addr = { r_space : Addr.space; r_off : int }

let ref_compare a b =
  match Addr.compare_space a.r_space b.r_space with 0 -> Int.compare a.r_off b.r_off | c -> c

let ref_to_int64 a =
  let tag, id =
    match a.r_space with
    | Addr.Host -> (0, 0)
    | Addr.Global -> (1, 0)
    | Addr.Shared i -> (2, i)
    | Addr.Local i -> (3, i)
    | Addr.Strings -> (4, 0)
  in
  Int64.(
    logor (shift_left (of_int tag) 56)
      (logor (shift_left (of_int (id land 0xFFFFFF)) 32) (logand (of_int a.r_off) 0xFFFFFFFFL)))

let ref_show a =
  let space =
    match a.r_space with
    | Addr.Host -> "Host"
    | Addr.Global -> "Global"
    | Addr.Shared i -> Printf.sprintf "(Shared %d)" i
    | Addr.Local i -> Printf.sprintf "(Local %d)" i
    | Addr.Strings -> "Strings"
  in
  Printf.sprintf "{ space = %s; off = %d }" space a.r_off

let max_id = (1 lsl 24) - 1

let max_off = (1 lsl 35) - 1

let gen_space =
  QCheck.Gen.(
    let id = oneof [ oneofl [ 0; 1; max_id ]; int_bound max_id ] in
    oneof
      [
        oneofl [ Addr.Host; Addr.Global; Addr.Strings ];
        map (fun i -> Addr.Shared i) id;
        map (fun i -> Addr.Local i) id;
      ])

(* Offsets small and large, negative ones included, edges of the range
   among them. *)
let gen_off =
  QCheck.Gen.(
    oneof
      [
        int_range (-64) 4096;
        int_range (-max_off - 1) max_off;
        oneofl [ 0; max_off; -max_off - 1; 0xFFFFFFFF; 1 lsl 32 ];
      ])

let gen_ref = QCheck.Gen.map2 (fun r_space r_off -> { r_space; r_off }) gen_space gen_off

let prop_addr_matches_record =
  QCheck.Test.make ~name:"packed address behaves as the { space; off } record" ~count:2000
    QCheck.(
      make
        ~print:Print.(triple ref_show ref_show int)
        Gen.(triple gen_ref gen_ref (int_range (-5000) 5000)))
    (fun (ra, rb, n) ->
      let a = Addr.make ra.r_space ra.r_off and b = Addr.make rb.r_space rb.r_off in
      let sign x = Int.compare x 0 in
      let same = Addr.equal_space ra.r_space rb.r_space in
      let check name ok = if not ok then QCheck.Test.fail_reportf "%s" name in
      check "off" (Addr.off a = ra.r_off);
      check "space" (Addr.equal_space (Addr.space a) ra.r_space);
      check "same_space" (Addr.same_space a b = same);
      check "equal" (Addr.equal a b = (same && ra.r_off = rb.r_off));
      check "compare sign" (sign (Addr.compare a b) = sign (ref_compare ra rb));
      check "is_null" (Addr.is_null a = (ra.r_off = 0));
      check "show" (String.equal (Addr.show a) (ref_show ra));
      check "to_int64" (Int64.equal (Addr.to_int64 a) (ref_to_int64 ra));
      (* the int64 image decodes to the record's: the space, and the
         offset's low 32 bits *)
      let back = Addr.of_int64 (ref_to_int64 ra) in
      check "of_int64 space" (Addr.equal_space (Addr.space back) ra.r_space);
      check "of_int64 off" (Addr.off back = ra.r_off land 0xFFFFFFFF);
      (match Addr.diff a b with
      | d -> check "diff" (same && d = ra.r_off - rb.r_off)
      | exception Invalid_argument _ -> check "diff raised within a space" (not same));
      (match Addr.add a n with
      | c ->
        check "add in range" (abs (ra.r_off + n) <= max_off + 1);
        check "add" (Addr.equal c (Addr.make ra.r_space (ra.r_off + n)))
      | exception Addr.Addr_error _ ->
        check "add raised in range" (ra.r_off + n > max_off || ra.r_off + n < -max_off - 1));
      true)

(* Outside the packed ranges an address is refused where it is built,
   never wrapped onto a valid one. *)
let test_addr_ranges () =
  let raises name f =
    check_bool name true (match f () with _ -> false | exception Addr.Addr_error _ -> true)
  in
  raises "id 2^24" (fun () -> Addr.make (Addr.Shared (max_id + 1)) 0);
  raises "negative id" (fun () -> Addr.make (Addr.Local (-1)) 0);
  raises "offset 2^35" (fun () -> Addr.make Addr.Global (max_off + 1));
  raises "offset below -2^35" (fun () -> Addr.make Addr.Global (-max_off - 2));
  raises "add past the top" (fun () -> Addr.add (Addr.make Addr.Host max_off) 1);
  raises "add past the bottom" (fun () -> Addr.add (Addr.make (Addr.Local 5) (-max_off - 1)) (-1));
  raises "add of max_int" (fun () -> Addr.add (Addr.make Addr.Global 8) max_int);
  check_int "edge offsets are valid" max_off (Addr.off (Addr.make (Addr.Shared max_id) max_off));
  check_bool "a negative offset keeps its space" true
    (Addr.equal_space (Addr.space (Addr.add (Addr.make (Addr.Local 7) 0) (-8))) (Addr.Local 7))

(* Building, moving and decoding addresses allocates nothing: 10 000
   calls each of [Addr.add], [Addr.of_int64] and [Mem.push] (at [brk]
   and within a stack segment) add no minor-heap word (measured against an empty probe). *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let add_loop a n =
  let a = ref a in
  for _ = 1 to n do
    a := Addr.add !a 8
  done;
  !a

let of_int64_loop w n =
  let a = ref Addr.null in
  for _ = 1 to n do
    a := Addr.of_int64 w
  done;
  !a

let push_loop m n =
  let a = ref Addr.null in
  for _ = 1 to n do
    let mark = Mem.mark m in
    a := Mem.push m 16;
    Mem.release m mark
  done;
  !a

let test_addr_no_alloc () =
  let n = 10_000 in
  let sink = ref Addr.null in
  let base = minor_words_of (fun () -> sink := Addr.null) in
  let a = Addr.make (Addr.Shared 3) 64 in
  let w = Addr.to_int64 a in
  let m = Mem.create ~space:(Addr.Local 2) "stack" in
  let words f = minor_words_of f -. base in
  check_bool "Addr.add" true (words (fun () -> sink := add_loop a n) = 0.0);
  check_bool "Addr.of_int64" true (words (fun () -> sink := of_int64_loop w n) = 0.0);
  let h = Mem.create ~space:Addr.Host "host" in
  Mem.carve_stack h;
  check_bool "Mem.push on a segmented stack" true (words (fun () -> sink := push_loop h n) = 0.0);
  check_bool "Mem.push" true (words (fun () -> sink := push_loop m n) = 0.0);
  check_bool "probe ran" true (Addr.equal !sink (Addr.make (Addr.Local 2) 16))

(* ------------------------- Mem ------------------------- *)

let test_mem_alloc_free () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 100 in
  let b = Mem.alloc m 50 in
  check_bool "distinct" true (Addr.off a <> Addr.off b);
  check_bool "no overlap" true (abs (Addr.off a - Addr.off b) >= 50);
  Mem.free m a;
  let c = Mem.alloc m 64 in
  check_int "freed space reused (first fit)" (Addr.off a) (Addr.off c)

let test_mem_free_coalescing () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 64 in
  let b = Mem.alloc m 64 in
  let _c = Mem.alloc m 64 in
  Mem.free m a;
  Mem.free m b;
  (* coalesced hole of 128 bytes should satisfy this *)
  let d = Mem.alloc m 128 in
  check_int "coalesced reuse" (Addr.off a) (Addr.off d)

let test_mem_double_free () =
  let m = Mem.create ~space:Addr.Global "test" in
  let a = Mem.alloc m 16 in
  Mem.free m a;
  check_bool "double free raises" true
    (match Mem.free m a with exception Mem.Bad_access _ -> true | () -> false)

let test_mem_limit () =
  let m = Mem.create ~initial:64 ~limit:1024 ~space:Addr.Global "test" in
  check_bool "over-limit alloc raises" true
    (match Mem.alloc m 4096 with exception Mem.Out_of_memory _ -> true | _ -> false)

let test_mem_scalar_roundtrip () =
  let m = Mem.create ~space:Addr.Host "test" in
  let e = env () in
  let a = Mem.alloc m 64 in
  Mem.store_scalar m e a Cty.Int (Value.of_int (-123456));
  Alcotest.(check int64) "int roundtrip" (-123456L) (Value.as_int (Mem.load_scalar m e a Cty.Int));
  Mem.store_scalar m e (Addr.add a 8) Cty.Float (Value.flt ~ty:Cty.Float 1.5);
  check_bool "float roundtrip" true
    (Value.as_float (Mem.load_scalar m e (Addr.add a 8) Cty.Float) = 1.5);
  Mem.store_scalar m e (Addr.add a 16) Cty.Double (Value.flt 2.25);
  check_bool "double roundtrip" true
    (Value.as_float (Mem.load_scalar m e (Addr.add a 16) Cty.Double) = 2.25);
  let p = Addr.make Addr.Global 4242 in
  Mem.store_scalar m e (Addr.add a 24) (Cty.Ptr Cty.Float) (Value.ptr p);
  check_bool "pointer roundtrip" true
    (Addr.equal p (Value.as_addr (Mem.load_scalar m e (Addr.add a 24) (Cty.Ptr Cty.Float))))

let test_mem_stack () =
  let m = Mem.create ~space:(Addr.Local 0) "stack" in
  let mark = Mem.mark m in
  let a = Mem.push m 32 in
  let b = Mem.push m 32 in
  check_bool "stack grows" true (Addr.off b > Addr.off a);
  Mem.release m mark;
  let c = Mem.push m 32 in
  check_int "released space reused" (Addr.off a) (Addr.off c)

(* A segmented stack never moves [brk]: a push past the segment opens a
   heap block and the release back frees it, a block allocated between
   mark and release survives the caller's next push, and no stack
   address can be freed. *)
let test_mem_segmented_stack () =
  let m = Mem.create ~initial:(1 lsl 20) ~space:Addr.Host "host" in
  Mem.carve_stack m;
  let brk = m.Mem.brk and seg = Mem.allocated_bytes m in
  let mark = Mem.mark m in
  let a = Mem.push m 32 in
  check_int "first frame at the carved segment" 16 (Addr.off a);
  check_int "a push leaves brk" brk m.Mem.brk;
  let heap = Mem.alloc m 8 in
  Mem.store_narrow m heap Cty.Int 42;
  Mem.release m mark;
  ignore (Mem.push m 32);
  check_int "a block allocated in a frame survives the next push" 42
    (Mem.load_narrow m heap Cty.Int);
  Mem.release m mark;
  let crossing () =
    let mark = Mem.mark m in
    ignore (Mem.push m 40_000);
    let b = Mem.push m 40_000 in
    check_int "the crossing took a 64 KiB segment" (seg + 8 + 65_536) (Mem.allocated_bytes m);
    Mem.release m mark;
    check_int "the release freed it" (seg + 8) (Mem.allocated_bytes m);
    b
  in
  let b = crossing () in
  check_int "the next crossing takes the same hole" (Addr.off b) (Addr.off (crossing ()));
  let cap = Mem.capacity m in
  let big = Mem.push m 100_000 in
  check_int "an oversized frame takes a segment of its size" (seg + 8 + 100_000)
    (Mem.allocated_bytes m);
  let rejects what addr =
    check_bool what true
      (match Mem.free m addr with exception Mem.Bad_access _ -> true | () -> false)
  in
  rejects "free of a frame raises" a;
  rejects "free inside a frame raises" (Addr.add a 8);
  rejects "free of an overflow segment raises" big;
  Mem.release m mark;
  check_int "back at the mark" (Addr.off a) (Addr.off (Mem.push m 8));
  check_int "no growth within the initial storage" cap (Mem.capacity m);
  Mem.free m heap;
  check_int "only the carved segment stays allocated" seg (Mem.allocated_bytes m)

let test_mem_bounds () =
  let m = Mem.create ~initial:64 ~limit:64 ~space:Addr.Host "test" in
  let e = env () in
  check_bool "out-of-bounds load raises" true
    (match Mem.load_scalar m e (Addr.make Addr.Host 1000) Cty.Int with
    | exception Mem.Bad_access _ -> true
    | _ -> false)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"live allocations never overlap" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 1 200))
    (fun sizes ->
      let m = Mem.create ~space:Addr.Global "test" in
      let allocs = List.map (fun s -> (Mem.alloc m s, s)) sizes in
      (* free every other allocation, then allocate again *)
      List.iteri (fun i (a, _) -> if i mod 2 = 0 then Mem.free m a) allocs;
      let live = List.filteri (fun i _ -> i mod 2 = 1) allocs in
      let fresh = List.map (fun s -> (Mem.alloc m s, s)) sizes in
      let regions = List.map (fun (a, s) -> (Addr.off a, s)) (live @ fresh) in
      List.for_all
        (fun (o1, s1) ->
          List.for_all
            (fun (o2, s2) -> o1 = o2 || o1 + s1 <= o2 || o2 + s2 <= o1)
            regions)
        regions)

(* One 67 MB allocation into a 1 MiB region grows it to exactly what the
   allocation needs, not to the next power of two (128 MiB). *)
let test_mem_growth_right_sized () =
  let m = Mem.create ~initial:(1 lsl 20) ~space:Addr.Host "test" in
  let a = Mem.alloc m 67_000_000 in
  check_int "capacity = reserved prefix + request" (Addr.off a + 67_000_000) (Mem.capacity m);
  check_bool "below 128 MiB" true (Mem.capacity m < 1 lsl 27)

type mem_op =
  | Op_alloc of int
  | Op_free of int (* index into the live allocations *)
  | Op_push of int
  | Op_release
  | Op_store of int * int * int (* target kind, position, value *)

let mem_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Op_alloc n) (int_range 1 300));
        (2, map (fun i -> Op_free i) (int_bound 100));
        (2, map (fun n -> Op_push n) (int_range 1 200));
        (1, return Op_release);
        (4, map3 (fun k p v -> Op_store (k, p, v)) (int_bound 2) (int_bound 10_000) int);
      ])

let show_mem_op = function
  | Op_alloc n -> Printf.sprintf "alloc %d" n
  | Op_free i -> Printf.sprintf "free #%d" i
  | Op_push n -> Printf.sprintf "push %d" n
  | Op_release -> "release"
  | Op_store (k, p, v) -> Printf.sprintf "store kind=%d pos=%d %d" k p v

(* Random heap/stack/store sequences.  Each allocation is filled with a
   non-zero pattern once checked, and stores land in live allocations,
   in freed holes and in [brk, capacity), so stale bytes sit wherever a
   later allocation may be carved.  Every allocation must come back
   all-zero, live allocations keep their contents, bytes below [brk]
   survive a growth, and a growing allocation sizes the storage to
   [min limit (max needed (2 * old))]. *)
let prop_mem_growth_zeroing =
  QCheck.Test.make ~name:"mem growth keeps the live prefix and allocations come back zeroed"
    ~count:300
    QCheck.(
      pair (oneofl [ 16; 24; 64; 100 ])
        (make ~print:(Print.list show_mem_op) Gen.(list_size (int_range 1 60) mem_op_gen)))
    (fun (initial, ops) ->
      let limit = 4096 in
      let e = env () in
      let m = Mem.create ~initial ~limit ~space:Addr.Global "test" in
      let live = ref [] (* (off, shadow contents) *) and holes = ref [] and marks = ref [] in
      let align8 n = (n + 7) / 8 * 8 in
      let zeroed off len = Bytes.for_all (fun c -> c = '\000') (Bytes.sub m.Mem.data off len) in
      let grown ~old_cap ~old_brk ~prefix ~needed =
        let cap = Mem.capacity m in
        if cap <> old_cap then begin
          if cap <> min limit (max needed (2 * old_cap)) then
            QCheck.Test.fail_reportf "capacity %d -> %d for %d needed bytes" old_cap cap needed;
          if not (Bytes.equal prefix (Bytes.sub m.Mem.data 0 old_brk)) then
            QCheck.Test.fail_report "bytes below brk lost in growth"
        end
      in
      List.iter
        (fun op ->
          let old_cap = Mem.capacity m and old_brk = m.Mem.brk in
          let prefix = Bytes.sub m.Mem.data 0 old_brk in
          match op with
          | Op_alloc n -> (
            match Mem.alloc m n with
            | exception Mem.Out_of_memory _ ->
              if Mem.capacity m <> old_cap || m.Mem.brk <> old_brk then
                QCheck.Test.fail_report "failed alloc changed the region"
            | a ->
              let len = align8 n in
              if not (zeroed (Addr.off a) len) then
                QCheck.Test.fail_reportf "alloc %d at %d not zeroed" n (Addr.off a);
              grown ~old_cap ~old_brk ~prefix ~needed:(align8 old_brk + len);
              (* dirty it, so a later reuse or a lost prefix shows *)
              let b = Bytes.init len (fun i -> Char.chr (1 + ((Addr.off a + i) mod 255))) in
              Bytes.iteri
                (fun i c ->
                  Mem.store_scalar m e (Addr.add a i) Cty.Uchar (Value.of_int (Char.code c)))
                b;
              live := (Addr.off a, b) :: !live;
              holes :=
                List.filter (fun (o, l) -> o + l <= Addr.off a || Addr.off a + len <= o) !holes;
              (* stack marks below this allocation would release over it *)
              marks := [])
          | Op_free i when !live <> [] ->
            let off, b = List.nth !live (i mod List.length !live) in
            Mem.free m (Addr.make Addr.Global off);
            live := List.filter (fun (o, _) -> o <> off) !live;
            holes := (off, Bytes.length b) :: !holes
          | Op_free _ -> ()
          | Op_push n -> (
            let mark = Mem.mark m in
            match Mem.push m n with
            | exception Mem.Out_of_memory _ -> ()
            | a ->
              if not (zeroed (Addr.off a) (align8 n)) then QCheck.Test.fail_report "push not zeroed";
              grown ~old_cap ~old_brk ~prefix ~needed:(align8 old_brk + align8 n);
              marks := mark :: !marks)
          | Op_release -> (
            match !marks with
            | mark :: rest ->
              Mem.release m mark;
              marks := rest
            | [] -> ())
          | Op_store (kind, pos, v) ->
            let byte = v land 0xFF in
            let store off =
              Mem.store_scalar m e (Addr.make Addr.Global off) Cty.Uchar (Value.of_int byte)
            in
            let pick = function [] -> None | l -> Some (List.nth l (pos mod List.length l)) in
            (match kind with
            | 0 ->
              Option.iter
                (fun (o, b) ->
                  let i = pos mod Bytes.length b in
                  store (o + i);
                  Bytes.set b i (Char.chr byte))
                (pick !live)
            | 1 -> Option.iter (fun (o, l) -> store (o + (pos mod l))) (pick !holes)
            | _ ->
              let cap = Mem.capacity m in
              if cap > m.Mem.brk then store (m.Mem.brk + (pos mod (cap - m.Mem.brk)))))
        ops;
      List.for_all (fun (o, b) -> Bytes.equal b (Bytes.sub m.Mem.data o (Bytes.length b))) !live)

(* Whatever a region went through (heap and stack traffic, stores
   anywhere below its capacity, growth), [reset ~initial] leaves it
   indistinguishable from [create ~initial]: same capacity and mark,
   every byte zero, and the next push and alloc land where a fresh
   region's would (so no free hole or allocation survives). *)
let prop_mem_reset_is_create =
  QCheck.Test.make ~name:"reset ~initial is indistinguishable from create ~initial" ~count:300
    QCheck.(
      pair (oneofl [ 16; 64; 256 ])
        (make ~print:(Print.list show_mem_op) Gen.(list_size (int_range 0 60) mem_op_gen)))
    (fun (initial, ops) ->
      let e = env () in
      let space = Addr.Local 3 in
      let m = Mem.create ~initial ~space "local" in
      let live = ref [] and marks = ref [] in
      List.iter
        (function
          | Op_alloc n -> live := Mem.alloc m n :: !live
          | Op_free i -> (
            match !live with
            | [] -> ()
            | l ->
              let a = List.nth l (i mod List.length l) in
              Mem.free m a;
              live := List.filter (fun b -> b <> a) l)
          | Op_push n ->
            marks := Mem.mark m :: !marks;
            ignore (Mem.push m n)
          | Op_release -> (
            match !marks with
            | mark :: rest ->
              Mem.release m mark;
              marks := rest
            | [] -> ())
          | Op_store (kind, pos, v) ->
            let ty = List.nth [ Cty.Uchar; Cty.Int; Cty.Long ] kind in
            let off = pos mod (Mem.capacity m - 7) in
            Mem.store_scalar m e (Addr.make space off) ty (Value.of_int v))
        ops;
      Mem.reset m ~initial;
      let fresh = Mem.create ~initial ~space "local" in
      if Mem.capacity m <> Mem.capacity fresh then
        QCheck.Test.fail_reportf "capacity %d, fresh %d" (Mem.capacity m) (Mem.capacity fresh);
      if Mem.mark m <> Mem.mark fresh then
        QCheck.Test.fail_reportf "mark %d, fresh %d" (Mem.mark m) (Mem.mark fresh);
      if not (Bytes.for_all (fun c -> c = '\000') m.Mem.data) then
        QCheck.Test.fail_report "a byte survived the reset";
      if Mem.allocated_bytes m <> 0 then QCheck.Test.fail_report "an allocation survived the reset";
      let next r = (Mem.push r 40, Mem.alloc r 24, Mem.alloc r 8) in
      next m = next fresh)

(* Storing [Value.cast ty v] and loading it back as [ty] yields the cast
   value itself, for every scalar type and every kind of value.  The
   closure JIT relies on this: it holds a promoted local's value as
   that cast instead of in memory.  Floats compare by bit pattern, so
   -0.0 and NaN payloads count. *)
let scalar_types =
  [
    Cty.Char; Cty.Uchar; Cty.Short; Cty.Ushort; Cty.Int; Cty.Uint; Cty.Long; Cty.Ulong; Cty.Float;
    Cty.Double; Cty.Ptr Cty.Float; Cty.Ptr Cty.Int; Cty.Ptr Cty.Char; Cty.Ptr (Cty.Ptr Cty.Double);
  ]

let same_value (a : Value.t) (b : Value.t) =
  match (a, b) with
  | Value.VFlt (x, tx), Value.VFlt (y, ty) ->
    Cty.equal tx ty && Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Value.VPtr (p, tp), Value.VPtr (q, tq) -> Cty.equal tp tq && Addr.equal p q
  | _ -> Value.equal a b

let gen_scalar_value : Value.t QCheck.Gen.t =
  QCheck.Gen.(
    (* both sides of every width's sign and wrap boundaries *)
    let int_extremes =
      0L :: 1L :: -1L
      :: List.concat_map
           (fun w ->
             let half = Int64.shift_left 1L (w - 1) in
             let full = Int64.shift_left 1L w in
             [ half; Int64.pred half; Int64.neg half; Int64.pred (Int64.neg half); full; Int64.pred full ])
           [ 8; 16; 32; 64 ]
    in
    let float_specials =
      [
        0.0; -0.0; 1.0; -1.5; Float.infinity; Float.neg_infinity; Float.nan; Float.max_float;
        Float.min_float; Float.min_float /. 4.0 (* binary64 subnormal *);
        Int32.float_of_bits 0x0000_0001l (* smallest binary32 subnormal *);
        Int32.float_of_bits 0x007F_FFFFl (* largest binary32 subnormal *);
        Int32.float_of_bits 0x7F7F_FFFFl (* largest binary32 *); 3.5e38 (* beyond binary32 *);
        Int64.float_of_bits 0x7FF0_0000_0000_0001L (* signalling NaN payload *);
        Int64.float_of_bits 0x7FF8_0000_0000_1234L; Int64.float_of_bits 0xFFF8_0000_DEAD_0000L;
        Int32.float_of_bits 0x7FC0_1234l; Int32.float_of_bits 0xFF80_0001l; 1e-300; 0.1;
      ]
    in
    let int_ty = oneofl [ Cty.Char; Cty.Uchar; Cty.Short; Cty.Ushort; Cty.Int; Cty.Uint; Cty.Long; Cty.Ulong ] in
    let space =
      oneof
        [
          return Addr.Global; return Addr.Host; map (fun i -> Addr.Shared i) (int_bound 0xFF_FFFF);
          map (fun i -> Addr.Local i) (int_bound 0xFF_FFFF);
        ]
    in
    oneof
      [
        map2 (fun ty i -> Value.int ~ty i) int_ty
          (frequency [ (3, oneofl int_extremes); (1, ui64) ]);
        map2 (fun ty f -> Value.flt ~ty f) (oneofl [ Cty.Float; Cty.Double ])
          (oneof [ oneofl float_specials; float ]);
        map3
          (fun space off pointee -> Value.ptr ~ty:pointee (Addr.make space off))
          space (int_bound 0xFFFF_FFFF) (oneofl [ Cty.Float; Cty.Int; Cty.Void ]);
      ])

let prop_store_load_is_cast =
  QCheck.Test.make ~name:"store then load of any scalar type is Value.cast" ~count:5000
    (QCheck.make
       ~print:(fun (ty, v) -> Printf.sprintf "%s <- %s" (Cty.show ty) (Value.show v))
       QCheck.Gen.(pair (oneofl scalar_types) gen_scalar_value))
    (fun (ty, v) ->
      match Value.cast ty v with
      | exception (Value.Value_error _ | Invalid_argument _) -> QCheck.assume_fail ()
      | cv ->
        let e = env () in
        let m = Mem.create ~space:Addr.Global "m" in
        let a = Mem.alloc m 8 in
        Mem.store_scalar m e a ty cv;
        same_value (Mem.load_scalar m e a ty) cv)

(* ------------------------- Simclock ------------------------- *)

let test_clock () =
  let c = Simclock.create () in
  check_bool "starts at 0" true (Simclock.now_ns c = 0.0);
  Simclock.advance_us c 5.0;
  Simclock.advance_ms c 1.0;
  check_bool "accumulates" true (Float.abs (Simclock.now_s c -. 0.001005) < 1e-12);
  check_bool "negative rejected" true
    (match Simclock.advance_ns c (-1.0) with exception Invalid_argument _ -> true | _ -> false);
  let (), d = Simclock.time c (fun () -> Simclock.advance_ms c 2.0) in
  check_bool "time measures" true (Float.abs (d -. 0.002) < 1e-12)

let () =
  Alcotest.run "machine"
    [
      ( "cty",
        [
          Alcotest.test_case "scalar sizes" `Quick test_scalar_sizes;
          Alcotest.test_case "array sizes" `Quick test_array_sizes;
          Alcotest.test_case "struct layout" `Quick test_struct_layout;
          Alcotest.test_case "struct nesting" `Quick test_struct_nesting;
          Alcotest.test_case "usual arithmetic conversions" `Quick test_common_arith;
          Alcotest.test_case "C declarator syntax" `Quick test_c_syntax;
          Alcotest.test_case "decay and pointee" `Quick test_decay_pointee;
        ] );
      ( "value",
        [
          Alcotest.test_case "integer normalisation" `Quick test_normalise_int;
          Alcotest.test_case "float32 rounding" `Quick test_float32_rounding;
          Alcotest.test_case "casts" `Quick test_casts;
          Alcotest.test_case "truthiness" `Quick test_truthiness;
          QCheck_alcotest.to_alcotest prop_normalise_idempotent;
          QCheck_alcotest.to_alcotest prop_addr_roundtrip;
        ] );
      ( "addr",
        [
          QCheck_alcotest.to_alcotest prop_addr_matches_record;
          Alcotest.test_case "ranges raise" `Quick test_addr_ranges;
          Alcotest.test_case "no allocation" `Quick test_addr_no_alloc;
        ] );
      ( "mem",
        [
          Alcotest.test_case "alloc/free first fit" `Quick test_mem_alloc_free;
          Alcotest.test_case "free-list coalescing" `Quick test_mem_free_coalescing;
          Alcotest.test_case "double free" `Quick test_mem_double_free;
          Alcotest.test_case "capacity limit" `Quick test_mem_limit;
          Alcotest.test_case "scalar roundtrips" `Quick test_mem_scalar_roundtrip;
          Alcotest.test_case "stack discipline" `Quick test_mem_stack;
          Alcotest.test_case "segmented stack" `Quick test_mem_segmented_stack;
          Alcotest.test_case "bounds checking" `Quick test_mem_bounds;
          QCheck_alcotest.to_alcotest prop_alloc_no_overlap;
          Alcotest.test_case "growth is right-sized" `Quick test_mem_growth_right_sized;
          QCheck_alcotest.to_alcotest prop_mem_growth_zeroing;
          QCheck_alcotest.to_alcotest prop_mem_reset_is_create;
          QCheck_alcotest.to_alcotest prop_store_load_is_cast;
        ] );
      ("simclock", [ Alcotest.test_case "advance and time" `Quick test_clock ]);
    ]
