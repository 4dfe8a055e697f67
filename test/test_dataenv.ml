(* Data-environment tests: OpenMP map semantics with refcounts (the
   machinery behind target data / enter / exit / update). *)

open Machine
open Gpusim

let make () =
  let clock = Simclock.create () in
  let host = Mem.create ~space:Addr.Host "host" in
  let driver = Driver.create ~install_builtins:Devrt.Api.install clock in
  Driver.ensure_initialized driver;
  let env = Hostrt.Dataenv.create ~host ~driver in
  (env, host, driver, clock)

let set_f32 (m : Mem.t) (a : Addr.t) i v =
  Bytes.set_int32_le m.Mem.data (Addr.off a + (4 * i)) (Int32.bits_of_float v)

let get_f32 (m : Mem.t) (a : Addr.t) i =
  Int32.float_of_bits (Bytes.get_int32_le m.Mem.data (Addr.off a + (4 * i)))

let test_map_to_copies () =
  let env, host, driver, _ = make () in
  let h = Mem.alloc host 64 in
  set_f32 host h 3 42.0;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.To in
  Alcotest.(check bool) "device copy initialised" true (get_f32 driver.Driver.global d 3 = 42.0)

let test_alloc_does_not_copy () =
  let env, host, driver, _ = make () in
  let h = Mem.alloc host 64 in
  set_f32 host h 0 7.0;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Alloc in
  Alcotest.(check bool) "device buffer zeroed, not copied" true (get_f32 driver.Driver.global d 0 = 0.0)

let test_tofrom_roundtrip () =
  let env, host, driver, _ = make () in
  let h = Mem.alloc host 64 in
  set_f32 host h 1 1.5;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Tofrom in
  (* device-side mutation *)
  set_f32 driver.Driver.global d 1 9.75;
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check bool) "copied back on final unmap" true (get_f32 host h 1 = 9.75);
  Alcotest.(check int) "entry removed" 0 (Hostrt.Dataenv.active_mappings env)

let test_present_reuses () =
  let env, host, _, clock = make () in
  let h = Mem.alloc host 1024 in
  let d1 = Hostrt.Dataenv.map env h ~bytes:1024 Hostrt.Dataenv.To in
  let t = Simclock.now_s clock in
  let d2 = Hostrt.Dataenv.map env h ~bytes:1024 Hostrt.Dataenv.Tofrom in
  Alcotest.(check bool) "same device address" true (Addr.equal d1 d2);
  Alcotest.(check bool) "no second transfer" true (Simclock.now_s clock -. t < 1e-6);
  (* inner unmap: still present *)
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check int) "refcount keeps mapping" 1 (Hostrt.Dataenv.active_mappings env);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  Alcotest.(check int) "released at zero" 0 (Hostrt.Dataenv.active_mappings env)

let test_containment_lookup () =
  let env, host, _, _ = make () in
  let h = Mem.alloc host 1024 in
  let d = Hostrt.Dataenv.map env h ~bytes:1024 Hostrt.Dataenv.Alloc in
  (* interior address translates with the right offset *)
  let inner = Addr.add h 100 in
  (match Hostrt.Dataenv.lookup env inner with
  | Some di -> Alcotest.(check int) "offset preserved" (Addr.off d + 100) (Addr.off di)
  | None -> Alcotest.fail "interior address should be present");
  Alcotest.(check bool) "outside not present" true
    (Hostrt.Dataenv.lookup env (Addr.add h 5000) = None)

let test_update_to_from () =
  let env, host, driver, _ = make () in
  let h = Mem.alloc host 64 in
  set_f32 host h 0 1.0;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.To in
  set_f32 host h 0 2.0;
  Hostrt.Dataenv.update_to env h ~bytes:64;
  Alcotest.(check bool) "update to pushes" true (get_f32 driver.Driver.global d 0 = 2.0);
  set_f32 driver.Driver.global d 0 3.0;
  Hostrt.Dataenv.update_from env h ~bytes:64;
  Alcotest.(check bool) "update from pulls" true (get_f32 host h 0 = 3.0)

let test_errors () =
  let env, host, _, _ = make () in
  let h = Mem.alloc host 64 in
  let fails f = match f () with exception Hostrt.Dataenv.Map_error _ -> true | _ -> false in
  Alcotest.(check bool) "unmap of unmapped" true
    (fails (fun () -> Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To));
  Alcotest.(check bool) "update of unmapped" true
    (fails (fun () -> Hostrt.Dataenv.update_to env h ~bytes:64));
  Alcotest.(check bool) "lookup_exn of unmapped" true
    (match Hostrt.Dataenv.lookup_exn env h with
    | exception Hostrt.Dataenv.Map_error _ -> true
    | _ -> false);
  Alcotest.(check bool) "zero-byte map" true
    (fails (fun () -> Hostrt.Dataenv.map env h ~bytes:0 Hostrt.Dataenv.To))

let test_from_copies_back_only () =
  let env, host, driver, _ = make () in
  let h = Mem.alloc host 64 in
  set_f32 host h 2 5.0;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.From in
  Alcotest.(check bool) "from does not initialise device" true (get_f32 driver.Driver.global d 2 = 0.0);
  set_f32 driver.Driver.global d 2 8.0;
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.From;
  Alcotest.(check bool) "from copies back at release" true (get_f32 host h 2 = 8.0)

(* ----------------- async interaction (nowait regions) ----------------- *)

(* Fake async hooks: a mutable "in flight" flag plus a log of sync_range
   calls, standing in for the runtime's dependency tracker. *)
let install_fake_hooks env =
  let in_flight = ref false in
  let synced = ref [] in
  Hostrt.Dataenv.set_async_hooks env
    ~pending:(fun _addr ~bytes:_ -> !in_flight)
    ~sync_range:(fun addr ~bytes ->
      synced := (addr, bytes) :: !synced;
      in_flight := false);
  (in_flight, synced)

(* Unmapping a range with async work in flight is a clean Map_error at
   the *final* release only — inner (refcounted) unmaps stay legal. *)
let test_unmap_pending_refcount () =
  let env, host, _, _ = make () in
  let in_flight, _ = install_fake_hooks env in
  let h = Mem.alloc host 256 in
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  in_flight := true;
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  Alcotest.(check int) "inner unmap is refcount-only, no pending check" 1
    (Hostrt.Dataenv.active_mappings env);
  Alcotest.(check bool) "final unmap while pending errors" true
    (match Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To with
    | exception Hostrt.Dataenv.Map_error _ -> true
    | () -> false);
  Alcotest.(check int) "failed release keeps the mapping intact" 1
    (Hostrt.Dataenv.active_mappings env);
  in_flight := false;
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  Alcotest.(check int) "released once quiet" 0 (Hostrt.Dataenv.active_mappings env)

(* target update on an in-flight range synchronizes the range first,
   then transfers — the transfer must see post-sync device data. *)
let test_update_syncs_in_flight_range () =
  let env, host, _, _ = make () in
  let in_flight, synced = install_fake_hooks env in
  let h = Mem.alloc host 64 in
  ignore (Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Tofrom);
  in_flight := true;
  Hostrt.Dataenv.update_to env h ~bytes:64;
  (match !synced with
  | [ (addr, bytes) ] ->
    Alcotest.(check bool) "synced the updated range" true (Addr.equal addr h);
    Alcotest.(check int) "synced the full extent" 64 bytes
  | l -> Alcotest.failf "expected one sync_range call, got %d" (List.length l));
  in_flight := true;
  Hostrt.Dataenv.update_from env h ~bytes:64;
  Alcotest.(check int) "update from also syncs first" 2 (List.length !synced);
  in_flight := false;
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom

(* A map and an unmap from a stream task: eager memory effects over
   async copies; the caller IS the in-flight work, so no pending checks
   apply. *)
let test_stream_map_eager_effects () =
  let env, host, driver, clock = make () in
  let in_flight, _ = install_fake_hooks env in
  let s = Driver.stream_create driver in
  let h = Mem.alloc host 64 in
  set_f32 host h 2 4.5;
  let d = Hostrt.Dataenv.map ~stream:s env h ~bytes:64 Hostrt.Dataenv.Tofrom in
  Alcotest.(check bool) "async map(to:) copies in eagerly" true
    (get_f32 driver.Driver.global d 2 = 4.5);
  set_f32 driver.Driver.global d 2 6.25;
  in_flight := true;
  (* no Map_error even though the hook reports pending work *)
  Hostrt.Dataenv.unmap ~stream:s env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check bool) "async unmap copies back eagerly" true (get_f32 host h 2 = 6.25);
  Alcotest.(check int) "entry removed" 0 (Hostrt.Dataenv.active_mappings env);
  Alcotest.(check bool) "work landed on the stream, not the clock" true
    (s.Driver.str_done_ns > Simclock.now_ns clock)

(* -------------- unified-memory optimisations (elide/zerocopy) -------------- *)

let test_decode_map_code () =
  let pp fmt (mt, a) = Format.fprintf fmt "(%a, %b)" Hostrt.Dataenv.pp_map_type mt a in
  let code = Alcotest.testable pp (fun (m1, a1) (m2, a2) -> m1 = m2 && a1 = a2) in
  let check n exp = Alcotest.check code (Printf.sprintf "code %d" n) exp (Hostrt.Dataenv.decode_map_code n) in
  check 0 (Hostrt.Dataenv.Alloc, false);
  check 1 (Hostrt.Dataenv.To, false);
  check 2 (Hostrt.Dataenv.From, false);
  check 3 (Hostrt.Dataenv.Tofrom, false);
  check 4 (Hostrt.Dataenv.Alloc, true);
  check 5 (Hostrt.Dataenv.To, true);
  check 6 (Hostrt.Dataenv.From, true);
  check 7 (Hostrt.Dataenv.Tofrom, true)

let elided_h2d env = (Hostrt.Dataenv.stats env).Hostrt.Dataenv.elided_h2d

let elided_d2h env = (Hostrt.Dataenv.stats env).Hostrt.Dataenv.elided_d2h

(* Re-mapping a released range whose bytes changed on neither side skips
   the h2d; dirtying the host image forces the copy again. *)
let test_elide_clean_remap () =
  let env, host, _, clock = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  let h = Mem.alloc host 256 in
  set_f32 host h 0 1.0;
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  Alcotest.(check int) "released buffer parked" 1 (Hostrt.Dataenv.resident_buffers env);
  let t = Simclock.now_s clock in
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check int) "clean re-map elides the h2d" 1 (elided_h2d env);
  Alcotest.(check bool) "no copy time charged" true (Simclock.now_s clock -. t < 1e-9);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  set_f32 host h 0 2.0;
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check int) "dirty host forces the copy" 1 (elided_h2d env);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To

(* Copy-back of a tofrom range the device never wrote is a no-op; once
   kernel stores are recorded against the allocation it must happen. *)
let test_elide_d2h_unwritten () =
  let env, host, driver, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  let h = Mem.alloc host 64 in
  set_f32 host h 1 3.5;
  ignore (Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Tofrom);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check int) "unwritten tofrom skips the copy-back" 1 (elided_d2h env);
  Alcotest.(check bool) "host bytes intact" true (get_f32 host h 1 = 3.5);
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Tofrom in
  set_f32 driver.Driver.global d 1 9.0;
  (match Driver.alloc_id_of driver d with
  | Some id -> Driver.note_stores driver id 1
  | None -> Alcotest.fail "device address should carry an allocation id");
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check int) "written buffer is copied back" 1 (elided_d2h env);
  Alcotest.(check bool) "device value landed on host" true (get_f32 host h 1 = 9.0)

(* The [always] modifier defeats elision in both directions. *)
let test_always_forces_transfers () =
  let env, host, driver, clock = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  let h = Mem.alloc host 128 in
  ignore (Hostrt.Dataenv.map env h ~bytes:128 Hostrt.Dataenv.To);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  let t = Simclock.now_s clock in
  let d = Hostrt.Dataenv.map ~always:true env h ~bytes:128 Hostrt.Dataenv.Tofrom in
  Alcotest.(check int) "always map: no h2d elision" 0 (elided_h2d env);
  Alcotest.(check bool) "always map: copy time charged" true (Simclock.now_s clock -. t > 0.0);
  (* an unrecorded device write — exactly what always is for *)
  set_f32 driver.Driver.global d 0 5.0;
  Hostrt.Dataenv.unmap ~always:true env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check int) "always unmap: no d2h elision" 0 (elided_d2h env);
  Alcotest.(check bool) "unrecorded write still copied back" true (get_f32 host h 0 = 5.0)

(* A revived range with async work in flight is synchronized and copied,
   never elided. *)
let test_elide_pending_never_elided () =
  let env, host, _, _ = make () in
  let in_flight, synced = install_fake_hooks env in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  let h = Mem.alloc host 256 in
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  in_flight := true;
  ignore (Hostrt.Dataenv.map env h ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check int) "in-flight range not elided" 0 (elided_h2d env);
  Alcotest.(check int) "range synchronized before the copy" 1 (List.length !synced);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To

(* The resident cache is byte-accounted: a buffer larger than the whole
   budget is freed instead of parked. *)
let test_resident_oversized_not_parked () =
  let env, host, _, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  Hostrt.Dataenv.set_resident_cap_bytes env 512;
  let h = Mem.alloc host 1024 in
  ignore (Hostrt.Dataenv.map env h ~bytes:1024 Hostrt.Dataenv.To);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
  Alcotest.(check int) "oversized buffer not parked" 0 (Hostrt.Dataenv.resident_buffers env);
  Alcotest.(check int) "no bytes accounted" 0 (Hostrt.Dataenv.resident_bytes env)

(* Parking beyond the byte budget evicts the oldest parked buffers until
   the total fits again. *)
let test_resident_lru_byte_eviction () =
  let env, host, _, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  Hostrt.Dataenv.set_resident_cap_bytes env 512;
  let park bytes =
    let h = Mem.alloc host bytes in
    ignore (Hostrt.Dataenv.map env h ~bytes Hostrt.Dataenv.To);
    Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
    h
  in
  let a = park 256 in
  let c = ignore (park 256); park 256 in
  Alcotest.(check int) "two newest remain parked" 2 (Hostrt.Dataenv.resident_buffers env);
  Alcotest.(check int) "bytes stay within the budget" 512 (Hostrt.Dataenv.resident_bytes env);
  ignore (Hostrt.Dataenv.map env a ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check int) "evicted buffer cannot elide" 0 (elided_h2d env);
  ignore (Hostrt.Dataenv.map env c ~bytes:256 Hostrt.Dataenv.To);
  Alcotest.(check int) "surviving buffer elides its h2d" 1 (elided_h2d env);
  Hostrt.Dataenv.unmap env a Hostrt.Dataenv.To;
  Hostrt.Dataenv.unmap env c Hostrt.Dataenv.To

(* One large session must not flush every small session's parked
   buffer: an over-budget release is freed, the smalls stay warm. *)
let test_resident_large_spares_smalls () =
  let env, host, _, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  Hostrt.Dataenv.set_resident_cap_bytes env 1024;
  let cycle bytes =
    let h = Mem.alloc host bytes in
    ignore (Hostrt.Dataenv.map env h ~bytes Hostrt.Dataenv.To);
    Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To;
    h
  in
  let smalls = List.init 4 (fun _ -> cycle 128) in
  ignore (cycle 4096);
  Alcotest.(check int) "small sessions stay parked" 4 (Hostrt.Dataenv.resident_buffers env);
  List.iter (fun h -> ignore (Hostrt.Dataenv.map env h ~bytes:128 Hostrt.Dataenv.To)) smalls;
  Alcotest.(check int) "every small re-open elides" 4 (elided_h2d env);
  List.iter (fun h -> Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To) smalls

(* Shrinking the budget evicts immediately; a negative budget is
   rejected. *)
let test_resident_cap_shrink () =
  let env, host, _, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Elide);
  let park bytes =
    let h = Mem.alloc host bytes in
    ignore (Hostrt.Dataenv.map env h ~bytes Hostrt.Dataenv.To);
    Hostrt.Dataenv.unmap env h Hostrt.Dataenv.To
  in
  park 256;
  park 256;
  Alcotest.(check int) "both parked under the default budget" 2
    (Hostrt.Dataenv.resident_buffers env);
  Hostrt.Dataenv.set_resident_cap_bytes env 256;
  Alcotest.(check int) "shrink evicts down to the new budget" 1
    (Hostrt.Dataenv.resident_buffers env);
  Alcotest.(check int) "bytes follow" 256 (Hostrt.Dataenv.resident_bytes env);
  Alcotest.check_raises "negative budget rejected"
    (Invalid_argument "Dataenv.set_resident_cap_bytes: negative budget") (fun () ->
      Hostrt.Dataenv.set_resident_cap_bytes env (-1))

(* Digests are taken only where something reads them.  One cold
   tofrom + to cycle of two buffers (the tofrom map is [always], which
   keeps it a copy-mode buffer under the automatic policy): above the
   resident budget the policy hashes one release digest per buffer and
   no sync digest (nothing could compare one), forced copy reads no
   history and hashes nothing, while elide-mode and parkable buffers keep
   their sync digests. *)
let test_digested_bytes () =
  let bytes = 4096 in
  let cycle ?cap sel =
    let env, host, _, _ = make () in
    Hostrt.Dataenv.set_mem_mode env sel;
    Option.iter (Hostrt.Dataenv.set_resident_cap_bytes env) cap;
    let x = Mem.alloc host bytes and y = Mem.alloc host bytes in
    ignore (Hostrt.Dataenv.map ~always:true env x ~bytes Hostrt.Dataenv.Tofrom);
    ignore (Hostrt.Dataenv.map env y ~bytes Hostrt.Dataenv.To);
    Hostrt.Dataenv.unmap env x Hostrt.Dataenv.Tofrom;
    Hostrt.Dataenv.unmap env y Hostrt.Dataenv.To;
    (Hostrt.Dataenv.stats env).Hostrt.Dataenv.digested_bytes
  in
  let auto = Hostrt.Mempolicy.Auto and forced m = Hostrt.Mempolicy.Forced m in
  Alcotest.(check int) "auto above the budget: release digests only" (2 * bytes)
    (cycle ~cap:(bytes - 1) auto);
  Alcotest.(check int) "forced copy: no digests" 0
    (cycle ~cap:(bytes - 1) (forced Hostrt.Mempolicy.Copy));
  Alcotest.(check bool) "auto within the budget: sync digests kept" true (cycle auto > 2 * bytes);
  Alcotest.(check bool) "elide above the budget: sync digests kept" true
    (cycle ~cap:(bytes - 1) (forced Hostrt.Mempolicy.Elide) >= 2 * bytes)

(* Zero-copy: the map pins the host range and hands kernels the host
   address itself — one shared image, no transfers. *)
let test_zerocopy_map_in_place () =
  let env, host, driver, _ = make () in
  Hostrt.Dataenv.set_mem_mode env (Hostrt.Mempolicy.Forced Hostrt.Mempolicy.Zerocopy);
  let h = Mem.alloc host 64 in
  set_f32 host h 0 2.5;
  let d = Hostrt.Dataenv.map env h ~bytes:64 Hostrt.Dataenv.Tofrom in
  Alcotest.(check bool) "map returns the host address itself" true (Addr.equal d h);
  Alcotest.(check bool) "range pinned in the driver" true (driver.Driver.pinned <> []);
  Alcotest.(check bool) "lookup is the identity" true
    (match Hostrt.Dataenv.lookup env h with Some a -> Addr.equal a h | None -> false);
  (* host writes are device-visible: there is no separate device image *)
  set_f32 host h 0 4.0;
  Alcotest.(check bool) "shared DRAM" true (get_f32 host d 0 = 4.0);
  Hostrt.Dataenv.unmap env h Hostrt.Dataenv.Tofrom;
  Alcotest.(check bool) "unpinned at release" true (driver.Driver.pinned = []);
  Alcotest.(check int) "entry removed" 0 (Hostrt.Dataenv.active_mappings env)

(* Two partially overlapping maps (the second is not contained in the
   first, so each gets its own entry): every unmap must release the entry
   mapped at its own address, in any map and unmap order, even when the
   other entry also contains that address. *)
let test_overlapping_unmap () =
  let run ~b_first ~unmap_b_first =
    let env, host, driver, _ = make () in
    let h = Mem.alloc host 256 in
    (* a covers floats [0, 32), b covers floats [16, 48) *)
    let a = h and b = Addr.add h 64 in
    let map x = ignore (Hostrt.Dataenv.map env x ~bytes:128 Hostrt.Dataenv.Tofrom) in
    if b_first then (map b; map a) else (map a; map b);
    Alcotest.(check int) "two entries" 2 (Hostrt.Dataenv.active_mappings env);
    (* tag each device image on a float only its own entry covers *)
    let tag i v =
      set_f32 driver.Driver.global (Hostrt.Dataenv.lookup_exn env (Addr.add h (4 * i))) 0 v
    in
    tag 0 1.0;
    tag 47 2.0;
    let first, second, first_elt, second_elt =
      if unmap_b_first then (b, a, 47, 0) else (a, b, 0, 47)
    in
    Hostrt.Dataenv.unmap env first Hostrt.Dataenv.Tofrom;
    Alcotest.(check bool) "its own image came back" true (get_f32 host h first_elt <> 0.0);
    Alcotest.(check bool) "the other image stayed" true (get_f32 host h second_elt = 0.0);
    Alcotest.(check bool) "the other map is still present" true
      (Hostrt.Dataenv.is_present env second ~bytes:128);
    Hostrt.Dataenv.unmap env second Hostrt.Dataenv.Tofrom;
    Alcotest.(check bool) "then the other image" true (get_f32 host h second_elt <> 0.0);
    Alcotest.(check int) "both released" 0 (Hostrt.Dataenv.active_mappings env)
  in
  List.iter
    (fun (b_first, unmap_b_first) -> run ~b_first ~unmap_b_first)
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_geometry () =
  let grid, block = Hostrt.Rt.geometry ~num_teams:100 ~num_threads:256 in
  Alcotest.(check int) "grid 1d" 100 grid.Gpusim.Simt.x;
  Alcotest.(check int) "block folded to 32xN" 32 block.Gpusim.Simt.x;
  Alcotest.(check int) "block y" 8 block.Gpusim.Simt.y;
  let grid2, _ = Hostrt.Rt.geometry ~num_teams:100000 ~num_threads:128 in
  Alcotest.(check bool) "grid folded into 2D over 65535" true (grid2.Gpusim.Simt.y > 1);
  Alcotest.(check bool) "total preserved or padded" true
    (grid2.Gpusim.Simt.x * grid2.Gpusim.Simt.y >= 100000)

let () =
  Alcotest.run "dataenv"
    [
      ( "mapping",
        [
          Alcotest.test_case "map(to:) copies in" `Quick test_map_to_copies;
          Alcotest.test_case "map(alloc:) does not copy" `Quick test_alloc_does_not_copy;
          Alcotest.test_case "map(tofrom:) roundtrip" `Quick test_tofrom_roundtrip;
          Alcotest.test_case "map(from:) copies back only" `Quick test_from_copies_back_only;
        ] );
      ( "present table",
        [
          Alcotest.test_case "present ranges are reused" `Quick test_present_reuses;
          Alcotest.test_case "interior-address lookup" `Quick test_containment_lookup;
          Alcotest.test_case "target update to/from" `Quick test_update_to_from;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "overlapping maps unmap their own entry" `Quick test_overlapping_unmap;
        ] );
      ( "async",
        [
          Alcotest.test_case "unmap-while-pending vs refcount" `Quick test_unmap_pending_refcount;
          Alcotest.test_case "target update syncs in-flight range" `Quick
            test_update_syncs_in_flight_range;
          Alcotest.test_case "stream map eager effects" `Quick test_stream_map_eager_effects;
        ] );
      ( "unified memory",
        [
          Alcotest.test_case "map-code decoding" `Quick test_decode_map_code;
          Alcotest.test_case "clean re-map elides h2d" `Quick test_elide_clean_remap;
          Alcotest.test_case "unwritten tofrom elides d2h" `Quick test_elide_d2h_unwritten;
          Alcotest.test_case "always modifier forces transfers" `Quick test_always_forces_transfers;
          Alcotest.test_case "in-flight ranges never elided" `Quick test_elide_pending_never_elided;
          Alcotest.test_case "oversized buffer freed not parked" `Quick
            test_resident_oversized_not_parked;
          Alcotest.test_case "resident cache evicts by bytes (LRU)" `Quick
            test_resident_lru_byte_eviction;
          Alcotest.test_case "large release spares small sessions" `Quick
            test_resident_large_spares_smalls;
          Alcotest.test_case "shrinking the byte budget evicts" `Quick test_resident_cap_shrink;
          Alcotest.test_case "zero-copy maps in place" `Quick test_zerocopy_map_in_place;
          Alcotest.test_case "digests only where they are read" `Quick test_digested_bytes;
        ] );
      ("geometry", [ Alcotest.test_case "teams/threads to grid/block" `Quick test_geometry ]);
    ]
