(* Memory-autopilot tests: per-page dirty digests (partial transfers,
   clean-range update elision), the automatic per-buffer
   copy/elide/zerocopy policy (cold heuristics, history, async-pending
   and map(always) overrides), zero-copy composed with streams, and a
   QCheck differential property — random map/offload/update/unmap
   sequences are bit-identical between the automatic policy and a
   forced-copy runtime, with transient faults and streams enabled. *)

open Machine
open Gpusim
module De = Hostrt.Dataenv
module Mp = Hostrt.Mempolicy

let make () =
  let clock = Simclock.create () in
  let host = Mem.create ~space:Addr.Host "host" in
  let driver = Driver.create clock in
  Driver.ensure_initialized driver;
  let env = De.create ~host ~driver in
  (env, host, driver, clock)

let set_f32 (m : Mem.t) (a : Addr.t) i v =
  Bytes.set_int32_le m.Mem.data (Addr.off a + (4 * i)) (Int32.bits_of_float v)

let get_f32 (m : Mem.t) (a : Addr.t) i =
  Int32.float_of_bits (Bytes.get_int32_le m.Mem.data (Addr.off a + (4 * i)))

let fill_words host (a : Addr.t) words f =
  for i = 0 to words - 1 do
    set_f32 host a i (f i)
  done

(* ----------------------- per-page dirty digests ----------------------- *)

(* 4 pages of 64 bytes; dirty one byte in page 2 after parking: the
   revival moves only that page and counts the other three as elided. *)
let test_partial_h2d_single_dirty_page () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  De.set_page_bytes env 64;
  let h = Mem.alloc host 256 in
  fill_words host h 64 float_of_int;
  ignore (De.map env h ~bytes:256 De.To);
  De.unmap env h De.To;
  Alcotest.(check int) "parked" 1 (De.resident_buffers env);
  Bytes.set host.Mem.data (Addr.off h + 130) 'X';
  let before = (De.stats env).De.elided_h2d_pages in
  let d = De.map env h ~bytes:256 De.To in
  Alcotest.(check int) "three clean pages elided" (before + 3) (De.stats env).De.elided_h2d_pages;
  Alcotest.(check char) "dirty byte reached the device" 'X'
    (Bytes.get driver.Driver.global.Mem.data (Addr.off d + 130));
  Alcotest.(check bool) "clean page content intact" true (get_f32 driver.Driver.global d 0 = 0.0)

(* Writes hugging a page boundary dirty exactly the two adjacent pages;
   they form one run, so the partial path still beats a full copy. *)
let test_page_boundary_writes () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  De.set_page_bytes env 64;
  let h = Mem.alloc host 256 in
  fill_words host h 64 float_of_int;
  ignore (De.map env h ~bytes:256 De.To);
  De.unmap env h De.To;
  Bytes.set host.Mem.data (Addr.off h + 63) 'a';
  Bytes.set host.Mem.data (Addr.off h + 64) 'b';
  let before = (De.stats env).De.elided_h2d_pages in
  let d = De.map env h ~bytes:256 De.To in
  Alcotest.(check int) "two of four pages elided" (before + 2) (De.stats env).De.elided_h2d_pages;
  Alcotest.(check char) "last byte of page 0" 'a'
    (Bytes.get driver.Driver.global.Mem.data (Addr.off d + 63));
  Alcotest.(check char) "first byte of page 1" 'b'
    (Bytes.get driver.Driver.global.Mem.data (Addr.off d + 64))

(* Two separate single-page runs cost two transfer latencies — more than
   one full copy of this small buffer — so the latency-dominance
   fallback does a whole-extent copy and elides nothing. *)
let test_partial_falls_back_when_latency_dominates () =
  let env, host, _, _ = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  De.set_page_bytes env 64;
  let h = Mem.alloc host 256 in
  ignore (De.map env h ~bytes:256 De.To);
  De.unmap env h De.To;
  Bytes.set host.Mem.data (Addr.off h + 10) 'x';
  Bytes.set host.Mem.data (Addr.off h + 140) 'y';
  let before = (De.stats env).De.elided_h2d_pages in
  ignore (De.map env h ~bytes:256 De.To);
  Alcotest.(check int) "no page elision: full copy was cheaper" before
    (De.stats env).De.elided_h2d_pages

(* An untouched host image revives whole-buffer: zero transfers. *)
let test_clean_remap_elides_whole_buffer () =
  let env, host, _, clock = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  let h = Mem.alloc host 256 in
  fill_words host h 64 float_of_int;
  ignore (De.map env h ~bytes:256 De.To);
  De.unmap env h De.To;
  let before = (De.stats env).De.elided_h2d in
  let t0 = Simclock.now_ns clock in
  ignore (De.map env h ~bytes:256 De.To);
  Alcotest.(check int) "whole-buffer h2d elided" (before + 1) (De.stats env).De.elided_h2d;
  Alcotest.(check bool) "no transfer time charged" true (Simclock.now_ns clock -. t0 < 1000.0)

(* ---------------------- clean-range update elision ---------------------- *)

let test_update_to_clean_elides () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  De.set_page_bytes env 64;
  let h = Mem.alloc host 256 in
  fill_words host h 64 float_of_int;
  let d = De.map env h ~bytes:256 De.To in
  let s0 = De.stats env in
  De.update_to env h ~bytes:256;
  Alcotest.(check int) "clean update to fully elided" (s0.De.elided_update_to + 1)
    (De.stats env).De.elided_update_to;
  (* dirty one page: the next update moves it and elides the rest *)
  set_f32 host h 40 99.0;
  De.update_to env h ~bytes:256;
  let s1 = De.stats env in
  Alcotest.(check int) "partial update: three pages elided" (s0.De.elided_h2d_pages + 4 + 3)
    s1.De.elided_h2d_pages;
  Alcotest.(check int) "partial update is not a full elision" (s0.De.elided_update_to + 1)
    s1.De.elided_update_to;
  Alcotest.(check bool) "dirty word pushed" true (get_f32 driver.Driver.global d 40 = 99.0);
  (* everything agrees again: fully elided once more *)
  De.update_to env h ~bytes:256;
  Alcotest.(check int) "clean again after partial sync" (s1.De.elided_update_to + 1)
    (De.stats env).De.elided_update_to

let test_update_from_clean_elides () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env (Mp.Forced Mp.Elide);
  De.set_page_bytes env 64;
  let h = Mem.alloc host 256 in
  fill_words host h 64 float_of_int;
  let d = De.map env h ~bytes:256 De.Tofrom in
  let s0 = De.stats env in
  De.update_from env h ~bytes:256;
  Alcotest.(check int) "no device stores: update from elided" (s0.De.elided_update_from + 1)
    (De.stats env).De.elided_update_from;
  Alcotest.(check bool) "host untouched" true (get_f32 host h 5 = 5.0);
  (* a device write makes the extent dirty: the update transfers for real *)
  set_f32 driver.Driver.global d 5 77.0;
  (match Driver.alloc_id_of driver d with
  | Some id -> Driver.note_stores driver id 1
  | None -> Alcotest.fail "device buffer should have an allocation id");
  De.update_from env h ~bytes:256;
  Alcotest.(check int) "dirty update not elided" (s0.De.elided_update_from + 1)
    (De.stats env).De.elided_update_from;
  Alcotest.(check bool) "device write pulled" true (get_f32 host h 5 = 77.0)

(* --------------------- automatic per-buffer policy --------------------- *)

let decisions_for env (h : Addr.t) ~bytes =
  match List.assoc_opt (Addr.off h, bytes) (De.policy_decisions env) with
  | Some row -> row
  | None -> []

(* Small tofrom buffer, cold: transfers are latency-dominated, so the
   static model pins it zero-copy — the map returns the host address. *)
let test_auto_cold_small_tofrom_zerocopy () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env Mp.Auto;
  let h = Mem.alloc host 64 in
  fill_words host h 16 float_of_int;
  let d = De.map env h ~bytes:64 De.Tofrom in
  Alcotest.(check bool) "kernel addresses host memory in place" true (Addr.equal d h);
  Alcotest.(check bool) "range is pinned" true (Driver.pin_id_of driver h <> None);
  Alcotest.(check (list (pair string int))) "decision tally" [ ("zerocopy", 1) ]
    (decisions_for env h ~bytes:64);
  Alcotest.(check bool) "contents undisturbed" true (get_f32 host h 7 = 7.0);
  De.unmap env h De.Tofrom;
  Alcotest.(check bool) "unpinned at release" true (Driver.pin_id_of driver h = None)

(* A zero-copy from map must present the zero-filled device image the
   copying runtime would have produced: the host range is zeroed in
   place at map, and kernel writes land directly in host memory. *)
let test_auto_from_zerocopy_zeroes_host () =
  let env, host, _, _ = make () in
  De.set_mem_mode env Mp.Auto;
  let h = Mem.alloc host 64 in
  fill_words host h 16 (fun _ -> 42.0);
  let d = De.map env h ~bytes:64 De.From in
  Alcotest.(check (list (pair string int))) "from pins zero-copy" [ ("zerocopy", 1) ]
    (decisions_for env h ~bytes:64);
  Alcotest.(check bool) "host range zeroed like a fresh device image" true
    (get_f32 host h 0 = 0.0 && get_f32 host h 15 = 0.0);
  set_f32 host d 2 8.0;
  De.unmap env h De.From;
  Alcotest.(check bool) "kernel result survives the release" true (get_f32 host h 2 = 8.0);
  Alcotest.(check bool) "unwritten words stay zero, as under copy" true (get_f32 host h 3 = 0.0)

(* A large to-mapped buffer starts as a copy (elision cannot beat the
   first transfer, [to] may not pin cold); the release parks it, and the
   next map's history makes elision free — the mode flips. *)
let test_auto_large_to_copy_then_elide () =
  let env, host, _, _ = make () in
  De.set_mem_mode env Mp.Auto;
  let bytes = 1 lsl 18 in
  let h = Mem.alloc host bytes in
  ignore (De.map env h ~bytes De.To);
  Alcotest.(check (list (pair string int))) "cold large to is a copy" [ ("copy", 1) ]
    (decisions_for env h ~bytes);
  De.unmap env h De.To;
  Alcotest.(check int) "parked under auto despite copy mode" 1 (De.resident_buffers env);
  let before = (De.stats env).De.elided_h2d in
  ignore (De.map env h ~bytes De.To);
  Alcotest.(check (list (pair string int))) "history flips it to elide"
    [ ("copy", 1); ("elide", 1) ]
    (decisions_for env h ~bytes);
  Alcotest.(check int) "revival elided the h2d" (before + 1) (De.stats env).De.elided_h2d;
  De.unmap env h De.To;
  Alcotest.(check bool) "both modes appear in the summary" true
    (List.mem Mp.Copy (De.policy_modes_used env) && List.mem Mp.Elide (De.policy_modes_used env))

(* Fake async hooks as in test_dataenv: an in-flight flag plus logs of
   the pinned-range registrations zero-copy maps must perform. *)
let install_fake_hooks env =
  let in_flight = ref false in
  let registered = ref [] in
  let unregistered = ref [] in
  De.set_async_hooks env
    ~register_pinned:(fun addr ~bytes -> registered := (addr, bytes) :: !registered)
    ~unregister_pinned:(fun addr ~bytes -> unregistered := (addr, bytes) :: !unregistered)
    ~pending:(fun _addr ~bytes:_ -> !in_flight)
    ~sync_range:(fun _addr ~bytes:_ -> in_flight := false);
  (in_flight, registered, unregistered)

(* Queued stream work over the range forces a real copy — pinning or
   reviving under in-flight transfers would race them. *)
let test_auto_async_pending_forces_copy () =
  let env, host, driver, _ = make () in
  De.set_mem_mode env Mp.Auto;
  let in_flight, _, _ = install_fake_hooks env in
  let h = Mem.alloc host 64 in
  in_flight := true;
  let d = De.map env h ~bytes:64 De.Tofrom in
  Alcotest.(check bool) "not pinned" true (Driver.pin_id_of driver h = None);
  Alcotest.(check bool) "a real device buffer exists" true
    (Addr.equal_space (Addr.space d) Addr.Global);
  Alcotest.(check (list (pair string int))) "decision tally" [ ("copy", 1) ]
    (decisions_for env h ~bytes:64);
  in_flight := false;
  De.unmap env h De.Tofrom

(* map(always, ...) overrides the policy: transfers happen even where
   the model would pin or elide. *)
let test_auto_always_forces_transfers () =
  let env, host, driver, clock = make () in
  De.set_mem_mode env Mp.Auto;
  let h = Mem.alloc host 64 in
  ignore (De.map ~always:true env h ~bytes:64 De.Tofrom);
  Alcotest.(check bool) "always map is not pinned" true (Driver.pin_id_of driver h = None);
  De.unmap env h De.Tofrom;
  let t0 = Simclock.now_ns clock in
  ignore (De.map ~always:true env h ~bytes:64 De.Tofrom);
  Alcotest.(check bool) "clean re-map still pays the transfer" true
    (Simclock.now_ns clock -. t0 >= 15000.0);
  Alcotest.(check (list (pair string int))) "both decisions were copies" [ ("copy", 2) ]
    (decisions_for env h ~bytes:64);
  De.unmap env h De.Tofrom

(* Zero-copy maps advertise their pinned range to the stream dependency
   tracker, and withdraw it at release. *)
let test_zerocopy_registers_pinned_range () =
  let env, host, _, _ = make () in
  De.set_mem_mode env Mp.Auto;
  let _, registered, unregistered = install_fake_hooks env in
  let h = Mem.alloc host 64 in
  ignore (De.map env h ~bytes:64 De.Tofrom);
  (match !registered with
  | [ (addr, bytes) ] ->
    Alcotest.(check bool) "registered the mapped range" true (Addr.equal addr h);
    Alcotest.(check int) "registered the full extent" 64 bytes
  | l -> Alcotest.failf "expected one register_pinned call, got %d" (List.length l));
  Alcotest.(check int) "still registered while mapped" 0 (List.length !unregistered);
  De.unmap env h De.Tofrom;
  Alcotest.(check int) "unregistered at release" 1 (List.length !unregistered)

(* Through the full runtime: the pinned range lands in the real stream
   tracker's table, so nowait tasks can serialize against it. *)
let test_rt_zerocopy_pins_in_stream_tracker () =
  let rt =
    Hostrt.Rt.create ~config:{ Hostrt.Rt.default_config with streams = 2; mem_policy = Mp.Auto } ()
  in
  let dev = Hostrt.Rt.default_dev rt in
  let h = Mem.alloc rt.Hostrt.Rt.host_mem 64 in
  ignore (De.map dev.Hostrt.Rt.dev_dataenv h ~bytes:64 De.Tofrom);
  Alcotest.(check int) "pinned range visible to the stream tracker" 1
    (List.length (Hostrt.Async.pinned_ranges dev.Hostrt.Rt.dev_async));
  De.unmap dev.Hostrt.Rt.dev_dataenv h De.Tofrom;
  Alcotest.(check int) "withdrawn at release" 0
    (List.length (Hostrt.Async.pinned_ranges dev.Hostrt.Rt.dev_async))

let test_sel_of_string () =
  Alcotest.(check bool) "auto" true (Mp.sel_of_string "auto" = Some Mp.Auto);
  Alcotest.(check bool) "copy" true (Mp.sel_of_string "copy" = Some (Mp.Forced Mp.Copy));
  Alcotest.(check bool) "elide" true (Mp.sel_of_string "elide" = Some (Mp.Forced Mp.Elide));
  Alcotest.(check bool) "zerocopy" true
    (Mp.sel_of_string "zerocopy" = Some (Mp.Forced Mp.Zerocopy));
  Alcotest.(check bool) "junk" true (Mp.sel_of_string "unified" = None)

(* The memory mode is one selector at every layer; these are the
   defaults each layer must keep. *)
let test_mode_defaults () =
  let sel = Alcotest.testable Mp.pp_sel Mp.equal_sel in
  let copy = Mp.Forced Mp.Copy in
  let env, _, _, _ = make () in
  Alcotest.check sel "fresh Dataenv" copy (De.mem_mode env);
  let rt = Hostrt.Rt.create ~config:{ Hostrt.Rt.default_config with devices = 3 } () in
  Array.iteri
    (fun i (d : Hostrt.Rt.device) ->
      Alcotest.check sel (Printf.sprintf "fresh Rt device %d" i) copy
        (De.mem_mode d.Hostrt.Rt.dev_dataenv))
    rt.Hostrt.Rt.devices;
  let ctx = Polybench.Harness.create () in
  Alcotest.check sel "fresh Harness ctx" copy (De.mem_mode (Polybench.Harness.dataenv ctx));
  Alcotest.check sel "Rt.default_config" copy Hostrt.Rt.default_config.Hostrt.Rt.mem_policy;
  Alcotest.check sel "Serve.default_config" (Mp.Forced Mp.Elide)
    Serve.default_config.Serve.cf_rt.Hostrt.Rt.mem_policy

(* One configuration reaches every device: a 3-device runtime built
   from a config with every field away from its default carries each
   setting on every driver, data environment and stream pool. *)
let test_config_reaches_every_device () =
  let sel = Alcotest.testable Mp.pp_sel Mp.equal_sel in
  let d = Hostrt.Rt.default_config in
  let rules =
    match Hostrt.Faults.parse "launch:nth=1" with Ok r -> r | Error m -> Alcotest.fail m
  in
  let small = { Spec.jetson_nano_2gb with Spec.name = "small nano"; global_mem_bytes = 1 lsl 28 } in
  let config =
    {
      Hostrt.Rt.binary_mode = Nvcc.Ptx;
      spec = small;
      specs = [ Spec.jetson_nano_2gb ];
      devices = 3;
      streams = 2;
      mem_policy = Mp.Auto;
      jit = false;
      faults = rules;
      fault_seed = 9;
      max_retries = Some 5;
    }
  in
  Alcotest.(check bool) "every field away from its default" true
    (config.binary_mode <> d.binary_mode && config.spec <> d.spec && config.specs <> d.specs
    && config.devices <> d.devices && config.streams <> d.streams
    && not (Mp.equal_sel config.mem_policy d.mem_policy)
    && config.jit <> d.jit && config.faults <> d.faults && config.fault_seed <> d.fault_seed
    && config.max_retries <> d.max_retries);
  let rt = Hostrt.Rt.create ~config () in
  Alcotest.(check int) "3-device farm" 3 (Hostrt.Rt.num_devices rt);
  Alcotest.(check bool) "binary mode" true (rt.Hostrt.Rt.binary_mode = Nvcc.Ptx);
  Alcotest.(check bool) "executor" false (Hostrt.Rt.jit rt);
  let f = match rt.Hostrt.Rt.faults with Some f -> f | None -> Alcotest.fail "faults not armed" in
  Array.iteri
    (fun i (dev : Hostrt.Rt.device) ->
      let what s = Printf.sprintf "device %d: %s" i s in
      let drv = dev.Hostrt.Rt.dev_driver and env = dev.Hostrt.Rt.dev_dataenv in
      let want_spec = if i = 0 then Spec.jetson_nano_2gb.Spec.name else "small nano" in
      Alcotest.(check string) (what "spec") want_spec drv.Driver.spec.Spec.name;
      Alcotest.(check bool) (what "jit off") false drv.Driver.closure_jit;
      Alcotest.check sel (what "mem mode") Mp.Auto (De.mem_mode env);
      Alcotest.(check int) (what "retries") 5 (De.policy env).Hostrt.Resilience.rp_max_retries;
      Alcotest.(check int) (what "streams") 2 (Hostrt.Async.streams dev.Hostrt.Rt.dev_async);
      (* the hook is the runtime's one injector: a launch on any device
         counts against (and here fires) the shared plan *)
      let before = Hostrt.Faults.total_calls f in
      (match drv.Driver.inject with
      | Some hook -> (
        match hook "launch" with
        | () -> ()
        | exception Hostrt.Faults.Injected _ -> ())
      | None -> Alcotest.fail (what "fault hook not installed"));
      Alcotest.(check int) (what "hook counts on the shared plan") (before + 1)
        (Hostrt.Faults.total_calls f))
    rt.Hostrt.Rt.devices;
  Alcotest.(check int) "the nth=1 launch fired once" 1 (Hostrt.Faults.total_fired f)

(* ------------- differential property: auto ≡ forced copy ------------- *)

(* One simulated runtime plus the mutable mirror the interpreter needs:
   per-buffer refcounts it keeps in lockstep with the data environment. *)
type world = {
  w_env : De.t;
  w_host : Mem.t;
  w_driver : Driver.t;
  w_async : Hostrt.Async.t;
  w_bufs : Addr.t array;
  w_rc : int array;
}

(* Every buffer keeps one role for the whole sequence — map type and
   whether the kernel stores into it — mirroring a real program that
   re-runs the same kernel, which is what keeps the history-gated
   [to]-zero-copy unlock sound. *)
type role = { r_mt : De.map_type; r_writes : bool }

let sizes = [| 64; 256; 4096 |]

let transient_transfer_faults =
  [
    {
      Hostrt.Faults.r_sites = [ Hostrt.Faults.H2d; Hostrt.Faults.D2h ];
      r_kind = Hostrt.Faults.Transient;
      r_nths = [];
      r_from = None;
      r_every = Some 5;
      r_prob = 0.0;
    };
  ]

let make_world sel =
  let rt =
    Hostrt.Rt.create
      ~config:
        {
          Hostrt.Rt.default_config with
          streams = 2;
          mem_policy = sel;
          faults = transient_transfer_faults;
        }
      ()
  in
  let dev = Hostrt.Rt.default_dev rt in
  let host = rt.Hostrt.Rt.host_mem in
  let bufs = Array.map (fun sz -> Mem.alloc host sz) sizes in
  Array.iteri
    (fun b a -> fill_words host a (sizes.(b) / 4) (fun i -> float_of_int ((b * 1000) + i)))
    bufs;
  {
    w_env = dev.Hostrt.Rt.dev_dataenv;
    w_host = host;
    w_driver = dev.Hostrt.Rt.dev_driver;
    w_async = dev.Hostrt.Rt.dev_async;
    w_bufs = bufs;
    w_rc = Array.make (Array.length sizes) 0;
  }

(* The stand-in kernel: a read-modify-write through [lookup], into
   whichever memory holds the device image (host for pinned zero-copy,
   device global otherwise), so a stale image anywhere changes the final
   bits.  Device-side stores are logged like a real launch would. *)
let kernel_exec w b (r : role) =
  let h = w.w_bufs.(b) in
  let words = sizes.(b) / 4 in
  let d = De.lookup_exn w.w_env h in
  let m = if Addr.equal_space (Addr.space d) Addr.Host then w.w_host else w.w_driver.Driver.global in
  if r.r_writes then begin
    for j = 0 to words - 1 do
      set_f32 m d j ((get_f32 m d j *. 0.5) +. float_of_int (j land 7))
    done;
    if not (Addr.equal_space (Addr.space d) Addr.Host) then
      match Driver.alloc_id_of w.w_driver d with
      | Some id -> Driver.note_stores w.w_driver id words
      | None -> ()
  end
  else
    for j = 0 to words - 1 do
      ignore (get_f32 m d j)
    done

(* Interpret one op identically in both worlds.  [k] is the op's index
   in the sequence, the seed for the deterministic values host writes
   produce. *)
let step w (roles : role array) k op =
  let b = op mod Array.length sizes in
  let h = w.w_bufs.(b) in
  let bytes = sizes.(b) in
  let r = roles.(b) in
  let words = bytes / 4 in
  match (op / Array.length sizes) mod 7 with
  | 0 ->
    if w.w_rc.(b) < 3 then begin
      ignore (De.map w.w_env h ~bytes r.r_mt);
      w.w_rc.(b) <- w.w_rc.(b) + 1
    end
  | 1 ->
    if w.w_rc.(b) > 0 then begin
      (* a final release needs quiet streams, like a taskwait *)
      if w.w_rc.(b) = 1 then Hostrt.Async.wait_all w.w_async;
      De.unmap w.w_env h r.r_mt;
      w.w_rc.(b) <- w.w_rc.(b) - 1
    end
  | 2 -> if w.w_rc.(b) > 0 then kernel_exec w b r
  | 3 ->
    if w.w_rc.(b) > 0 then begin
      let range = Hostrt.Async.range_of_addr h ~bytes in
      Hostrt.Async.submit w.w_async ~label:"prop_kernel" ~reads:[ range ]
        ~writes:(if r.r_writes then [ range ] else [])
        (fun _stream -> kernel_exec w b r)
    end
  | 4 ->
    (match r.r_mt with
    | De.To | De.Tofrom ->
      if w.w_rc.(b) > 0 then begin
        (* a host write to a mapped range, pushed with an update of
           exactly the written bytes.  Updating a *wider* extent than
           the host wrote would push stale words over device stores —
           behaviour that legitimately differs between a copying and a
           unified-memory implementation (omp requires
           unified_shared_memory), so it is outside the equivalence
           this property claims *)
        let j = k * 7 mod words in
        set_f32 w.w_host h j (float_of_int (k * 13 mod 1000));
        De.update_to w.w_env (Addr.add h (4 * j)) ~bytes:4
      end
    | De.From | De.Alloc -> ())
  | 5 ->
    (match r.r_mt with
    | De.From | De.Tofrom -> if w.w_rc.(b) > 0 then De.update_from w.w_env h ~bytes
    | De.To | De.Alloc -> ())
  | _ ->
    if w.w_rc.(b) = 0 then set_f32 w.w_host h (k * 5 mod words) (float_of_int (k * 11 mod 1000))

let drain w (roles : role array) =
  Hostrt.Async.wait_all w.w_async;
  Array.iteri
    (fun b h ->
      while w.w_rc.(b) > 0 do
        De.unmap w.w_env h roles.(b).r_mt;
        w.w_rc.(b) <- w.w_rc.(b) - 1
      done)
    w.w_bufs

let run_world sel roles ops =
  let w = make_world sel in
  List.iteri (step w roles) ops;
  drain w roles;
  Array.mapi (fun b h -> Bytes.sub w.w_host.Mem.data (Addr.off h) sizes.(b)) w.w_bufs

let role_of_int v =
  { r_mt = [| De.To; De.From; De.Tofrom; De.Alloc |].(v mod 4); r_writes = v land 4 <> 0 }

let prop_auto_equals_copy =
  QCheck.Test.make ~count:40 ~long_factor:2
    ~name:"auto policy bit-identical to forced copy (faults + streams)"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 10 60) (int_bound 1000))
        (triple (int_bound 7) (int_bound 7) (int_bound 7)))
    (fun (ops, (r0, r1, r2)) ->
      let roles = Array.map role_of_int [| r0; r1; r2 |] in
      let auto = run_world Mp.Auto roles ops in
      let copy = run_world (Mp.Forced Mp.Copy) roles ops in
      Array.iteri
        (fun b a ->
          if not (Bytes.equal a copy.(b)) then
            QCheck.Test.fail_reportf
              "buffer %d (%s, writes=%b, %d bytes) diverged between auto and forced copy" b
              (De.show_map_type roles.(b).r_mt)
              roles.(b).r_writes sizes.(b))
        auto;
      true)

let () =
  Alcotest.run "mempolicy"
    [
      ( "pages",
        [
          Alcotest.test_case "partial h2d, single dirty page" `Quick
            test_partial_h2d_single_dirty_page;
          Alcotest.test_case "page-boundary writes dirty both pages" `Quick
            test_page_boundary_writes;
          Alcotest.test_case "latency-dominance falls back to full copy" `Quick
            test_partial_falls_back_when_latency_dominates;
          Alcotest.test_case "clean re-map elides whole buffer" `Quick
            test_clean_remap_elides_whole_buffer;
        ] );
      ( "update",
        [
          Alcotest.test_case "clean update-to elided, dirty page partial" `Quick
            test_update_to_clean_elides;
          Alcotest.test_case "clean update-from elided, device store transfers" `Quick
            test_update_from_clean_elides;
        ] );
      ( "auto",
        [
          Alcotest.test_case "cold small tofrom pins zero-copy" `Quick
            test_auto_cold_small_tofrom_zerocopy;
          Alcotest.test_case "from zero-copy zeroes the host range" `Quick
            test_auto_from_zerocopy_zeroes_host;
          Alcotest.test_case "large to: copy cold, elide on history" `Quick
            test_auto_large_to_copy_then_elide;
          Alcotest.test_case "async-pending range forces copy" `Quick
            test_auto_async_pending_forces_copy;
          Alcotest.test_case "map(always) overrides the policy" `Quick
            test_auto_always_forces_transfers;
          Alcotest.test_case "selector parsing" `Quick test_sel_of_string;
          Alcotest.test_case "one selector, defaults kept at every layer" `Quick test_mode_defaults;
          Alcotest.test_case "one config reaches every device" `Quick
            test_config_reaches_every_device;
        ] );
      ( "streams",
        [
          Alcotest.test_case "zero-copy registers its pinned range" `Quick
            test_zerocopy_registers_pinned_range;
          Alcotest.test_case "pinned range visible in the rt stream tracker" `Quick
            test_rt_zerocopy_pins_in_stream_tracker;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_auto_equals_copy ]);
    ]
