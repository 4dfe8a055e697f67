(* Device data environment (paper §2, §4.2.1): tracks which host ranges
   are mapped to device memory, with OpenMP present/refcount semantics:

   - mapping an already-present range only increments its refcount (no
     transfer), which is what makes [target data] regions effective at
     eliminating redundant movement;
   - the final unmap performs the from/tofrom copy-back and frees the
     device buffer;
   - [target update] moves data for present ranges without changing
     refcounts.

   On top of that sit the unified-memory strategies.  Each mapping runs
   in one of three modes, fixed at its cold map:

   - copy: the classic alloc + h2d / d2h + free protocol;
   - elide: released buffers are parked in a small resident cache
     instead of freed, and transfers are skipped where host and device
     images provably agree — whole-buffer via a digest taken at the
     last synchronisation point plus the driver's per-allocation store
     counts and write epoch, and page-wise via per-page digests plus the
     driver's store-interval log, so a partially-dirty buffer moves only
     its dirty pages.  [target update] transfers elide their clean pages
     the same way.  A map with the [always] modifier forces full copies;
   - zero-copy: the Nano's CPU and GPU share DRAM, so the map pins the
     host range (cuMemHostRegister) and hands the kernel the host
     address itself — no device buffer and no copies at all; the cost
     model charges the kernel's uncached accesses instead.  Pinned
     ranges are registered with the stream dependency tracker so
     zero-copy composes with [--streams].

   The mode comes from the one run-level selector ([set_mem_mode]):
   [Forced m] puts every buffer in mode [m]; [Auto] asks the per-buffer
   [Mempolicy] cost model, fed by each buffer's observed history.  Every
   cold map emits a cat:"mem" "policy_decide" instant naming the chosen
   mode and the signals that drove it.

   Driver calls made here are fallible under fault injection; they are
   wrapped in the Resilience retry policy, and when an operation still
   fails the device is declared dead: live from/tofrom mappings are
   salvaged back to the host (the simulated device's global memory stays
   readable after compute faults) and every subsequent data-environment
   operation degrades to a host-memory no-op, so the program continues
   on the sequential fallback path. *)

open Machine
open Gpusim

exception Map_error of string

let map_error fmt = Format.kasprintf (fun s -> raise (Map_error s)) fmt

type map_type = Alloc | To | From | Tofrom [@@deriving show { with_path = false }, eq]

let map_type_of_int = function
  | 0 -> Alloc
  | 1 -> To
  | 2 -> From
  | 3 -> Tofrom
  | n -> map_error "bad map type code %d" n

(* The generated ort_map calls encode the [always] modifier as bit 4 on
   top of the two-bit map type. *)
let decode_map_code n : map_type * bool = (map_type_of_int (n land 3), n land 4 <> 0)

type entry = {
  e_host : Addr.t;
  e_bytes : int;
  e_dev : Addr.t; (* aliases e_host in zero-copy mode *)
  mutable e_refcount : int;
  e_map : map_type; (* type used at initial mapping *)
  mutable e_launches_at_map : int; (* driver launch count when (re-)mapped *)
  e_mode : Mempolicy.mode; (* transfer strategy fixed at the cold map *)
  e_zerocopy : bool; (* e_mode = Zerocopy, kept for cheap dispatch *)
  e_alloc_id : int; (* device allocation id; -1 for zero-copy entries *)
  mutable e_pin_id : int; (* driver pin id; -1 unless zero-copy *)
  (* Last point where host and device images provably agreed (end of a
     successful h2d or d2h over the full extent).  [e_synced] stays false
     for alloc/from mappings until their first copy-back: their device
     image starts uninitialised, so eliding the d2h would change what
     lands in host memory. *)
  mutable e_synced : bool;
  mutable e_stores_at_sync : int; (* Driver.alloc_stores at that point *)
  mutable e_epoch_at_sync : int; (* Driver.write_epoch at that point *)
  mutable e_digest : Digest.t option; (* host-range digest at that point *)
  (* Per-page refinement of the sync point (elide mode only): digest of
     each host page when the images last agreed ([None] per page =
     unknown, always dirty), plus the driver store-log position, so
     device writes since then resolve to dirty pages. *)
  mutable e_page_digests : Digest.t option array option;
  mutable e_store_mark : int;
  (* Observation snapshot taken at (re-)map, diffed at the final release
     to feed the policy: cumulative loads/stores (allocation counters,
     or pin traffic for zero-copy) and the store-log position. *)
  mutable e_loads_at_map : int;
  mutable e_stores_at_map : int;
  mutable e_map_store_mark : int;
}

type stats = {
  elided_h2d : int;
  elided_d2h : int;
  elided_h2d_pages : int;
  elided_d2h_pages : int;
  elided_update_to : int;
  elided_update_from : int;
  zerocopy_accesses : int;
  digested_bytes : int;
}

type t = {
  mutable entries : entry list;
  host : Mem.t;
  driver : Driver.t;
  policy : Mempolicy.t; (* per-environment (= per-device) buffer histories *)
  mutable de_dead : string option; (* Some reason once the device is declared dead *)
  mutable de_policy : Resilience.policy;
  (* Async-awareness hooks, installed by Rt against its stream tracker
     (kept as closures so this module does not depend on Async): is any
     queued stream work touching this host range, wait for it, and
     advertise pinned (zero-copy) ranges so overlapping stream tasks
     serialize. *)
  mutable de_pending : (Addr.t -> bytes:int -> bool) option;
  mutable de_sync_range : (Addr.t -> bytes:int -> unit) option;
  mutable de_register_pinned : (Addr.t -> bytes:int -> unit) option;
  mutable de_unregister_pinned : (Addr.t -> bytes:int -> unit) option;
  mutable de_mode : Mempolicy.sel;
  mutable de_page_bytes : int; (* dirty-tracking granularity *)
  mutable resident : entry list; (* refcount-0 parked buffers, MRU first *)
  (* Eviction is byte-accounted, not entry-counted: a multiplexing
     server parks buffers of wildly different sizes, and counting
     entries would let one large session flush every small session's
     buffer while staying "under budget". *)
  mutable resident_cap_bytes : int;
  mutable resident_bytes : int;
  mutable elided_h2d : int;
  mutable elided_d2h : int;
  mutable elided_h2d_pages : int;
  mutable elided_d2h_pages : int;
  mutable elided_update_to : int;
  mutable elided_update_from : int;
  mutable digested_bytes : int; (* host bytes MD5-hashed, all digest kinds *)
}

(* Roughly a quarter of the Nano's 4 MiB L2 worth of parked images: big
   enough for a server's worth of small per-session buffers, small
   enough that parking is a cache, not a leak. *)
let default_resident_cap_bytes = 1 lsl 20

let default_page_bytes = 4096

let create ~(host : Mem.t) ~(driver : Driver.t) =
  {
    entries = [];
    host;
    driver;
    policy = Mempolicy.create driver.Driver.spec;
    de_dead = None;
    de_policy = Resilience.default_policy;
    de_pending = None;
    de_sync_range = None;
    de_register_pinned = None;
    de_unregister_pinned = None;
    de_mode = Mempolicy.Forced Mempolicy.Copy;
    de_page_bytes = default_page_bytes;
    resident = [];
    resident_cap_bytes = default_resident_cap_bytes;
    resident_bytes = 0;
    elided_h2d = 0;
    elided_d2h = 0;
    elided_h2d_pages = 0;
    elided_d2h_pages = 0;
    elided_update_to = 0;
    elided_update_from = 0;
    digested_bytes = 0;
  }

let is_dead t = t.de_dead <> None

let dead_reason t = t.de_dead

let set_policy t policy = t.de_policy <- policy

let policy t = t.de_policy

let set_mem_mode t sel = t.de_mode <- sel

let mem_mode t = t.de_mode

let is_auto t = match t.de_mode with Mempolicy.Auto -> true | Mempolicy.Forced _ -> false

let set_page_bytes t n =
  if n <= 0 then invalid_arg "Dataenv.set_page_bytes: non-positive page size";
  t.de_page_bytes <- n

let page_bytes t = t.de_page_bytes

let stats t =
  {
    elided_h2d = t.elided_h2d;
    elided_d2h = t.elided_d2h;
    elided_h2d_pages = t.elided_h2d_pages;
    elided_d2h_pages = t.elided_d2h_pages;
    elided_update_to = t.elided_update_to;
    elided_update_from = t.elided_update_from;
    zerocopy_accesses = t.driver.Driver.zerocopy_total;
    digested_bytes = t.digested_bytes;
  }

let policy_decisions t = Mempolicy.decisions t.policy

let policy_modes_used t = Mempolicy.modes_used t.policy

let set_async_hooks ?register_pinned ?unregister_pinned t
    ~(pending : Addr.t -> bytes:int -> bool) ~(sync_range : Addr.t -> bytes:int -> unit) : unit =
  t.de_pending <- Some pending;
  t.de_sync_range <- Some sync_range;
  t.de_register_pinned <- register_pinned;
  t.de_unregister_pinned <- unregister_pinned

let async_pending t haddr ~bytes =
  match t.de_pending with Some f -> f haddr ~bytes | None -> false

let async_sync_range t haddr ~bytes =
  match t.de_sync_range with Some f -> f haddr ~bytes | None -> ()

let register_pinned t haddr ~bytes =
  match t.de_register_pinned with Some f -> f haddr ~bytes | None -> ()

let unregister_pinned t haddr ~bytes =
  match t.de_unregister_pinned with Some f -> f haddr ~bytes | None -> ()

let tr_instant t ?(args = []) name =
  match t.driver.Driver.trace with
  | Some tr -> Perf.Trace.instant tr ~args ~cat:"fault" name
  | None -> ()

let tr_mem t ?(args = []) name =
  match t.driver.Driver.trace with
  | Some tr -> Perf.Trace.instant tr ~args ~cat:"mem" name
  | None -> ()

(* Retry-wrap one fallible driver call under this environment's policy. *)
let guard t ~label f =
  Resilience.run ~clock:t.driver.Driver.clock ?trace:t.driver.Driver.trace ~policy:t.de_policy
    ~label f

(* ------------------------- elision bookkeeping ------------------------- *)

(* Every host-image digest goes through here, so [digested_bytes]
   counts them all: whole-buffer, per-page and the policy's. *)
let digest_host t ~off ~len =
  t.digested_bytes <- t.digested_bytes + len;
  Digest.subbytes t.host.Mem.data off len

let host_digest t e = digest_host t ~off:(Addr.off e.e_host) ~len:e.e_bytes

let digest_matches t e =
  match e.e_digest with Some d -> Digest.equal d (host_digest t e) | None -> false

let npages t bytes = (bytes + t.de_page_bytes - 1) / t.de_page_bytes

let page_digest t e p =
  let off = p * t.de_page_bytes in
  let len = min t.de_page_bytes (e.e_bytes - off) in
  digest_host t ~off:(Addr.off e.e_host + off) ~len

(* Can anything read this entry's whole-buffer sync digest?  Elision
   checks compare it, and they run on elide-mode entries and, under the
   automatic policy, on parked copy-mode entries once revived — which
   only happens to entries within the resident budget ([park_resident]
   frees a larger one outright).  Every other entry skips the hash: a
   missing digest reads as "host changed", so at worst a later check
   copies where it could have elided. *)
let digest_readable t e =
  Mempolicy.equal_mode e.e_mode Mempolicy.Elide || (is_auto t && e.e_bytes <= t.resident_cap_bytes)

(* Record "host and device agree over the full extent right now". *)
let mark_synced t e =
  if not e.e_zerocopy then begin
    e.e_stores_at_sync <- Driver.alloc_stores t.driver e.e_alloc_id;
    e.e_epoch_at_sync <- t.driver.Driver.write_epoch;
    e.e_store_mark <- Driver.store_mark t.driver e.e_alloc_id;
    e.e_digest <- (if digest_readable t e then Some (host_digest t e) else None);
    (if Mempolicy.equal_mode e.e_mode Mempolicy.Elide then
       e.e_page_digests <- Some (Array.init (npages t e.e_bytes) (fun p -> Some (page_digest t e p)))
     else e.e_page_digests <- None);
    e.e_synced <- true
  end

(* Has no kernel (provably) written this allocation since the sync point?
   A write-epoch bump means some launch's store counts were incomplete
   (block sampling, context reset) — assume everything was written. *)
let device_unwritten t e =
  t.driver.Driver.write_epoch = e.e_epoch_at_sync
  && Driver.alloc_stores t.driver e.e_alloc_id = e.e_stores_at_sync

(* Both images provably identical: safe to skip a transfer entirely. *)
let images_agree t e = e.e_synced && device_unwritten t e && digest_matches t e

(* Per-page dirty map of a synced elide-mode entry: [Some dirty] when
   per-page reasoning applies (true = images may differ on that page),
   [None] when only whole-buffer reasoning is available.  A page is
   clean iff its host content still matches the sync digest AND no
   device store interval has touched it since the sync mark — exactly
   the condition under which skipping it is sound in either transfer
   direction. *)
let dirty_pages t e : bool array option =
  match e.e_page_digests with
  | None -> None
  | Some pds ->
    if (not e.e_synced) || t.driver.Driver.write_epoch <> e.e_epoch_at_sync then None
    else begin
      let pb = t.de_page_bytes in
      let np = Array.length pds in
      if np <> npages t e.e_bytes then None (* page size changed under us *)
      else begin
        let dirty = Array.make np false in
        List.iter
          (fun (lo, hi) ->
            let lo = max 0 lo and hi = min e.e_bytes hi in
            if hi > lo then
              for p = lo / pb to (hi - 1) / pb do
                dirty.(p) <- true
              done)
          (Driver.stores_since t.driver e.e_alloc_id e.e_store_mark);
        for p = 0 to np - 1 do
          if not dirty.(p) then
            match pds.(p) with
            | None -> dirty.(p) <- true
            | Some d -> if not (Digest.equal d (page_digest t e p)) then dirty.(p) <- true
        done;
        Some dirty
      end
    end

let transfer_cost_ns t len =
  (float_of_int len /. t.driver.Driver.spec.Spec.memcpy_bandwidth *. 1e9)
  +. (t.driver.Driver.spec.Spec.memcpy_latency_us *. 1e3)

(* Byte ranges (offset, length relative to the entry base) of maximal
   runs of dirty pages. *)
let dirty_runs t e (dirty : bool array) : (int * int) list =
  let pb = t.de_page_bytes in
  let np = Array.length dirty in
  let runs = ref [] in
  let p = ref 0 in
  while !p < np do
    if dirty.(!p) then begin
      let q = ref !p in
      while !q + 1 < np && dirty.(!q + 1) do
        incr q
      done;
      let off = !p * pb in
      let len = min e.e_bytes ((!q + 1) * pb) - off in
      runs := (off, len) :: !runs;
      p := !q + 1
    end
    else incr p
  done;
  List.rev !runs

let run_copy t e ~label (dir : [ `H2d | `D2h ]) ~(off : int) ~(len : int) =
  let h = Addr.add e.e_host off and d = Addr.add e.e_dev off in
  match dir with
  | `H2d -> guard t ~label (fun () -> Driver.memcpy_h2d t.driver ~host:t.host ~src:h ~dst:d ~len)
  | `D2h -> guard t ~label (fun () -> Driver.memcpy_d2h t.driver ~host:t.host ~src:d ~dst:h ~len)

(* Page-wise partial transfer over the whole extent: move only the dirty
   runs and leave the entry fully synced (every dirty page transferred,
   every clean page proven equal).  Returns [Some pages_elided] when the
   partial path ran; [None] when the caller should fall back to a full
   transfer — no per-page info, nothing to elide, or the summed run
   latency would exceed one full copy (transfers are latency-dominated,
   so many small runs can cost more than moving everything). *)
let partial_transfer t e ~label (dir : [ `H2d | `D2h ]) : int option =
  match dirty_pages t e with
  | None -> None
  | Some dirty ->
    let np = Array.length dirty in
    let n_dirty = Array.fold_left (fun a d -> if d then a + 1 else a) 0 dirty in
    if n_dirty = 0 || n_dirty = np then None
    else begin
      let runs = dirty_runs t e dirty in
      let cost = List.fold_left (fun a (_, len) -> a +. transfer_cost_ns t len) 0.0 runs in
      if cost >= transfer_cost_ns t e.e_bytes then None
      else begin
        List.iter (fun (off, len) -> run_copy t e ~label dir ~off ~len) runs;
        mark_synced t e;
        Some (np - n_dirty)
      end
    end

(* ------------------------- policy bookkeeping ------------------------- *)

let buffer_key (haddr : Addr.t) ~bytes = (Addr.off haddr, bytes)

(* Snapshot the cumulative access counters at (re-)map time; the final
   release diffs them to feed the policy's history. *)
let snapshot_map_counters t e =
  if e.e_zerocopy then begin
    let l, s = Driver.pin_traffic t.driver e.e_pin_id in
    e.e_loads_at_map <- l;
    e.e_stores_at_map <- s
  end
  else begin
    e.e_loads_at_map <- Driver.alloc_loads t.driver e.e_alloc_id;
    e.e_stores_at_map <- Driver.alloc_stores t.driver e.e_alloc_id;
    e.e_map_store_mark <- Driver.store_mark t.driver e.e_alloc_id
  end

(* Fold one completed map→unmap cycle into the buffer's history.  The
   release digest is only ever compared by the automatic policy's next
   decision, so forced modes record none.  [synced_now] says the entry
   was synced in this same unmap, so its sync digest (when one was
   taken) is the current host image and is reused. *)
let observe_release ?(synced_now = false) t e =
  if not (is_dead t) then begin
    let loads, stores =
      if e.e_zerocopy then begin
        let l, s = Driver.pin_traffic t.driver e.e_pin_id in
        (l - e.e_loads_at_map, s - e.e_stores_at_map)
      end
      else
        ( Driver.alloc_loads t.driver e.e_alloc_id - e.e_loads_at_map,
          Driver.alloc_stores t.driver e.e_alloc_id - e.e_stores_at_map )
    in
    let dev_dirty =
      if e.e_zerocopy then if stores > 0 then 1.0 else 0.0
      else begin
        (* extent of the bytes written since map, from the store log *)
        let lo, hi =
          List.fold_left
            (fun (lo, hi) (l, h) -> (min lo l, max hi h))
            (max_int, 0)
            (Driver.stores_since t.driver e.e_alloc_id e.e_map_store_mark)
        in
        if hi <= lo then 0.0
        else float_of_int (min e.e_bytes hi - max 0 lo) /. float_of_int e.e_bytes
      end
    in
    let digest =
      if not (is_auto t) then None
      else
        match e.e_digest with
        | Some d when synced_now -> Some d
        | _ -> Some (host_digest t e)
    in
    Mempolicy.observe t.policy ~key:(buffer_key e.e_host ~bytes:e.e_bytes) ~loads ~stores
      ~dev_dirty ~digest
  end

let est_int v = if Float.is_finite v then int_of_float v else -1

let emit_policy_decide t ~(haddr : Addr.t) ~(bytes : int) (d : Mempolicy.decision) =
  tr_mem t "policy_decide"
    ~args:
      [
        ("device", Perf.Trace.Int t.driver.Driver.ordinal);
        ("off", Perf.Trace.Int (Addr.off haddr));
        ("bytes", Perf.Trace.Int bytes);
        ("mode", Perf.Trace.Str (Mempolicy.mode_name d.Mempolicy.d_mode));
        ("reason", Perf.Trace.Str d.Mempolicy.d_reason);
        ("seq", Perf.Trace.Int d.Mempolicy.d_seq);
        ("est_copy_ns", Perf.Trace.Int (est_int d.Mempolicy.d_est_copy_ns));
        ("est_elide_ns", Perf.Trace.Int (est_int d.Mempolicy.d_est_elide_ns));
        ("est_zerocopy_ns", Perf.Trace.Int (est_int d.Mempolicy.d_est_zerocopy_ns));
      ]

let fresh_entry t ~haddr ~bytes ~dev ~(mt : map_type) ~(mode : Mempolicy.mode) =
  let zerocopy = Mempolicy.equal_mode mode Mempolicy.Zerocopy in
  {
    e_host = haddr;
    e_bytes = bytes;
    e_dev = dev;
    e_refcount = 1;
    e_map = mt;
    e_launches_at_map = t.driver.Driver.kernels_launched;
    e_mode = mode;
    e_zerocopy = zerocopy;
    e_alloc_id =
      (if zerocopy then -1 else Option.value ~default:(-1) (Driver.alloc_id_of t.driver dev));
    e_pin_id = -1;
    e_synced = false;
    e_stores_at_sync = 0;
    e_epoch_at_sync = 0;
    e_digest = None;
    e_page_digests = None;
    e_store_mark = 0;
    e_loads_at_map = 0;
    e_stores_at_map = 0;
    e_map_store_mark = 0;
  }

(* Pull a parked buffer covering [haddr, haddr+bytes) out of the resident
   cache, if any. *)
let take_resident t (haddr : Addr.t) ~bytes : entry option =
  let rec go acc = function
    | [] -> None
    | e :: rest ->
      if
        Addr.same_space e.e_host haddr
        && Addr.off haddr >= Addr.off e.e_host
        && Addr.off haddr + bytes <= Addr.off e.e_host + e.e_bytes
      then begin
        t.resident <- List.rev_append acc rest;
        t.resident_bytes <- t.resident_bytes - e.e_bytes;
        Some e
      end
      else go (e :: acc) rest
  in
  go [] t.resident

let peek_resident t (haddr : Addr.t) ~bytes : bool =
  List.exists
    (fun e ->
      Addr.same_space e.e_host haddr
      && Addr.off haddr >= Addr.off e.e_host
      && Addr.off haddr + bytes <= Addr.off e.e_host + e.e_bytes)
    t.resident

(* A fresh device buffer is about to cover this host range: any parked
   buffer overlapping it would go stale, so drop those now. *)
let drop_resident_overlapping t (haddr : Addr.t) ~bytes =
  let overlaps e =
    Addr.same_space e.e_host haddr
    && Addr.off haddr < Addr.off e.e_host + e.e_bytes
    && Addr.off e.e_host < Addr.off haddr + bytes
  in
  let dead, keep = List.partition overlaps t.resident in
  List.iter
    (fun e ->
      Driver.mem_free t.driver e.e_dev;
      t.resident_bytes <- t.resident_bytes - e.e_bytes)
    dead;
  t.resident <- keep

(* May this environment have parked buffers at all? *)
let parking_possible t =
  match t.de_mode with
  | Mempolicy.Auto | Mempolicy.Forced Mempolicy.Elide -> true
  | Mempolicy.Forced (Mempolicy.Copy | Mempolicy.Zerocopy) -> false

(* Park a released buffer under the byte budget: LRU entries are evicted
   from the tail until the new total fits.  A buffer larger than the
   whole budget is freed outright instead of parked — parking it would
   evict every other session's buffer for a cache entry that cannot be
   joined by any other. *)
let park_resident t e =
  if e.e_bytes > t.resident_cap_bytes then begin
    Driver.mem_free t.driver e.e_dev;
    tr_mem t "resident_evict"
      ~args:[ ("bytes", Perf.Trace.Int e.e_bytes); ("reason", Perf.Trace.Str "oversized") ]
  end
  else begin
    t.resident <- e :: t.resident;
    t.resident_bytes <- t.resident_bytes + e.e_bytes;
    while t.resident_bytes > t.resident_cap_bytes do
      match List.rev t.resident with
      | last :: rev_rest ->
        Driver.mem_free t.driver last.e_dev;
        t.resident_bytes <- t.resident_bytes - last.e_bytes;
        tr_mem t "resident_evict"
          ~args:[ ("bytes", Perf.Trace.Int last.e_bytes); ("reason", Perf.Trace.Str "lru") ];
        t.resident <- List.rev rev_rest
      | [] -> assert false (* resident_bytes > 0 implies a parked entry *)
    done
  end

(* ----------------------------- fault path ----------------------------- *)

(* Declare the device dead (idempotent).  A mapping's device image is
   the current logical value of the data whenever a kernel has launched
   since it was mapped — earlier successful target regions may have
   computed into it regardless of its map type (think [target enter
   data] residency across an iteration loop) — so such entries are
   salvaged with raw copies before the environment is dropped.  Entries
   no kernel could have touched are skipped: for to/tofrom the host copy
   is identical, and for alloc/from the device image is uninitialised
   and salvaging it would clobber live host data.  Zero-copy entries
   need no salvage (the data already lives in host memory), and parked
   resident buffers hold nothing the host does not already have. *)
let declare_dead ?(salvage = true) t ~(reason : string) : unit =
  if not (is_dead t) then begin
    t.de_dead <- Some reason;
    tr_instant t "device_dead"
      ~args:
        [
          ("reason", Perf.Trace.Str reason);
          ("live_mappings", Perf.Trace.Int (List.length t.entries));
        ];
    (* [salvage:false] is for callers who already hold a newer image of
       every live mapping in host memory (the multi-device shard merger):
       copying the dead device's image back would clobber it. *)
    if salvage then
      List.iter
        (fun e ->
          if (not e.e_zerocopy) && t.driver.Driver.kernels_launched > e.e_launches_at_map then
            Driver.salvage_d2h t.driver ~host:t.host ~src:e.e_dev ~dst:e.e_host ~len:e.e_bytes)
        t.entries;
    t.entries <- [];
    t.resident <- [];
    t.resident_bytes <- 0
  end

let find_containing t (haddr : Addr.t) ~bytes =
  List.find_opt
    (fun e ->
      Addr.same_space e.e_host haddr
      && Addr.off haddr >= Addr.off e.e_host
      && Addr.off haddr + bytes <= Addr.off e.e_host + e.e_bytes)
    t.entries

(* The entry an unmap of [haddr] releases: the one mapped at exactly that
   address, else the first containing it.  Containment alone is not
   enough when maps overlap (two sessions sharing slices of one pool):
   the first containing entry can be the other slice. *)
let find_release t (haddr : Addr.t) =
  match List.find_opt (fun e -> Addr.equal e.e_host haddr) t.entries with
  | Some e -> Some e
  | None -> find_containing t haddr ~bytes:1

(* Translate a host address inside a mapped range to its device image.
   On a dead device the host address is its own image: the fallback
   path works directly on host memory.  (For zero-copy entries the
   translation is the identity, since e_dev aliases e_host.) *)
let lookup t (haddr : Addr.t) : Addr.t option =
  if is_dead t then Some haddr
  else
    match find_containing t haddr ~bytes:1 with
    | Some e -> Some (Addr.add e.e_dev (Addr.off haddr - Addr.off e.e_host))
    | None -> None

let lookup_exn t haddr =
  match lookup t haddr with
  | Some d -> d
  | None -> map_error "host address %s is not mapped on the device" (Addr.show haddr)

let is_present t haddr ~bytes = (not (is_dead t)) && find_containing t haddr ~bytes <> None

let dev_of e (haddr : Addr.t) = Addr.add e.e_dev (Addr.off haddr - Addr.off e.e_host)

(* Decide the transfer mode for a cold map: the forced run-level mode,
   or under [Auto] the per-buffer policy.  A map from a stream task
   ([async]) never elides, since an in-flight range can never be proven
   clean: forced elision copies there, as the policy's [i_async] rule
   does under [Auto]. *)
let resolve_mode ?(async = false) t (haddr : Addr.t) ~(bytes : int) ~(mt : map_type)
    ~(always : bool) : Mempolicy.decision =
  let key = buffer_key haddr ~bytes in
  match t.de_mode with
  | Mempolicy.Forced Mempolicy.Elide when async -> Mempolicy.forced t.policy ~key Mempolicy.Copy
  | Mempolicy.Forced m -> Mempolicy.forced t.policy ~key m
  | Mempolicy.Auto ->
    Mempolicy.decide t.policy ~key
      {
        Mempolicy.i_bytes = bytes;
        i_needs_h2d = (match mt with To | Tofrom -> true | Alloc | From -> false);
        i_needs_d2h = (match mt with From | Tofrom -> true | Alloc | To -> false);
        i_always = always;
        i_pending = async_pending t haddr ~bytes;
        i_async = async;
        i_zerocopy_safe = (match mt with Tofrom | From -> true | To | Alloc -> false);
        i_can_zerocopy_if_readonly = equal_map_type mt To;
        i_revivable = peek_resident t haddr ~bytes;
        i_host_digest = lazy (digest_host t ~off:(Addr.off haddr) ~len:bytes);
      }

(* Pin a host range for zero-copy: no device buffer, no copies; the
   range is advertised to the stream dependency tracker so overlapping
   async work serializes against it. *)
let map_zerocopy t (haddr : Addr.t) ~(bytes : int) (mt : map_type) : Addr.t =
  (* A from map's device image is born zero-filled (cuMemAlloc zeroes),
     and the copying runtime overwrites the full host extent on the
     final release — so presenting that zero image in place keeps the
     pinned path bit-identical even for kernels that read before they
     write, or write only part of the buffer. *)
  if equal_map_type mt From then Bytes.fill t.host.Mem.data (Addr.off haddr) bytes '\000';
  Driver.host_register t.driver ~host:t.host ~addr:haddr ~bytes;
  let e = fresh_entry t ~haddr ~bytes ~dev:haddr ~mt ~mode:Mempolicy.Zerocopy in
  e.e_pin_id <- Option.value ~default:(-1) (Driver.pin_id_of t.driver haddr);
  snapshot_map_counters t e;
  register_pinned t haddr ~bytes;
  t.entries <- e :: t.entries;
  tr_mem t "zerocopy_map" ~args:[ ("bytes", Perf.Trace.Int bytes) ];
  haddr

(* A cold map with a device buffer: drop the parked buffers the range
   overlaps (when buffers park at all), allocate, record the entry in
   [mode] and copy a to/tofrom image in. *)
let map_cold ?stream t (haddr : Addr.t) ~(bytes : int) (mt : map_type) ~(mode : Mempolicy.mode) :
    Addr.t =
  try
    if parking_possible t then drop_resident_overlapping t haddr ~bytes;
    let dev = guard t ~label:"map_alloc" (fun () -> Driver.mem_alloc t.driver bytes) in
    let e = fresh_entry t ~haddr ~bytes ~dev ~mt ~mode in
    snapshot_map_counters t e;
    (match mt with
    | To | Tofrom ->
      guard t ~label:"map_h2d" (fun () ->
          Driver.memcpy_h2d ?stream t.driver ~host:t.host ~src:haddr ~dst:dev ~len:bytes);
      mark_synced t e
    | Alloc | From -> ());
    t.entries <- e :: t.entries;
    dev
  with Resilience.Device_dead reason ->
    declare_dead t ~reason;
    haddr

(* Map a host range; returns the corresponding device address.  With
   [stream] the map is made from inside that stream's task: its copies
   are enqueued there (memory effects eager, costs on the stream's
   timeline), while alloc and pinning stay synchronous CPU-side calls,
   and the mode is never elide ([resolve_mode]). *)
let map ?(always = false) ?stream t (haddr : Addr.t) ~(bytes : int) (mt : map_type) : Addr.t =
  if bytes <= 0 then map_error "mapping of %d bytes" bytes;
  if is_dead t then haddr
  else
    match find_containing t haddr ~bytes with
    | Some e -> (
      e.e_refcount <- e.e_refcount + 1;
      (* map(always, to:) transfers even when the range is present *)
      (match mt with
      | (To | Tofrom) when always && not e.e_zerocopy -> (
        try
          guard t ~label:"map_h2d" (fun () ->
              Driver.memcpy_h2d ?stream t.driver ~host:t.host ~src:haddr ~dst:(dev_of e haddr)
                ~len:bytes);
          if Addr.equal haddr e.e_host && bytes = e.e_bytes then mark_synced t e
        with Resilience.Device_dead reason -> declare_dead t ~reason)
      | _ -> ());
      if is_dead t then haddr else dev_of e haddr)
    | None -> (
      let d = resolve_mode ~async:(stream <> None) t haddr ~bytes ~mt ~always in
      emit_policy_decide t ~haddr ~bytes d;
      match d.Mempolicy.d_mode with
      | Mempolicy.Zerocopy ->
        (* Unified memory: pin the range and let the kernel address it in
           place.  No device buffer, no copies in either direction. *)
        map_zerocopy t haddr ~bytes mt
      | Mempolicy.Elide -> (
        let revived =
          if not always then
            (* only to/tofrom maps may revive a parked buffer: alloc/from
               expect an uninitialised device image, which a reused buffer
               would not provide *)
            match mt with To | Tofrom -> take_resident t haddr ~bytes | Alloc | From -> None
          else None
        in
        match revived with
        | Some e -> (
          e.e_refcount <- 1;
          e.e_launches_at_map <- t.driver.Driver.kernels_launched;
          snapshot_map_counters t e;
          if (not (async_pending t e.e_host ~bytes:e.e_bytes)) && images_agree t e then begin
            (* resident and clean on both sides: the h2d is a no-op *)
            t.elided_h2d <- t.elided_h2d + 1;
            tr_mem t "elide_h2d" ~args:[ ("bytes", Perf.Trace.Int e.e_bytes) ];
            t.entries <- e :: t.entries;
            dev_of e haddr
          end
          else if async_pending t e.e_host ~bytes:e.e_bytes then begin
            (* still in flight: settle any queued work on the range, then
               refresh the reused buffer with a real copy *)
            async_sync_range t e.e_host ~bytes:e.e_bytes;
            try
              guard t ~label:"map_h2d" (fun () ->
                  Driver.memcpy_h2d t.driver ~host:t.host ~src:e.e_host ~dst:e.e_dev
                    ~len:e.e_bytes);
              mark_synced t e;
              t.entries <- e :: t.entries;
              dev_of e haddr
            with Resilience.Device_dead reason ->
              declare_dead t ~reason;
              haddr
          end
          else (
            (* stale: move only the dirty pages when the per-page digests
               prove the remainder still agrees, else the whole extent *)
            try
              (match partial_transfer t e ~label:"map_h2d" `H2d with
              | Some pages ->
                t.elided_h2d_pages <- t.elided_h2d_pages + pages;
                tr_mem t "elide_h2d_pages"
                  ~args:
                    [ ("bytes", Perf.Trace.Int e.e_bytes); ("pages", Perf.Trace.Int pages) ]
              | None ->
                guard t ~label:"map_h2d" (fun () ->
                    Driver.memcpy_h2d t.driver ~host:t.host ~src:e.e_host ~dst:e.e_dev
                      ~len:e.e_bytes);
                mark_synced t e);
              t.entries <- e :: t.entries;
              dev_of e haddr
            with Resilience.Device_dead reason ->
              declare_dead t ~reason;
              haddr))
        | None -> map_cold t haddr ~bytes mt ~mode:Mempolicy.Elide)
      | Mempolicy.Copy -> map_cold ?stream t haddr ~bytes mt ~mode:Mempolicy.Copy)

(* Unmap (end of construct / target exit data).  The map type decides
   whether data flows back on the final release.  With [stream] the
   release is made from inside that stream's task, which is the work in
   flight on the range: its copies are enqueued on the stream.
   Releasing a range while other queued stream work still touches it
   would free storage in flight: a program bug (missing taskwait),
   reported as such. *)
let unmap ?(always = false) ?stream t (haddr : Addr.t) (mt : map_type) : unit =
  let check_quiet e =
    if stream = None && e.e_refcount <= 1 && async_pending t e.e_host ~bytes:e.e_bytes then
      map_error "unmap of range %s with async work in flight (missing taskwait?)"
        (Addr.show e.e_host)
  in
  match find_release t haddr with
  | None -> if not (is_dead t) then map_error "unmap of address %s that is not mapped" (Addr.show haddr)
  | Some e when e.e_zerocopy ->
    check_quiet e;
    e.e_refcount <- e.e_refcount - 1;
    if e.e_refcount <= 0 then begin
      observe_release t e;
      unregister_pinned t e.e_host ~bytes:e.e_bytes;
      Driver.host_unregister t.driver e.e_host;
      t.entries <- List.filter (fun e' -> e' != e) t.entries
    end
  | Some e -> (
    check_quiet e;
    (* map(always, from:) copies back on every decrement, not only the
       final release *)
    (match mt with
    | (From | Tofrom) when always && e.e_refcount > 1 -> (
      try
        guard t ~label:"unmap_d2h" (fun () ->
            Driver.memcpy_d2h ?stream t.driver ~host:t.host ~src:e.e_dev ~dst:e.e_host
              ~len:e.e_bytes);
        mark_synced t e
      with Resilience.Device_dead reason -> declare_dead t ~reason)
    | _ -> ());
    if not (is_dead t) then begin
      e.e_refcount <- e.e_refcount - 1;
      if e.e_refcount <= 0 then
        try
          let elidable = Mempolicy.equal_mode e.e_mode Mempolicy.Elide && not always in
          (* every from/tofrom branch leaves the entry synced at the
             current host image *)
          let synced_now =
            match mt with
            | From | Tofrom ->
              (if elidable && images_agree t e then begin
                 (* no kernel wrote the buffer and the host range is
                    untouched since the last sync: the d2h is a no-op *)
                 t.elided_d2h <- t.elided_d2h + 1;
                 tr_mem t "elide_d2h" ~args:[ ("bytes", Perf.Trace.Int e.e_bytes) ]
               end
               else
                 match if elidable then partial_transfer t e ~label:"unmap_d2h" `D2h else None with
                 | Some pages ->
                   t.elided_d2h_pages <- t.elided_d2h_pages + pages;
                   tr_mem t "elide_d2h_pages"
                     ~args:[ ("bytes", Perf.Trace.Int e.e_bytes); ("pages", Perf.Trace.Int pages) ]
                 | None ->
                   guard t ~label:"unmap_d2h" (fun () ->
                       Driver.memcpy_d2h ?stream t.driver ~host:t.host ~src:e.e_dev
                         ~dst:e.e_host ~len:e.e_bytes);
                   mark_synced t e);
              true
            | Alloc | To -> false
          in
          observe_release ~synced_now t e;
          t.entries <- List.filter (fun e' -> e' != e) t.entries;
          (* under the automatic policy, a synced copy-mode buffer parks
             too: without a resident image the cost model could never
             find elision cheaper than the copy it just made, so the
             cold copy decision would be self-perpetuating *)
          if
            Mempolicy.equal_mode e.e_mode Mempolicy.Elide
            || (is_auto t && e.e_synced)
          then park_resident t e
          else Driver.mem_free t.driver e.e_dev
        with Resilience.Device_dead reason ->
          (* declare_dead salvages this still-registered from/tofrom entry,
             completing the copy-back the retries could not *)
          declare_dead t ~reason
    end)

(* Page-wise [target update] elision over a sub-range of an elide-mode
   entry: skip the provably-clean pages, transfer the dirty ones (only
   their intersection with the requested range), and refresh the page
   digests of fully-covered transferred pages — after the copy those
   pages' images agree again, so a repeated update of the same range is
   free.  Returns [None] when per-page reasoning is unavailable or not
   worth it (the caller falls back to the full-range copy, which is
   always sound: stale page digests only ever read as dirty). *)
let update_partial t e (dir : [ `H2d | `D2h ]) ~(rel_off : int) ~(len : int) : int option =
  match dirty_pages t e with
  | None -> None
  | Some dirty ->
    let pb = t.de_page_bytes in
    let p0 = rel_off / pb and p1 = (rel_off + len - 1) / pb in
    let label = match dir with `H2d -> "update_to" | `D2h -> "update_from" in
    let pds = match e.e_page_digests with Some a -> a | None -> assert false in
    let to_copy = ref [] in
    for p = p1 downto p0 do
      if dirty.(p) then to_copy := p :: !to_copy
    done;
    let n_range = p1 - p0 + 1 in
    let n_copy = List.length !to_copy in
    if n_copy = 0 then Some n_range
    else begin
      let cost =
        List.fold_left
          (fun a p ->
            let lo = max rel_off (p * pb) and hi = min (rel_off + len) ((p + 1) * pb) in
            a +. transfer_cost_ns t (hi - lo))
          0.0 !to_copy
      in
      if n_copy = n_range || cost >= transfer_cost_ns t len then None
      else begin
        List.iter
          (fun p ->
            let lo = max rel_off (p * pb) and hi = min (rel_off + len) ((p + 1) * pb) in
            run_copy t e ~label dir ~off:lo ~len:(hi - lo);
            (* fully-covered page: images agree again at the current host
               content; partially-covered: agreement unknown *)
            let page_lo = p * pb and page_hi = min e.e_bytes ((p + 1) * pb) in
            if lo = page_lo && hi = page_hi then pds.(p) <- Some (page_digest t e p)
            else pds.(p) <- None)
          !to_copy;
        Some (n_range - n_copy)
      end
    end

let update_to t (haddr : Addr.t) ~(bytes : int) : unit =
  if is_dead t then ()
  else
    match find_containing t haddr ~bytes with
    | None -> map_error "target update to: range not mapped"
    | Some e -> (
      (* `target update` on a range mid-flight in a stream: the queued
         work must complete first (emits a cat:"async" range_sync). *)
      async_sync_range t haddr ~bytes;
      if not e.e_zerocopy then
        try
          match update_partial t e `H2d ~rel_off:(Addr.off haddr - Addr.off e.e_host) ~len:bytes with
          | Some pages ->
            t.elided_h2d_pages <- t.elided_h2d_pages + pages;
            if pages * t.de_page_bytes >= bytes then begin
              (* every covered page was clean: the whole update is a no-op *)
              t.elided_update_to <- t.elided_update_to + 1;
              tr_mem t "elide_update_to" ~args:[ ("bytes", Perf.Trace.Int bytes) ]
            end
          | None ->
            guard t ~label:"update_to" (fun () ->
                Driver.memcpy_h2d t.driver ~host:t.host ~src:haddr ~dst:(dev_of e haddr) ~len:bytes);
            if Addr.equal haddr e.e_host && bytes = e.e_bytes then mark_synced t e
        with Resilience.Device_dead reason -> declare_dead t ~reason)

let update_from t (haddr : Addr.t) ~(bytes : int) : unit =
  if is_dead t then ()
  else
    match find_containing t haddr ~bytes with
    | None -> map_error "target update from: range not mapped"
    | Some e -> (
      async_sync_range t haddr ~bytes;
      if not e.e_zerocopy then
        try
          match update_partial t e `D2h ~rel_off:(Addr.off haddr - Addr.off e.e_host) ~len:bytes with
          | Some pages ->
            t.elided_d2h_pages <- t.elided_d2h_pages + pages;
            if pages * t.de_page_bytes >= bytes then begin
              t.elided_update_from <- t.elided_update_from + 1;
              tr_mem t "elide_update_from" ~args:[ ("bytes", Perf.Trace.Int bytes) ]
            end
          | None ->
            guard t ~label:"update_from" (fun () ->
                Driver.memcpy_d2h t.driver ~host:t.host ~src:(dev_of e haddr) ~dst:haddr ~len:bytes);
            if Addr.equal haddr e.e_host && bytes = e.e_bytes then mark_synced t e
        with Resilience.Device_dead reason -> declare_dead t ~reason)

(* ------------------------- multi-device support ------------------------- *)

(* The extent of the present-table entry containing a host address: what
   the shard planner broadcasts to the other devices. *)
type extent = { x_host : Addr.t; x_bytes : int; x_zerocopy : bool }

let find_extent t (haddr : Addr.t) : extent option =
  if is_dead t then None
  else
    match find_containing t haddr ~bytes:1 with
    | None -> None
    | Some e -> Some { x_host = e.e_host; x_bytes = e.e_bytes; x_zerocopy = e.e_zerocopy }

(* Bring the host image of the containing entry up to date (d2h) unless
   it provably already is.  The shard planner calls this before
   broadcasting an operand to secondary devices, so a range kept
   resident by an enclosing [target data] still broadcasts its current
   value rather than the stale host bytes. *)
let refresh_host t (haddr : Addr.t) : unit =
  if not (is_dead t) then
    match find_containing t haddr ~bytes:1 with
    | None -> ()
    | Some e when e.e_zerocopy -> ()
    | Some e ->
      (* Synced entries know exactly whether a kernel has written the
         allocation since; unsynced ones (alloc/from: device image born
         uninitialised) hold live data only once some kernel has run —
         the same criterion the death-salvage path uses. *)
      let may_hold_live_data =
        if e.e_synced then not (device_unwritten t e)
        else t.driver.Driver.kernels_launched > e.e_launches_at_map
      in
      if may_hold_live_data then (
        try
          guard t ~label:"shard_refresh_d2h" (fun () ->
              Driver.memcpy_d2h t.driver ~host:t.host ~src:e.e_dev ~dst:e.e_host ~len:e.e_bytes);
          mark_synced t e
        with Resilience.Device_dead reason -> declare_dead t ~reason)

let active_mappings t = List.length t.entries

let resident_buffers t = List.length t.resident

let resident_bytes t = t.resident_bytes

let set_resident_cap_bytes t cap =
  if cap < 0 then invalid_arg "Dataenv.set_resident_cap_bytes: negative budget";
  t.resident_cap_bytes <- cap;
  (* Shrinking the budget applies immediately: evict LRU down to it. *)
  while t.resident_bytes > t.resident_cap_bytes do
    match List.rev t.resident with
    | last :: rev_rest ->
      Driver.mem_free t.driver last.e_dev;
      t.resident_bytes <- t.resident_bytes - last.e_bytes;
      tr_mem t "resident_evict"
        ~args:[ ("bytes", Perf.Trace.Int last.e_bytes); ("reason", Perf.Trace.Str "budget") ];
      t.resident <- List.rev rev_rest
    | [] -> assert false
  done
