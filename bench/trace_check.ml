(* trace_check — validate that a Chrome-trace JSON file emitted by the
   tracing subsystem has the shape the paper's launch model promises:
   the three launch phases (load, parameter preparation, launch) as
   begin/end span pairs, at least one transfer event carrying a byte
   count, and JIT-cache hit/miss information.

     dune exec bench/trace_check.exe -- [--expect-elision] [--expect-serve]
                                        [--expect-devices N] [--expect-policy] out.json

   With --expect-elision, additionally requires at least one cat:"mem"
   elide_h2d/elide_d2h instant — the CI witness that the transfer-
   elision layer actually fired (the auto trace of bench autopolicy
   --smoke carries these).

   With --expect-policy, requires at least one cat:"mem" policy_decide
   instant.  Whenever policy_decide events are present at all, their
   consistency is validated: each names a device/off/bytes/mode/reason,
   and per (device, buffer) the decision ordinals (args.seq) must be
   exactly 1..k — every cold map of a buffer gets exactly one decision,
   none dropped, none duplicated.

   With --expect-serve, requires cat:"serve" request-lifecycle events
   and validates their pairing; pairing is validated whenever serve
   events are present at all: every admitted request (args.req) must
   have exactly one matching complete, and must have been enqueued.

   Always, the one-copy-engine rule: no two copies of a device overlap
   in simulated time.  A synchronous copy is a cat:"transfer" B/E span
   (args.device, 0 when absent); an asynchronous one is an HtoD/DtoH
   Complete event.

   With --expect-devices N, requires the multi-device tid discipline:
   every launch/copy Complete ("X") event must carry a device ordinal
   in its args and sit on the device-qualified timeline
   tid = device*1000 + stream; no tid may interleave events of two
   devices, and all N devices must appear.

   Exits 0 when the schema holds, 1 with a diagnostic otherwise.  Used
   by bench/trace_smoke.sh. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("trace_check: FAIL: " ^ s); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let str_field key ev = Option.bind (Perf.Json.member key ev) Perf.Json.to_string_opt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let expect_elision = List.mem "--expect-elision" args in
  let expect_serve = List.mem "--expect-serve" args in
  let expect_policy = List.mem "--expect-policy" args in
  (* --expect-devices takes a value; strip the pair before the path scan *)
  let expect_devices, args =
    let rec scan acc = function
      | "--expect-devices" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> (Some n, List.rev_append acc rest)
        | _ ->
          prerr_endline "trace_check: --expect-devices needs a positive integer";
          exit 2)
      | [ "--expect-devices" ] ->
        prerr_endline "trace_check: --expect-devices needs a value";
        exit 2
      | a :: rest -> scan (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    scan [] args
  in
  let path =
    match List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args with
    | [ path ] -> path
    | _ ->
      prerr_endline
        "usage: trace_check [--expect-elision] [--expect-serve] [--expect-devices N] \
         [--expect-policy] <trace.json>";
      exit 2
  in
  if not (Sys.file_exists path) then fail "no such file: %s" path;
  let doc =
    match Perf.Json.of_string (read_file path) with
    | Ok v -> v
    | Error msg -> fail "%s does not parse as JSON: %s" path msg
  in
  let events =
    match Option.bind (Perf.Json.member "traceEvents" doc) Perf.Json.to_list_opt with
    | Some evs -> evs
    | None -> fail "%s has no \"traceEvents\" array" path
  in
  if events = [] then fail "traceEvents is empty";
  (* Every event must carry the mandatory Chrome trace fields. *)
  List.iteri
    (fun i ev ->
      (match str_field "name" ev with Some _ -> () | None -> fail "event %d has no name" i);
      (match str_field "ph" ev with
      | Some ("B" | "E" | "i" | "C") -> ()
      | Some "X" -> (
        (* Complete events must carry a non-negative duration. *)
        match Option.bind (Perf.Json.member "dur" ev) Perf.Json.to_number_opt with
        | Some dur when dur >= 0.0 -> ()
        | Some dur -> fail "event %d (X) has negative dur %f" i dur
        | None -> fail "event %d (X) has no numeric dur" i)
      | Some ph -> fail "event %d has unexpected phase %S" i ph
      | None -> fail "event %d has no ph" i);
      match Option.bind (Perf.Json.member "ts" ev) Perf.Json.to_number_opt with
      | Some ts when ts >= 0.0 -> ()
      | Some ts -> fail "event %d has negative timestamp %f" i ts
      | None -> fail "event %d has no numeric ts" i)
    events;
  (* The three launch phases, as balanced begin/end pairs. *)
  let count ~cat ~name ~ph =
    List.length
      (List.filter
         (fun ev ->
           str_field "cat" ev = Some cat && str_field "name" ev = Some name
           && str_field "ph" ev = Some ph)
         events)
  in
  List.iter
    (fun phase ->
      let b = count ~cat:"launch" ~name:phase ~ph:"B" in
      let e = count ~cat:"launch" ~name:phase ~ph:"E" in
      if b = 0 then fail "no \"%s\" launch-phase span" phase;
      if b <> e then fail "unbalanced \"%s\" spans: %d begins, %d ends" phase b e)
    [ "load"; "parameter_preparation"; "launch" ];
  (* At least one transfer with a positive byte count. *)
  let transfer_bytes ev =
    if str_field "cat" ev = Some "transfer" && str_field "ph" ev = Some "B" then
      Option.bind (Perf.Json.member "args" ev) (fun args ->
          Option.bind (Perf.Json.member "bytes" args) Perf.Json.to_number_opt)
    else None
  in
  (match List.filter_map transfer_bytes events with
  | [] -> fail "no transfer events with byte counts"
  | bytes ->
    if not (List.for_all (fun b -> b > 0.0) bytes) then
      fail "transfer event with non-positive byte count");
  (* One copy engine per device: no two copies overlap.  Intervals are
     (start, end) in microseconds; back-to-back copies may differ by the
     rounding of the microsecond conversion. *)
  let num_field key ev = Option.bind (Perf.Json.member key ev) Perf.Json.to_number_opt in
  let device ev =
    Option.fold ~none:0 ~some:int_of_float
      (Option.bind (Perf.Json.member "args" ev) (num_field "device"))
  in
  let is_copy ev = match str_field "name" ev with Some ("HtoD" | "DtoH") -> true | _ -> false in
  let async_copies =
    List.filter_map
      (fun ev ->
        if str_field "ph" ev = Some "X" && str_field "cat" ev = Some "async" && is_copy ev then
          match (num_field "ts" ev, num_field "dur" ev) with
          | Some ts, Some dur -> Some (device ev, ts, ts +. dur)
          | _ -> None
        else None)
      events
  in
  let sync_copies =
    snd
      (List.fold_left
         (fun (opened, acc) ev ->
           match (str_field "cat" ev, str_field "ph" ev, num_field "ts" ev) with
           | Some "transfer", Some "B", Some b -> (Some (device ev, b), acc)
           | Some "transfer", Some "E", Some e -> (
             match opened with Some (d, b) -> (None, (d, b, e) :: acc) | None -> (None, acc))
           | _ -> (opened, acc))
         (None, []) events)
  in
  (* Sweep each device's copies by start, keeping the latest end seen
     so far. *)
  let copies = List.sort compare (async_copies @ sync_copies) in
  ignore
    (List.fold_left
       (fun prev (d, b, e) ->
         let last_end = match prev with Some (pd, l) when pd = d -> l | _ -> neg_infinity in
         if b < last_end -. 1e-6 then
           fail "device %d: the copy at [%f, %f] us overlaps an earlier one on its one copy engine"
             d b e;
         Some (d, Float.max last_end e))
       None copies);
  (* JIT-cache information: a cat="jit" event whose args carry the
     cache_hit verdict (jit_compile / jit_cache_hit / cubin_load). *)
  let has_cache_info =
    List.exists
      (fun ev ->
        str_field "cat" ev = Some "jit"
        && Option.bind (Perf.Json.member "args" ev) (fun args ->
               Option.bind (Perf.Json.member "cache_hit" args) Perf.Json.to_bool_opt)
           <> None)
      events
  in
  if not has_cache_info then fail "no JIT-cache hit/miss event";
  (* Closure-JIT compiles are per module load, never per launch: when
     present, there can be at most one closure_compile instant for each
     module-load span (a --no-jit trace legitimately has zero). *)
  let closure_compiles = count ~cat:"jit" ~name:"closure_compile" ~ph:"i" in
  let module_loads = count ~cat:"launch" ~name:"load" ~ph:"B" in
  if closure_compiles > module_loads then
    fail "%d closure_compile events for %d module loads (must be at most once per load)"
      closure_compiles module_loads;
  (* Elision evidence: at least one elided transfer on the mem timeline. *)
  let elisions =
    List.length
      (List.filter
         (fun ev ->
           str_field "cat" ev = Some "mem"
           &&
           match str_field "name" ev with Some ("elide_h2d" | "elide_d2h") -> true | _ -> false)
         events)
  in
  if expect_elision && elisions = 0 then fail "no elide_h2d/elide_d2h mem event";
  (* Memory-policy decisions: per (device, buffer), the decision
     ordinals must be exactly 1..k — one decision per cold map, none
     dropped, none duplicated — and each decision names a valid mode. *)
  let policy_decides =
    List.filter_map
      (fun ev ->
        if str_field "cat" ev = Some "mem" && str_field "name" ev = Some "policy_decide" then begin
          let args = Perf.Json.member "args" ev in
          let num key =
            Option.bind args (fun a -> Option.bind (Perf.Json.member key a) Perf.Json.to_number_opt)
          in
          let str key = Option.bind args (str_field key) in
          let get name = function
            | Some v -> v
            | None -> fail "policy_decide without args.%s" name
          in
          let mode = get "mode" (str "mode") in
          if not (List.mem mode [ "copy"; "elide"; "zerocopy" ]) then
            fail "policy_decide with unknown mode %S" mode;
          if get "reason" (str "reason") = "" then fail "policy_decide with empty reason";
          Some
            ( ( int_of_float (get "device" (num "device")),
                int_of_float (get "off" (num "off")),
                int_of_float (get "bytes" (num "bytes")) ),
              int_of_float (get "seq" (num "seq")) )
        end
        else None)
      events
  in
  if expect_policy && policy_decides = [] then fail "no cat=\"mem\" policy_decide event";
  let by_buffer = Hashtbl.create 16 in
  List.iter
    (fun (key, seq) ->
      let seqs = Option.value ~default:[] (Hashtbl.find_opt by_buffer key) in
      Hashtbl.replace by_buffer key (seq :: seqs))
    policy_decides;
  Hashtbl.iter
    (fun (dev, off, bytes) seqs ->
      let sorted = List.sort compare seqs in
      let expected = List.init (List.length sorted) (fun i -> i + 1) in
      if sorted <> expected then
        fail "policy_decide ordinals for device %d buffer 0x%x+%d are not 1..%d: [%s]" dev off
          bytes (List.length sorted)
          (String.concat "; " (List.map string_of_int sorted)))
    by_buffer;
  (* Serve request lifecycle: each cat:"serve" instant names its request
     in args.req; every admitted request needs exactly one complete, and
     an enqueue before it could be admitted at all. *)
  let serve_reqs name =
    List.filter_map
      (fun ev ->
        if str_field "cat" ev = Some "serve" && str_field "name" ev = Some name then
          match Option.bind (Perf.Json.member "args" ev) (str_field "req") with
          | Some req -> Some req
          | None -> fail "serve %S event without args.req" name
        else None)
      events
  in
  let admits = serve_reqs "admit" in
  let completes = serve_reqs "complete" in
  let enqueues = serve_reqs "enqueue" in
  if expect_serve && admits = [] then fail "no cat=\"serve\" admit events";
  List.iter
    (fun req ->
      let n = List.length (List.filter (( = ) req) completes) in
      if n <> 1 then fail "serve request %s admitted but completed %d times" req n;
      if not (List.mem req enqueues) then fail "serve request %s admitted without enqueue" req)
    admits;
  List.iter
    (fun req ->
      if not (List.mem req admits) then fail "serve request %s completed without admit" req)
    completes;
  (* Multi-device tid discipline: every stream-timeline Complete event
     (async copies and async/sharded launches) names its device and
     sits on tid = device*1000 + stream; a tid never carries events of
     two devices; all expected devices show up. *)
  (match expect_devices with
  | None -> ()
  | Some n ->
    let tid_device : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let seen_devices = Hashtbl.create 8 in
    let completes = ref 0 in
    List.iteri
      (fun i ev ->
        if str_field "ph" ev = Some "X" then begin
          incr completes;
          let num key =
            Option.bind (Perf.Json.member "args" ev) (fun args ->
                Option.bind (Perf.Json.member key args) Perf.Json.to_number_opt)
          in
          let tid =
            match Option.bind (Perf.Json.member "tid" ev) Perf.Json.to_number_opt with
            | Some t -> int_of_float t
            | None -> fail "event %d (X) has no tid" i
          in
          let device =
            match num "device" with
            | Some d -> int_of_float d
            | None -> fail "event %d (X) carries no device ordinal in args" i
          in
          let stream =
            match num "stream" with
            | Some s -> int_of_float s
            | None -> fail "event %d (X) carries no stream id in args" i
          in
          if device < 0 || device >= n then
            fail "event %d (X) names device %d outside the %d-device farm" i device n;
          if tid <> (device * 1000) + stream then
            fail "event %d (X): tid %d is not device-qualified (device %d stream %d wants %d)" i
              tid device stream ((device * 1000) + stream);
          (match Hashtbl.find_opt tid_device tid with
          | Some d when d <> device ->
            fail "tid %d interleaves devices %d and %d (event %d)" tid d device i
          | Some _ -> ()
          | None -> Hashtbl.add tid_device tid device);
          Hashtbl.replace seen_devices device ()
        end)
      events;
    if !completes = 0 then fail "--expect-devices: no Complete (X) launch/copy events at all";
    if Hashtbl.length seen_devices <> n then
      fail "--expect-devices %d: only %d device(s) appear in the trace" n
        (Hashtbl.length seen_devices));
  Printf.printf
    "trace_check: OK: %s (%d events, launch phases balanced, %d copies checked%s%s%s%s)\n" path
    (List.length events) (List.length copies)
    (if expect_elision then Printf.sprintf ", %d elided transfer(s)" elisions else "")
    (if policy_decides <> [] then
       Printf.sprintf ", %d policy decision(s) consistent" (List.length policy_decides)
     else "")
    (if admits <> [] then
       Printf.sprintf ", %d serve request(s) admit/complete paired" (List.length admits)
     else "")
    (match expect_devices with
    | Some n -> Printf.sprintf ", %d device timelines disciplined" n
    | None -> "")
