(* Perf.Trace / Perf.Json / Perf.Chrome_trace unit tests: ring-buffer
   retention and drop accounting, span pairing, exception safety,
   JSON round-trips (bit-exact numbers) and the Chrome trace-event
   export's shape and fidelity to the ring. *)

open Perf

let make ?capacity () =
  let clock = Machine.Simclock.create () in
  (clock, Trace.create ?capacity clock)

(* ---------------- ring buffer ---------------- *)

let test_emit_and_read () =
  let clock, tr = make () in
  Trace.instant tr ~cat:"a" "first";
  Machine.Simclock.advance_ns clock 500.0;
  Trace.instant tr ~args:[ ("n", Trace.Int 7) ] ~cat:"a" "second";
  Alcotest.(check int) "length" 2 (Trace.length tr);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr);
  match Trace.events tr with
  | [ e1; e2 ] ->
    Alcotest.(check string) "oldest first" "first" e1.Trace.ev_name;
    Alcotest.(check (float 0.0)) "timestamp zero" 0.0 e1.Trace.ev_ts_ns;
    Alcotest.(check (float 0.0)) "timestamp advanced" 500.0 e2.Trace.ev_ts_ns;
    Alcotest.(check (option int)) "args preserved" (Some 7) (Trace.int_arg e2 "n")
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_ring_wraps () =
  let _, tr = make ~capacity:4 () in
  for i = 0 to 9 do
    Trace.instant tr ~args:[ ("i", Trace.Int i) ] ~cat:"w" "tick"
  done;
  Alcotest.(check int) "retains capacity" 4 (Trace.length tr);
  Alcotest.(check int) "drop count" 6 (Trace.dropped tr);
  let kept = List.filter_map (fun e -> Trace.int_arg e "i") (Trace.events tr) in
  Alcotest.(check (list int)) "newest survive, oldest first" [ 6; 7; 8; 9 ] kept

let test_clear () =
  let _, tr = make ~capacity:4 () in
  for _ = 0 to 9 do
    Trace.instant tr ~cat:"w" "tick"
  done;
  Trace.clear tr;
  Alcotest.(check int) "empty" 0 (Trace.length tr);
  Alcotest.(check int) "drops reset" 0 (Trace.dropped tr)

(* ---------------- spans ---------------- *)

let test_span_pairing () =
  let clock, tr = make () in
  Trace.begin_span tr ~args:[ ("file", Trace.Str "k1.cu") ] ~cat:"launch" "load";
  Machine.Simclock.advance_us clock 3.0;
  Trace.begin_span tr ~cat:"launch" "launch";
  Machine.Simclock.advance_us clock 2.0;
  Trace.end_span tr ~cat:"launch" "launch";
  Trace.end_span tr ~cat:"launch" "load";
  match Trace.spans tr with
  | [ inner; outer ] ->
    (* completion order: the nested span closes first *)
    Alcotest.(check string) "inner name" "launch" inner.Trace.sp_name;
    Alcotest.(check (float 0.0)) "inner duration" 2000.0 inner.Trace.sp_dur_ns;
    Alcotest.(check string) "outer name" "load" outer.Trace.sp_name;
    Alcotest.(check (float 0.0)) "outer duration" 5000.0 outer.Trace.sp_dur_ns;
    Alcotest.(check bool) "begin args kept" true
      (List.mem_assoc "file" outer.Trace.sp_args)
  | sps -> Alcotest.failf "expected 2 spans, got %d" (List.length sps)

let test_unmatched_end_skipped () =
  let _, tr = make () in
  Trace.end_span tr ~cat:"x" "stray";
  Trace.begin_span tr ~cat:"x" "ok";
  Trace.end_span tr ~cat:"x" "ok";
  Alcotest.(check int) "only the matched pair" 1 (List.length (Trace.spans tr))

exception Boom

let test_with_span_on_exception () =
  let _, tr = make () in
  (match Trace.with_span tr ~cat:"launch" "load" (fun () -> raise Boom) with
  | exception Boom -> ()
  | _ -> Alcotest.fail "exception must propagate");
  match Trace.events tr with
  | [ b; e ] ->
    Alcotest.(check bool) "begin kind" true (b.Trace.ev_kind = Trace.Begin);
    Alcotest.(check bool) "end emitted despite raise" true (e.Trace.ev_kind = Trace.End);
    Alcotest.(check bool) "end carries the error" true (Trace.str_arg e "error" <> None)
  | evs -> Alcotest.failf "expected begin+end, got %d events" (List.length evs)

let test_find_and_count () =
  let _, tr = make () in
  Trace.instant tr ~cat:"jit" "jit_compile";
  Trace.instant tr ~cat:"jit" "jit_cache_hit";
  Trace.instant tr ~cat:"mem" "mem_alloc";
  Alcotest.(check int) "by cat" 2 (Trace.count_events tr ~cat:"jit" ());
  Alcotest.(check int) "by cat+name" 1 (Trace.count_events tr ~cat:"jit" ~name:"jit_compile" ());
  Alcotest.(check int) "by name" 1 (List.length (Trace.find_events tr ~name:"mem_alloc" ()))

(* ---------------- JSON ---------------- *)

let test_json_round_trip () =
  let v =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t");
        ("n", Json.Num 1536.0);
        ("f", Json.Num 2.5);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ("l", Json.List [ Json.Num 1.0; Json.Str "two"; Json.Bool false ]);
        ("empty", Json.Obj []);
      ]
  in
  match Json.of_string (Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "round trip" true (v = v')
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg

(* Numbers print in the shortest form that reads back as the same float. *)
let test_json_number_digits () =
  List.iter
    (fun (f, want) -> Alcotest.(check string) want want (Json.to_string (Json.Num f)))
    [
      (5.784, "5.784"); (0.1, "0.1"); (1.5630, "1.563"); (-0.0, "-0"); (1536.0, "1536");
      (1e15, "1e+15");
    ];
  Alcotest.(check string) "17 digits when 15 lose bits" "0.30000000000000004"
    (Json.to_string (Json.Num (0.1 +. 0.2)))

let gen_finite_float : float QCheck.Gen.t =
  QCheck.Gen.(
    let specials =
      [
        0.0; -0.0; 0.1; 5.784; 1e15; -1e15; 9007199254740993.0; Float.epsilon; Float.max_float;
        -.Float.max_float; Float.min_float; Float.min_float /. 4.0 (* subnormal *);
        Int64.float_of_bits 1L (* smallest subnormal *);
        Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL (* largest subnormal *);
      ]
    in
    frequency [ (1, oneofl specials); (3, map Int64.float_of_bits ui64); (1, float) ])

let prop_json_number_round_trip =
  QCheck.Test.make ~name:"every finite float survives to_string/of_string bit-exactly" ~count:5000
    (QCheck.make ~print:(fun f -> Printf.sprintf "%h" f) gen_finite_float)
    (fun f ->
      QCheck.assume (Float.is_finite f);
      match Json.of_string (Json.to_string (Json.List [ Json.Num f ])) with
      | Ok (Json.List [ Json.Num g ]) -> Int64.bits_of_float g = Int64.bits_of_float f
      | _ -> false)

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.failf "%S should not parse" s
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v =
    match Json.of_string {|{"a": [1, 2], "b": {"c": "x"}, "d": true}|} with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse: %s" msg
  in
  Alcotest.(check (option bool)) "bool" (Some true) (Option.bind (Json.member "d" v) Json.to_bool_opt);
  Alcotest.(check (option string)) "nested string" (Some "x")
    (Option.bind (Json.member "b" v) (fun b -> Option.bind (Json.member "c" b) Json.to_string_opt));
  Alcotest.(check (option int)) "list length" (Some 2)
    (Option.map List.length (Option.bind (Json.member "a" v) Json.to_list_opt));
  Alcotest.(check bool) "missing member" true (Json.member "zz" v = None)

(* ---------------- Chrome export ---------------- *)

let test_chrome_export_shape () =
  let clock, tr = make () in
  Trace.begin_span tr ~args:[ ("bytes", Trace.Int 4096) ] ~cat:"transfer" "HtoD";
  Machine.Simclock.advance_us clock 10.0;
  Trace.end_span tr ~cat:"transfer" "HtoD";
  Trace.instant tr ~cat:"jit" "jit_compile";
  Trace.counter tr ~args:[ ("chunk_grabs", Trace.Int 3) ] ~cat:"kernel" "launch_counters";
  let doc =
    match Json.of_string (Chrome_trace.to_string tr) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  let phases =
    List.filter_map (fun e -> Option.bind (Json.member "ph" e) Json.to_string_opt) events
  in
  Alcotest.(check (list string)) "phases in order" [ "B"; "E"; "i"; "C" ] phases;
  (* Chrome timestamps are microseconds *)
  let ts =
    List.filter_map (fun e -> Option.bind (Json.member "ts" e) Json.to_number_opt) events
  in
  Alcotest.(check (list (float 0.0))) "ts in us" [ 0.0; 10.0; 10.0; 10.0 ] ts;
  (match List.nth_opt events 0 with
  | Some b ->
    Alcotest.(check (option string)) "cat" (Some "transfer")
      (Option.bind (Json.member "cat" b) Json.to_string_opt);
    Alcotest.(check (option (float 0.0))) "args.bytes" (Some 4096.0)
      (Option.bind (Json.member "args" b) (fun a ->
           Option.bind (Json.member "bytes" a) Json.to_number_opt))
  | None -> Alcotest.fail "no events");
  match Option.bind (Json.member "otherData" doc) (Json.member "droppedEvents") with
  | Some (Json.Num 0.0) -> ()
  | _ -> Alcotest.fail "otherData.droppedEvents missing or wrong"

(* ---------------- Complete ("X") events ---------------- *)

let test_complete_events () =
  let clock, tr = make () in
  Machine.Simclock.advance_us clock 5.0;
  (* the interval may start ahead of the current clock (enqueue time) *)
  Trace.complete tr ~tid:2 ~cat:"async" ~ts_ns:9000.0 ~dur_ns:3000.0 "HtoD"
    ~args:[ ("bytes", Trace.Int 4096) ];
  (match Trace.events tr with
  | [ e ] ->
    Alcotest.(check bool) "kind" true (e.Trace.ev_kind = Trace.Complete);
    Alcotest.(check (float 0.0)) "scheduled start, not clock" 9000.0 e.Trace.ev_ts_ns;
    Alcotest.(check (float 0.0)) "duration" 3000.0 e.Trace.ev_dur_ns;
    Alcotest.(check int) "timeline id" 2 e.Trace.ev_tid
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
  Alcotest.(check bool) "negative duration raises" true
    (match Trace.complete tr ~cat:"async" ~ts_ns:0.0 ~dur_ns:(-1.0) "bad" with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_complete_in_spans () =
  let clock, tr = make () in
  Trace.begin_span tr ~cat:"kernel" "launch";
  Machine.Simclock.advance_us clock 4.0;
  Trace.end_span tr ~cat:"kernel" "launch";
  Trace.complete tr ~tid:1 ~cat:"async" ~ts_ns:10000.0 ~dur_ns:2000.0 "DtoH";
  let spans = Trace.spans tr in
  Alcotest.(check int) "pair and Complete both reported" 2 (List.length spans);
  let sp = List.find (fun s -> s.Trace.sp_name = "DtoH") spans in
  Alcotest.(check (float 0.0)) "span start" 10000.0 sp.Trace.sp_ts_ns;
  Alcotest.(check (float 0.0)) "span duration" 2000.0 sp.Trace.sp_dur_ns

let test_chrome_export_complete () =
  let _, tr = make () in
  Trace.complete tr ~tid:3 ~cat:"async" ~ts_ns:2000.0 ~dur_ns:1500.0 "HtoD";
  let doc =
    match Json.of_string (Chrome_trace.to_string tr) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let e =
    match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
    | Some [ e ] -> e
    | _ -> Alcotest.fail "expected exactly one trace event"
  in
  let num k = Option.bind (Json.member k e) Json.to_number_opt in
  Alcotest.(check (option string)) "ph X" (Some "X")
    (Option.bind (Json.member "ph" e) Json.to_string_opt);
  (* Chrome wants microseconds *)
  Alcotest.(check (option (float 0.0))) "ts us" (Some 2.0) (num "ts");
  Alcotest.(check (option (float 0.0))) "dur us" (Some 1.5) (num "dur");
  Alcotest.(check (option (float 0.0))) "tid is the stream" (Some 3.0) (num "tid")

(* What a reader of the exported file sees is exactly the ring: one
   traceEvents entry per retained event, in order, with the same
   cat/name/ph/tid and ts/dur in microseconds.  Benches count fault and
   async events on the live ring, so this is what makes those counts
   the counts of the trace file. *)
let test_chrome_export_fidelity () =
  let clock, tr = make ~capacity:12 () in
  Trace.instant tr ~cat:"fault" "dropped_by_wrap";
  Trace.instant tr ~cat:"fault" "dropped_by_wrap";
  Machine.Simclock.advance_ns clock 1234.5678;
  Trace.begin_span tr ~args:[ ("bytes", Trace.Int 4096) ] ~cat:"transfer" "HtoD";
  Machine.Simclock.advance_ns clock 333.3;
  Trace.instant tr ~args:[ ("site", Trace.Str "launch") ] ~cat:"fault" "fault_injected";
  Trace.instant tr ~cat:"fault" "retry_backoff";
  Trace.end_span tr ~cat:"transfer" "HtoD";
  Trace.counter tr ~args:[ ("atomics", Trace.Int 16) ] ~cat:"kernel" "launch_counters";
  Trace.complete tr ~tid:1 ~cat:"async" ~ts_ns:1600.1 ~dur_ns:777.7 "HtoD";
  Trace.complete tr ~tid:3 ~cat:"async" ~ts_ns:1900.25 ~dur_ns:0.1 "kernel";
  Trace.complete tr ~tid:2 ~cat:"async" ~ts_ns:1e12 ~dur_ns:1.0 "DtoH";
  Machine.Simclock.advance_ns clock 0.7;
  Trace.instant tr ~cat:"fault" "host_fallback";
  Trace.instant tr ~cat:"fault" "device_dead";
  Trace.complete tr ~cat:"kernel" ~ts_ns:0.0 ~dur_ns:2.5 "host_span";
  Trace.instant tr ~cat:"mem" "mem_alloc";
  Alcotest.(check int) "ring wrapped" 2 (Trace.dropped tr);
  let exported =
    match Json.of_string (Chrome_trace.to_string tr) with
    | Ok doc -> (
      match Option.bind (Json.member "traceEvents" doc) Json.to_list_opt with
      | Some evs -> evs
      | None -> Alcotest.fail "no traceEvents array")
    | Error msg -> Alcotest.failf "export does not parse: %s" msg
  in
  let retained = Trace.events tr in
  Alcotest.(check int) "one entry per retained event" (List.length retained) (List.length exported);
  let ph = function
    | Trace.Begin -> "B"
    | Trace.End -> "E"
    | Trace.Instant -> "i"
    | Trace.Counter -> "C"
    | Trace.Complete -> "X"
  in
  List.iteri
    (fun i ((ev : Trace.event), e) ->
      let str k = Option.bind (Json.member k e) Json.to_string_opt in
      let num k = Option.bind (Json.member k e) Json.to_number_opt in
      let at what = Printf.sprintf "event %d %s" i what in
      Alcotest.(check (option string)) (at "cat") (Some ev.Trace.ev_cat) (str "cat");
      Alcotest.(check (option string)) (at "name") (Some ev.Trace.ev_name) (str "name");
      Alcotest.(check (option string)) (at "ph") (Some (ph ev.Trace.ev_kind)) (str "ph");
      let us ns = Some (ns /. 1000.0) in
      Alcotest.(check (option (float 0.0))) (at "tid")
        (Some (float_of_int ev.Trace.ev_tid))
        (num "tid");
      Alcotest.(check (option (float 0.0))) (at "ts") (us ev.Trace.ev_ts_ns) (num "ts");
      Alcotest.(check (option (float 0.0))) (at "dur")
        (if ev.Trace.ev_kind = Trace.Complete then us ev.Trace.ev_dur_ns else None)
        (num "dur"))
    (List.combine retained exported);
  let is_fault e = Option.bind (Json.member "cat" e) Json.to_string_opt = Some "fault" in
  Alcotest.(check int) "fault instants exported" 4 (List.length (List.filter is_fault exported))

let test_chrome_write_file () =
  let _, tr = make () in
  Trace.instant tr ~cat:"init" "device_init";
  let path = Filename.temp_file "trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome_trace.write_file path tr;
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.of_string s with
      | Ok doc -> Alcotest.(check bool) "file parses" true (Json.member "traceEvents" doc <> None)
      | Error msg -> Alcotest.failf "written file invalid: %s" msg)

let () =
  Alcotest.run "trace"
    [
      ( "ring",
        [
          Alcotest.test_case "emit and read back" `Quick test_emit_and_read;
          Alcotest.test_case "wrap-around drops oldest" `Quick test_ring_wraps;
          Alcotest.test_case "clear" `Quick test_clear;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nested pairing" `Quick test_span_pairing;
          Alcotest.test_case "unmatched end skipped" `Quick test_unmatched_end_skipped;
          Alcotest.test_case "with_span on exception" `Quick test_with_span_on_exception;
          Alcotest.test_case "find and count" `Quick test_find_and_count;
        ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_round_trip;
          Alcotest.test_case "shortest digits" `Quick test_json_number_digits;
          QCheck_alcotest.to_alcotest prop_json_number_round_trip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "complete events",
        [
          Alcotest.test_case "emit, read, negative dur" `Quick test_complete_events;
          Alcotest.test_case "reported as spans" `Quick test_complete_in_spans;
        ] );
      ( "chrome export",
        [
          Alcotest.test_case "event shape" `Quick test_chrome_export_shape;
          Alcotest.test_case "Complete as ph X" `Quick test_chrome_export_complete;
          Alcotest.test_case "one entry per ring event" `Quick test_chrome_export_fidelity;
          Alcotest.test_case "write_file" `Quick test_chrome_write_file;
        ] );
    ]
