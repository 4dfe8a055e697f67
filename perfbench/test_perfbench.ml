(* Tests of the benchmark itself, on reduced ("smoke") workload sizes:
   the metric names it prints are the ones BENCHMARK.json declares, one
   seed repeats every simulated figure and digest exactly, and its spans
   nest and account for no more than the pass's wall time. *)

open Perfbench_lib

let run ?(traced = false) ~seed workload =
  Run.run ~smoke:true ~workload ~seed ~seconds:0.0 ~traced ()

let bench_json =
  lazy
    (let ic = open_in_bin "../BENCHMARK.json" in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     match Perf.Json.of_string text with Ok j -> j | Error e -> Alcotest.failf "BENCHMARK.json: %s" e)

let field name j =
  match Perf.Json.member name j with Some v -> v | None -> Alcotest.failf "BENCHMARK.json: no %s" name

let str name j = Option.get (Perf.Json.to_string_opt (field name j))

let declared key =
  List.map
    (fun m -> (str "name" m, str "unit" m, str "better" m))
    (Option.get (Perf.Json.to_list_opt (field key (Lazy.force bench_json))))

let registry (l : Metrics.metric list) =
  List.map (fun (m : Metrics.metric) -> (m.Metrics.m_name, m.Metrics.m_unit, Metrics.better_name m.Metrics.m_better)) l

let triple = Alcotest.(list (triple string string string))

let test_declared () =
  Alcotest.check triple "end_to_end" (registry Metrics.end_to_end) (declared "end_to_end");
  Alcotest.check triple "per_layer" (registry Metrics.per_layer) (declared "per_layer");
  let workloads =
    List.map (str "name") (Option.get (Perf.Json.to_list_opt (field "workloads" (Lazy.force bench_json))))
  in
  Alcotest.(check (list string)) "workloads" Workload.names workloads

(* The printed result line carries exactly the declared metrics, each
   with its declared unit. *)
let test_printed workload () =
  List.iter
    (fun (traced, key) ->
      let s = run ~traced ~seed:3 workload in
      Alcotest.(check bool) "correct" true (Run.correct s);
      let line = Perf.Json.to_string (Run.result_json s) in
      let j = match Perf.Json.of_string line with Ok j -> j | Error e -> Alcotest.fail e in
      let metrics = match field "metrics" j with Perf.Json.Obj kv -> kv | _ -> Alcotest.fail "metrics" in
      let printed =
        List.map (fun (name, v) -> (name, str "unit" v, Metrics.better_name (Metrics.find name).Metrics.m_better)) metrics
      in
      Alcotest.check triple key (declared key) printed;
      Alcotest.(check int) "failed" 0 (int_of_float (Option.get (Perf.Json.to_number_opt (field "failed" j)))))
    [ (false, "end_to_end"); (true, "per_layer") ]

let is_simulated name =
  let m = Metrics.find name in
  List.mem m.Metrics.m_unit [ "sim_s"; "sim_ms"; "sim_ns"; "sim_cycles"; "count"; "bytes"; "ratio"; "req/sim_s" ]
  && not (String.starts_with ~prefix:"bench." name)

let test_repeatable workload () =
  let a = run ~traced:true ~seed:5 workload and b = run ~traced:true ~seed:5 workload in
  Alcotest.(check string) "digest" a.Run.digest b.Run.digest;
  let sim s = List.filter (fun (n, _) -> is_simulated n) s.Run.per_layer in
  Alcotest.(check (list (pair string (float 0.0)))) "simulated metrics" (sim a) (sim b);
  let c = run ~seed:6 workload in
  Alcotest.(check bool) "another seed changes the digest" true (c.Run.digest <> a.Run.digest)

let test_spans workload () =
  let s = run ~traced:true ~seed:7 workload in
  List.iter
    (fun (p : Workload.pass) ->
      if p.Workload.p_traced then begin
        let spans = p.Workload.p_spans in
        Alcotest.(check bool) "spans recorded" true (spans <> []);
        Alcotest.(check bool) "spans nest" true (Spans.nested spans);
        List.iter
          (fun ((sp : Spans.span), self) ->
            if self < 0.0 then Alcotest.failf "%s: negative self time %f" sp.Spans.sp_name self)
          (Spans.self_times spans);
        let top = List.fold_left (fun acc sp -> acc +. Spans.duration sp) 0.0 (Spans.top_level spans) in
        Alcotest.(check bool) "top-level spans within wall_s" true (top /. 1e9 <= p.Workload.p_wall_s)
      end)
    s.Run.passes

let test_self_times () =
  let t = Spans.create ~on:true () in
  Spans.span t "op" (fun () ->
      Spans.span t "a" (fun () -> Spans.span t "a1" ignore);
      Spans.span t "b" ignore);
  (try Spans.span t "failing" (fun () -> failwith "boom") with Failure _ -> ());
  let spans = Spans.spans t in
  Alcotest.(check (list string)) "order" [ "op"; "a"; "a1"; "b"; "failing" ]
    (List.map (fun s -> s.Spans.sp_name) spans);
  Alcotest.(check bool) "nested" true (Spans.nested spans);
  Alcotest.(check (list string)) "top level" [ "a"; "b" ]
    (List.map (fun s -> s.Spans.sp_name) (Spans.top_level spans));
  List.iter (fun (_, self) -> Alcotest.(check bool) "self >= 0" true (self >= 0.0)) (Spans.self_times spans);
  let off = Spans.create ~on:false () in
  Alcotest.(check int) "disabled recorder" 42 (Spans.span off "x" (fun () -> 42));
  Alcotest.(check int) "nothing recorded" 0 (List.length (Spans.spans off))

let per_workload name f = List.map (fun w -> Alcotest.test_case (name ^ " " ^ w) `Quick (f w)) Workload.names

let () =
  Alcotest.run "perfbench"
    [
      ("metrics", Alcotest.test_case "registry matches BENCHMARK.json" `Quick test_declared :: per_workload "printed" test_printed);
      ("determinism", per_workload "same seed" test_repeatable);
      ("spans", Alcotest.test_case "self times" `Quick test_self_times :: per_workload "nesting" test_spans);
    ]
