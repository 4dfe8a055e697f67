(* One benchmark run: set up a workload, run passes for the requested
   host time, and reduce them to the end-to-end and per-layer metrics.

   Untraced runs measure the end-to-end metrics.  Host times take the
   fastest pass (per op, for set-up): contention from other work on a
   shared machine only ever adds time, and slow phases last several
   passes, which a median does not outvote.  A traced run alternates
   untraced and traced passes (at least one of each): the per-layer
   host figures are medians over the traced passes, and the tracing
   overhead is the difference of the two kinds' fastest walls. *)

type summary = {
  workload : string;
  seed : int;
  traced : bool;
  passes : Workload.pass list;  (** run order *)
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** host-clock figures only from traced runs (0 otherwise) *)
  attempted : int;
  failed : int;
  digest : string;
  errors : string list;
}

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let fastest l = List.fold_left Float.min infinity l

let finite x = if Float.is_finite x then x else 0.0

let run ?(smoke = false) ~workload ~seed ~seconds ~traced () : summary =
  let w = Workload.prepare ~smoke ~seed workload in
  let t0 = Spans.now_ns () in
  let rec loop i acc =
    (* traced runs: even passes untraced, odd passes traced *)
    let p = Workload.pass w ~traced:(traced && i mod 2 = 1) in
    let acc = p :: acc in
    let elapsed = (Spans.now_ns () -. t0) /. 1e9 in
    if elapsed < seconds || (traced && i = 0) then loop (i + 1) acc else List.rev acc
  in
  let passes = loop 0 [] in
  let untraced = List.filter (fun p -> not p.Workload.p_traced) passes in
  let traced_passes = List.filter (fun p -> p.Workload.p_traced) passes in
  let wall ps = fastest (List.map (fun p -> p.Workload.p_wall_s) ps) in
  let setup_s =
    match w with
    | Workload.Fig4 _ ->
      (* per op the fastest over passes, summed over the ops of a pass *)
      let per_op = List.map (fun p -> p.Workload.p_setup_ns) untraced in
      List.fold_left ( +. ) 0.0
        (List.mapi (fun i _ -> fastest (List.map (fun l -> List.nth l i) per_op)) (List.hd per_op))
      /. 1e9
    | Workload.Serve_mixed _ -> fastest (List.concat_map (fun p -> p.Workload.p_setup_ns) passes) /. 1e9
  in
  (* the first pass only: later children of the same parent report ever
     larger top heaps under OCaml 5.1, whatever they allocate *)
  let heap_mb = (List.hd passes).Workload.p_peak_heap_mb in
  let attempted = List.fold_left (fun acc p -> acc + p.Workload.p_attempted) 0 passes in
  let failed = List.fold_left (fun acc p -> acc + p.Workload.p_failed) 0 passes in
  let digest = (List.hd passes).Workload.p_digest in
  let errors =
    List.sort_uniq compare (List.concat_map (fun p -> p.Workload.p_errors) passes)
    @
    if List.exists (fun p -> p.Workload.p_digest <> digest) passes then
      [ "simulated digest differs between passes of one run" ]
    else []
  in
  let sim = (List.hd (if traced_passes = [] then passes else traced_passes)).Workload.p_sim in
  let host_keys = List.sort_uniq compare (List.concat_map (fun p -> List.map fst p.Workload.p_host) traced_passes) in
  let host =
    List.map
      (fun k ->
        (k, median (List.map (fun p -> Option.value ~default:0.0 (List.assoc_opt k p.Workload.p_host)) traced_passes)))
      host_keys
  in
  let minst =
    match w with
    | Workload.Serve_mixed _ -> 0.0
    | Workload.Fig4 _ -> (List.hd untraced).Workload.p_insts /. 1e6 /. wall untraced
  in
  let derived =
    [
      ("sim_minst_per_s", minst);
      ("peak_heap_mb", heap_mb);
      ("failed_frac", float_of_int failed /. float_of_int (max 1 attempted));
      ("bench.trace_overhead_s", if traced then wall traced_passes -. wall untraced else 0.0);
    ]
  in
  let value_of sources name =
    finite (Option.value ~default:0.0 (List.find_map (fun s -> List.assoc_opt name s) sources))
  in
  let alloc_mb = median (List.map (fun p -> p.Workload.p_alloc_mb) untraced) in
  let end_to_end = [ ("wall_s", wall untraced); ("setup_s", setup_s); ("alloc_mb", alloc_mb) ] in
  {
    workload;
    seed;
    traced;
    passes;
    end_to_end = List.map (fun (m : Metrics.metric) -> (m.Metrics.m_name, value_of [ end_to_end ] m.Metrics.m_name)) Metrics.end_to_end;
    per_layer =
      List.map
        (fun (m : Metrics.metric) -> (m.Metrics.m_name, value_of [ derived; sim; host ] m.Metrics.m_name))
        Metrics.per_layer;
    attempted;
    failed;
    digest;
    errors;
  }

let correct s = s.failed = 0 && s.errors = []

(** The result line: the JSON object the benchmark prints last. *)
let result_json (s : summary) : Perf.Json.t =
  let metric (name, v) = (name, Perf.Json.Obj [ ("value", Perf.Json.Num v); ("unit", Perf.Json.Str (Metrics.find name).Metrics.m_unit) ]) in
  Perf.Json.Obj
    [
      ("correct", Perf.Json.Bool (correct s));
      ("attempted", Perf.Json.Num (float_of_int s.attempted));
      ("failed", Perf.Json.Num (float_of_int s.failed));
      ("metrics", Perf.Json.Obj (List.map metric (if s.traced then s.per_layer else s.end_to_end)));
    ]

let loop_kind = function "serve-mixed" -> "open loop" | _ -> "closed loop"

(** Human-readable report: every metric by name with its unit, the
    simulated end-to-end figures, the seed and the digest. *)
let print_report oc (s : summary) =
  let pr fmt = Printf.fprintf oc fmt in
  pr "# perfbench workload=%s seed=%d trace=%d\n" s.workload s.seed (if s.traced then 1 else 0);
  pr "# load: one thread, one op process at a time, %s%s\n" (loop_kind s.workload)
    (if s.workload = "serve-mixed" then
       " (Poisson arrivals on the simulated clock: the generator cannot run late on the host)"
     else "");
  pr "# passes: %d untraced, %d traced\n"
    (List.length (List.filter (fun p -> not p.Workload.p_traced) s.passes))
    (List.length (List.filter (fun p -> p.Workload.p_traced) s.passes));
  pr "# pass walls (s): %s\n"
    (String.concat " "
       (List.map (fun p -> Printf.sprintf "%.3f%s" p.Workload.p_wall_s (if p.Workload.p_traced then "t" else "")) s.passes));
  pr "# pass peak heaps (MB): %s\n"
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.1f" p.Workload.p_peak_heap_mb) s.passes));
  let row (name, v) =
    let m = Metrics.find name in
    pr "%-40s %18.6f %-10s %s\n" name v m.Metrics.m_unit m.Metrics.m_moves
  in
  pr "## end to end\n";
  List.iter row s.end_to_end;
  List.iter
    (fun name -> row (name, List.assoc name s.per_layer))
    (if s.workload = "serve-mixed" then [ "sim_s"; "req_per_s"; "req_p50_ms"; "req_p95_ms"; "req_count"; "peak_heap_mb"; "failed_frac" ]
     else [ "sim_s"; "ompi_vs_cuda_sim"; "sim_minst_per_s"; "peak_heap_mb"; "failed_frac" ]);
  if s.traced then begin
    pr "## per layer (host self time from traced passes; simulated figures repeat exactly)\n";
    List.iter row s.per_layer
  end;
  List.iter (fun e -> pr "error: %s\n" e) s.errors;
  pr "seed %d\n" s.seed;
  pr "digest %s\n" s.digest
