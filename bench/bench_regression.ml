(* bench_regression — gate CI on the headline ratios of the smoke
   benches:

     dune exec bench/bench_regression.exe -- <baseline_dir> <fresh_dir>

   Every BENCH_*.json is one bench envelope (bench/baselines/README.md):

     { "bench": ..., "smoke": bool, "bit_identical": bool,
       "headlines": [ { "metric": name, "value": ratio }, ... ],
       "detail": { ... } }

   For each BENCH_*.json in <baseline_dir> the fresh file of the same
   name must exist, carry the same "smoke" flag, and have
   "bit_identical": true (so must the baseline).  Headlines are matched
   by metric name and each fresh value must reach 85% of its baseline;
   headlines are ratios where higher is better, so the gate is portable
   across machines.  A file or headline present on one side only fails.
   "detail" is never read, so a new bench needs only a baseline file.

   Exit status: 0 PASS, 1 FAIL, 2 usage. *)

let tolerance = 0.85

let fail = ref false

let say fmt = Printf.printf fmt

let problem fmt =
  Printf.ksprintf
    (fun msg ->
      say "bench_regression: %s\n" msg;
      fail := true)
    fmt

type envelope = { smoke : bool; bit_identical : bool; headlines : (string * float) list }

let bench_files dir =
  match Sys.readdir dir with
  | exception Sys_error msg ->
    problem "%s" msg;
    []
  | names ->
    Array.to_list names
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare

let load path =
  let open Perf.Json in
  let field key conv doc = Option.bind (member key doc) conv in
  let headline h =
    match (field "metric" to_string_opt h, field "value" to_number_opt h) with
    | Some metric, Some value -> Some (metric, value)
    | _ -> None
  in
  match of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Error msg ->
    problem "%s: unparseable: %s" path msg;
    None
  | Ok doc -> (
    match
      ( field "smoke" to_bool_opt doc,
        field "bit_identical" to_bool_opt doc,
        field "headlines" to_list_opt doc )
    with
    | Some smoke, Some bit_identical, Some hs when List.for_all (fun h -> headline h <> None) hs ->
      Some { smoke; bit_identical; headlines = List.filter_map headline hs }
    | _ ->
      problem "%s: not a bench envelope" path;
      None)

(* One headline: fresh must reach [tolerance] x baseline. *)
let gate ~file ~metric ~baseline ~fresh =
  let floor = baseline *. tolerance in
  let ok = fresh >= floor in
  say "  %-22s %-24s baseline %6.3f  fresh %6.3f  floor %6.3f  %s\n" file metric baseline fresh
    floor
    (if ok then "ok" else "REGRESSION");
  if not ok then fail := true

let compare_file ~baseline_dir ~fresh_dir file =
  let base_path = Filename.concat baseline_dir file in
  let fresh_path = Filename.concat fresh_dir file in
  if not (Sys.file_exists fresh_path) then (
    problem "%s: missing from the fresh run" fresh_path;
    0)
  else
    match (load base_path, load fresh_path) with
    | Some b, Some f ->
      if b.smoke <> f.smoke then
        problem "%s: smoke=%b but the baseline has smoke=%b" fresh_path f.smoke b.smoke;
      List.iter
        (fun (path, e) -> if not e.bit_identical then problem "%s: bit_identical is false" path)
        [ (base_path, b); (fresh_path, f) ];
      List.iter
        (fun (metric, _) ->
          if not (List.mem_assoc metric b.headlines) then
            problem "%s: headline %S has no baseline" fresh_path metric)
        f.headlines;
      List.iter
        (fun (metric, baseline) ->
          match List.assoc_opt metric f.headlines with
          | Some fresh -> gate ~file ~metric ~baseline ~fresh
          | None -> problem "%s: headline %S missing from the fresh run" fresh_path metric)
        b.headlines;
      List.length b.headlines
    | _ -> 0

let () =
  let baseline_dir, fresh_dir =
    match Sys.argv with
    | [| _; b; f |] -> (b, f)
    | _ ->
      prerr_endline "usage: bench_regression <baseline_dir> <fresh_dir>";
      exit 2
  in
  say "bench_regression: fresh %s vs baseline %s (tolerance %.0f%%)\n" fresh_dir baseline_dir
    (100.0 *. tolerance);
  let baselines = bench_files baseline_dir in
  if baselines = [] then problem "%s: no BENCH_*.json baselines" baseline_dir;
  List.iter
    (fun file ->
      if not (List.mem file baselines) then
        problem "%s: no baseline for this file" (Filename.concat fresh_dir file))
    (bench_files fresh_dir);
  let gated =
    List.fold_left (fun n file -> n + compare_file ~baseline_dir ~fresh_dir file) 0 baselines
  in
  if !fail then begin
    say "bench_regression: FAIL\n";
    exit 1
  end;
  say "bench_regression: PASS (%d headlines)\n" gated
