(* The configuration-matrix oracle (test/oracle.ml) over its programs:

   - the committed pairwise table covers every pair of axis values;
   - each tier-1 program's default run matches its stripped host
     reference, and every table row, under both executors, meets
     checks 1-4 against that default run;
   - the fault matrix: every Polybench app under ten fault plans (the
     recovery classes: Recover, Fallback, Any), seed 7;
   - a QCheck property sampling the full product, executor included
     (QCHECK_LONG scales it). *)

open Polybench

(* Programs the table runs: both examples, the three Harness sources
   and the cheapest Polybench apps. *)
let tier1 : Oracle.program list =
  [ Oracle.example "dotprod.c"; Oracle.example "quickstart.c"; Oracle.gemm (); Oracle.dot ();
    Oracle.pipeline ~rows:64 () ]
  @ List.filter_map
      (fun name -> Option.map (fun a -> Oracle.polybench a) (Suite.find name))
      [ "3dconv"; "atax"; "gesummv" ]

(* One default run per program, shared by every check against it. *)
let defaults : (string, Oracle.obs) Hashtbl.t = Hashtbl.create 32

let default_of (p : Oracle.program) : Oracle.obs =
  match Hashtbl.find_opt defaults p.Oracle.name with
  | Some d -> d
  | None ->
    let d = p.Oracle.run Hostrt.Rt.default_config in
    Hashtbl.add defaults p.Oracle.name d;
    d

let no_violations label vs = Alcotest.(check (list string)) label [] vs

let test_table_covers_pairs () =
  let rows = Oracle.pairwise_rows in
  no_violations "every pair of axis values has a row"
    (Oracle.uncovered ~axes:Oracle.axis_keys rows);
  (* a value an axis gains without rows is caught *)
  let grown = List.mapi (fun i axis -> if i = 1 then axis @ [ "2" ] else axis) Oracle.axis_keys in
  Alcotest.(check bool) "a new streams value without rows is uncovered" true
    (Oracle.uncovered ~axes:grown rows <> [])

let test_program (p : Oracle.program) () =
  let default = default_of p in
  no_violations (p.Oracle.name ^ ": default run = host reference") (Oracle.anchor p default);
  no_violations
    (p.Oracle.name ^ ": the default point and every table row, both executors")
    (List.concat_map (Oracle.check_point p ~default) (Oracle.default_point :: Oracle.pairwise))

(* The fault matrix: every Polybench app under ten plans on the default
   configuration, each with the recovery evidence it must leave (the
   JIT-compile plan needs PTX mode to reach its site). *)
let fault_plans =
  Oracle.
    [
      plan "transfer:nth=1" Recover;
      plan "transfer:nth=2" Recover;
      plan "launch:nth=1" Recover;
      plan "load:nth=1" Recover;
      plan ~mode:Gpusim.Nvcc.Ptx "jit_compile:nth=1" Recover;
      plan "alloc:nth=1" Fallback;
      plan "launch:from=1" Fallback;
      plan "transfer:from=1" Fallback;
      plan "transfer:p=0.25" Any;
      plan "launch:p=0.5;transfer:p=0.1" Any;
    ]

let test_fault_matrix (app : Suite.app) () =
  let p = Oracle.polybench app in
  let default = default_of p in
  no_violations (p.Oracle.name ^ ": default run = host reference") (Oracle.anchor p default);
  List.iter
    (fun plan ->
      let pt = { Oracle.default_point with Oracle.plan } in
      no_violations
        (Printf.sprintf "%s @ %s" p.Oracle.name (Oracle.show pt))
        (Oracle.violations p ~default pt (p.Oracle.run (Oracle.config pt))))
    fault_plans

(* Any program at any point of the full product, either executor. *)
let point_gen : (int * string list * bool) QCheck.Gen.t =
  QCheck.Gen.(
    let* prog = int_bound (List.length tier1 - 1) in
    let* keys = flatten_l (List.map oneofl Oracle.axis_keys) in
    let* jit = bool in
    return (prog, keys, jit))

let prop_product =
  QCheck.Test.make ~name:"any program, any point of the product" ~count:8 ~long_factor:40
    (QCheck.make point_gen ~print:(fun (i, keys, jit) ->
         Printf.sprintf "%s @ %s jit=%b" (List.nth tier1 i).Oracle.name (String.concat " " keys)
           jit))
    (fun (i, keys, jit) ->
      let p = List.nth tier1 i and pt = Oracle.point_of_keys keys in
      match
        Oracle.violations p ~default:(default_of p) pt (p.Oracle.run (Oracle.config ~jit pt))
      with
      | [] -> true
      | vs -> QCheck.Test.fail_reportf "%s" (String.concat "\n" vs))

let () =
  Alcotest.run "oracle"
    [
      ( "table",
        [ Alcotest.test_case "pairwise table covers every pair" `Quick test_table_covers_pairs ] );
      ( "pairwise",
        List.map (fun p -> Alcotest.test_case p.Oracle.name `Quick (test_program p)) tier1 );
      ( "fault matrix",
        List.map
          (fun (app : Suite.app) ->
            Alcotest.test_case app.Suite.ap_name `Quick (test_fault_matrix app))
          (Suite.all @ Suite.extras) );
      ("product", [ QCheck_alcotest.to_alcotest prop_product ]);
    ]
