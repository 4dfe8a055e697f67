(* The configuration-matrix oracle (test/oracle) over its programs:

   - the committed pairwise table covers every pair of axis values;
   - each tier-1 program's default run matches its stripped host
     reference, and every table row, under both executors, meets
     checks 1-4 against that default run;
   - the fault matrix: every Polybench app under ten fault plans (the
     recovery classes: Recover, Fallback, Any), seed 7;
   - the cells the benches time but do not check: faults in queued
     stream work, on an int reduction and on an elided-path launch, and
     map(always) forcing the transfers elision would drop;
   - a QCheck property sampling the full product, executor included
     (QCHECK_LONG scales it). *)

open Polybench

(* Programs the table runs: both examples, the three Harness sources
   and the cheapest Polybench apps. *)
let tier1 : Oracle.program list =
  [ Oracle.example "dotprod.c"; Oracle.example "quickstart.c"; Oracle.gemm (); Oracle.dot ();
    Oracle.pipeline ~rows:64 (); Oracle.always_nowait () ]
  @ List.filter_map
      (fun name -> Option.map (fun a -> Oracle.polybench a) (Suite.find name))
      [ "3dconv"; "atax"; "gesummv" ]

(* One default run per program, shared by every check against it. *)
let defaults : (Oracle.program * Oracle.obs) list ref = ref []

let default_of (p : Oracle.program) : Oracle.obs =
  match List.assq_opt p !defaults with
  | Some d -> d
  | None ->
    let d = p.Oracle.run Hostrt.Rt.default_config in
    defaults := (p, d) :: !defaults;
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

(* [p] at [base] under each of [plans], against its anchored default
   run; [also] adds the evidence a cell owes beyond checks 1, 2 and 4. *)
let test_cell ?(also = fun _ -> []) (p : Oracle.program) (base : Oracle.point) plans () =
  let default = default_of p in
  no_violations (p.Oracle.name ^ ": default run = host reference") (Oracle.anchor p default);
  List.iter
    (fun plan ->
      let pt = { base with Oracle.plan } in
      let o = p.Oracle.run (Oracle.config pt) in
      no_violations
        (Printf.sprintf "%s @ %s" p.Oracle.name (Oracle.show pt))
        (Oracle.violations p ~default pt o @ also o))
    plans

let test_fault_matrix (app : Suite.app) () =
  test_cell (Oracle.polybench app) Oracle.default_point fault_plans ()

let elide = { Oracle.default_point with Oracle.mem = Hostrt.Mempolicy.(Forced Elide) }

let mem_events (o : Oracle.obs) name = Oracle.count o ~cat:"mem" name

(* Faults landing in queued stream work: recovery neither changes the
   answer nor leaves async state behind. *)
let test_overlap_faults =
  test_cell (Oracle.pipeline ())
    { Oracle.default_point with Oracle.streams = 4 }
    Oracle.[ plan "launch:nth=2" Recover; plan "transfer:from=3" Fallback ]

(* An int reduction is order-insensitive, so a retried launch and the
   sequential host fallback reproduce its bytes exactly. *)
let test_int_reduction_faults =
  test_cell (Oracle.dot_int ()) Oracle.default_point
    Oracle.[ plan "launch:nth=1,kind=transient" Recover; plan "launch:nth=1,kind=fatal" Fallback ]

(* A launch fault on the second, transfer-elided iteration retries on
   the fast path. *)
let test_elided_path_fault =
  test_cell
    ~also:(fun o -> if mem_events o "elide_h2d" >= 1 then [] else [ "no elided h2d" ])
    (Oracle.atax_replay ~n:32 ~iters:3)
    elide
    Oracle.[ plan "launch:nth=2" Recover ]

(* map(always, ...) forces every transfer under elision, and moves no
   result byte. *)
let test_map_always =
  let plain = Oracle.readscale ~n:32 ~iters:3 () in
  test_cell
    ~also:(fun o ->
      List.concat
        [
          (if mem_events o "elide_h2d" + mem_events o "elide_d2h" = 0 then []
           else [ "map(always) transfers were elided" ]);
          (if o.Oracle.o_out = (default_of plain).Oracle.o_out then []
           else [ "bits differ from the plain readscale" ]);
        ])
    (Oracle.readscale ~always:true ~n:32 ~iters:3 ())
    elide [ Oracle.no_fault ]

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
      ( "cells",
        [
          Alcotest.test_case "overlap faults in queued stream work" `Quick test_overlap_faults;
          Alcotest.test_case "int reduction faults" `Quick test_int_reduction_faults;
          Alcotest.test_case "elided-path launch fault" `Quick test_elided_path_fault;
          Alcotest.test_case "map(always) forces transfers" `Quick test_map_always;
        ] );
      ("product", [ QCheck_alcotest.to_alcotest prop_product ]);
    ]
