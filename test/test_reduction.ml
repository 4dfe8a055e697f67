(* GPU tree reductions, end to end (ROADMAP item 1).

   The translator lowers [reduction(op: v)] on combined constructs as a
   per-thread private accumulator, a per-team shared-memory tree reduce
   (log-step strides from the next power of two, a team barrier between
   levels, a [tid + s < n] guard for non-power-of-two team sizes) and a
   single thread-0 atomic publishing each team's partial value into the
   mapped result.  Because the simulator schedules threads cooperatively
   and runs blocks sequentially, the whole combine order is
   deterministic — so this suite can demand *bit* equality against a
   host-side model that replays the exact same order:

   - per-op differential tests: every operator over int and float, run
     with the closure JIT and with the tree-walking interpreter
     (--no-jit), comparing output bits, per-launch dynamic counters,
     cycle costs and simulated time between the two executors, and
     output bits against the order-exact host model (0 ulps);

   - a QCheck property over random sizes x num_teams x num_threads x
     thread_limit x dist_schedule chunk geometries, asserting the same
     0-ulp match against the model at each sampled geometry;

   - a geometry-invariance property: for integer reductions (associative
     and commutative in wrapping int32 arithmetic) changing the
     geometry may move simulated time but never the result bytes;

   - a cost-shape check: the tree publishes exactly one atomic per team
     (the naive per-thread lowering would publish one per thread). *)

open Gpusim
open Polybench
open Refmath

(* ---------------------------------------------------------------- *)
(* The operator table                                                 *)
(* ---------------------------------------------------------------- *)

let wrap32 (i : int) : int = Int32.to_int (Int32.of_int i)

(* One reduction operator: the pragma token, the C update statement the
   kernel loop runs, and the host-side mirrors of (a) that update, (b)
   the tree's pairwise combine and (c) the devrt publish atomic. *)
type fop = {
  f_tag : string;
  f_upd : string; (* C statement; [s] accumulator, [a[i]] element *)
  f_id : float;
  f_init : float;
  f_elem : int -> float;
  f_thread : float -> float -> float; (* mirrors f_upd *)
  f_comb : float -> float -> float; (* mirrors the tree combine *)
  f_pub : float -> float -> float; (* mirrors cudadev_reduce_* *)
}

let f01 cond = if cond then 1.0 else 0.0

let float_ops : fop list =
  [
    {
      f_tag = "+";
      f_upd = "s += a[i]";
      f_id = 0.0;
      f_init = 3.25;
      f_elem = (fun i -> r32 (float_of_int (((i * 7) mod 29) - 14) *. 0.0625));
      f_thread = ( +% );
      f_comb = ( +% );
      f_pub = ( +% );
    };
    {
      f_tag = "*";
      f_upd = "s *= a[i]";
      f_id = 1.0;
      f_init = 2.0;
      f_elem = (fun i -> r32 (1.0 +. (float_of_int (((i * 3) mod 7) - 3) *. 0.001)));
      f_thread = ( *% );
      f_comb = ( *% );
      f_pub = ( *% );
    };
    {
      f_tag = "max";
      f_upd = "s = s < a[i] ? a[i] : s";
      f_id = r32 (-3.0e38);
      f_init = 4.5;
      f_elem = (fun i -> r32 (float_of_int (((i * 13) mod 101) - 50) *. 0.5));
      f_thread = (fun s e -> if s < e then e else s);
      f_comb = (fun a b -> if a < b then b else a);
      f_pub = (fun a b -> Float.max a b);
    };
    {
      f_tag = "min";
      f_upd = "s = a[i] < s ? a[i] : s";
      f_id = r32 3.0e38;
      f_init = -4.5;
      f_elem = (fun i -> r32 (float_of_int (((i * 13) mod 101) - 50) *. 0.5));
      f_thread = (fun s e -> if e < s then e else s);
      f_comb = (fun a b -> if b < a then b else a);
      f_pub = (fun a b -> Float.min a b);
    };
    {
      f_tag = "&&";
      f_upd = "s = s && a[i]";
      f_id = 1.0;
      f_init = 2.0;
      f_elem = (fun i -> f01 ((i * 5) mod 89 <> 0));
      f_thread = (fun s e -> f01 (s <> 0.0 && e <> 0.0));
      f_comb = (fun a b -> f01 (a <> 0.0 && b <> 0.0));
      f_pub = (fun a b -> f01 (a <> 0.0 && b <> 0.0));
    };
    {
      f_tag = "||";
      f_upd = "s = s || a[i]";
      f_id = 0.0;
      f_init = 0.0;
      f_elem = (fun i -> f01 ((i * 5) mod 89 = 0));
      f_thread = (fun s e -> f01 (s <> 0.0 || e <> 0.0));
      f_comb = (fun a b -> f01 (a <> 0.0 || b <> 0.0));
      f_pub = (fun a b -> f01 (a <> 0.0 || b <> 0.0));
    };
  ]

type iop = {
  i_tag : string;
  i_upd : string;
  i_id : int;
  i_init : int;
  i_elem : int -> int;
  i_thread : int -> int -> int;
  i_comb : int -> int -> int;
  i_pub : int -> int -> int;
}

let i01 cond = if cond then 1 else 0

let int_ops : iop list =
  [
    {
      i_tag = "+";
      i_upd = "s += a[i]";
      i_id = 0;
      i_init = 5;
      i_elem = (fun i -> ((i * 7) mod 29) - 14);
      i_thread = (fun a b -> wrap32 (a + b));
      i_comb = (fun a b -> wrap32 (a + b));
      i_pub = (fun a b -> wrap32 (a + b));
    };
    {
      i_tag = "*";
      i_upd = "s *= a[i]";
      i_id = 1;
      i_init = 3;
      i_elem = (fun i -> (i mod 7) + 1);
      i_thread = (fun a b -> wrap32 (a * b));
      i_comb = (fun a b -> wrap32 (a * b));
      i_pub = (fun a b -> wrap32 (a * b));
    };
    {
      i_tag = "max";
      i_upd = "s = s < a[i] ? a[i] : s";
      i_id = Int32.to_int Int32.min_int;
      i_init = -7;
      i_elem = (fun i -> ((i * 13) mod 1001) - 500);
      i_thread = (fun s e -> if s < e then e else s);
      i_comb = (fun a b -> if a < b then b else a);
      i_pub = max;
    };
    {
      i_tag = "min";
      i_upd = "s = a[i] < s ? a[i] : s";
      i_id = Int32.to_int Int32.max_int;
      i_init = 9;
      i_elem = (fun i -> ((i * 13) mod 1001) - 500);
      i_thread = (fun s e -> if e < s then e else s);
      i_comb = (fun a b -> if b < a then b else a);
      i_pub = min;
    };
    {
      i_tag = "&";
      i_upd = "s = s & a[i]";
      i_id = -1;
      i_init = 0x3FFF;
      i_elem = (fun i -> 0xFFF lor ((i * 2654435761) land 0xFFFF));
      i_thread = (fun a b -> a land b);
      i_comb = (fun a b -> a land b);
      i_pub = (fun a b -> a land b);
    };
    {
      i_tag = "|";
      i_upd = "s = s | a[i]";
      i_id = 0;
      i_init = 0x1001;
      i_elem = (fun i -> (i * 2654435761) land 0xFF);
      i_thread = (fun a b -> a lor b);
      i_comb = (fun a b -> a lor b);
      i_pub = (fun a b -> a lor b);
    };
    {
      i_tag = "^";
      i_upd = "s = s ^ a[i]";
      i_id = 0;
      i_init = 0x55;
      i_elem = (fun i -> (i * 2654435761) land 0xFFFF);
      i_thread = (fun a b -> a lxor b);
      i_comb = (fun a b -> a lxor b);
      i_pub = (fun a b -> a lxor b);
    };
    {
      i_tag = "&&";
      i_upd = "s = s && a[i]";
      i_id = 1;
      i_init = 2;
      i_elem = (fun i -> if (i * 5) mod 89 <> 0 then 7 else 0);
      i_thread = (fun a b -> i01 (a <> 0 && b <> 0));
      i_comb = (fun a b -> i01 (a <> 0 && b <> 0));
      i_pub = (fun a b -> i01 (a <> 0 && b <> 0));
    };
    {
      (* note: the cross-team publish for int || is the bitwise-or
         atomic (cudadev_reduce_ior), exactly as the devrt installs it;
         partials are always 0/1 so with a 0/1 initial value this is
         indistinguishable from logical or *)
      i_tag = "||";
      i_upd = "s = s || a[i]";
      i_id = 0;
      i_init = 0;
      i_elem = (fun i -> if (i * 5) mod 89 = 0 then 3 else 0);
      i_thread = (fun a b -> i01 (a <> 0 || b <> 0));
      i_comb = (fun a b -> i01 (a <> 0 || b <> 0));
      i_pub = (fun a b -> a lor b);
    };
  ]

(* ---------------------------------------------------------------- *)
(* The order-exact host model                                         *)
(* ---------------------------------------------------------------- *)

type geom = { g_teams : int; g_nthr : int; g_tl : int; g_dist : int option }

let threads_of g = min g.g_nthr g.g_tl

(* The flat ranges thread [tid] of team [team] iterates, in order:
   the team's distribute chunk (or its block-cyclic chunk sequence
   under dist_schedule(static, c)), cut by the default static
   schedule.  Reuses the same pure Devrt.Sched arithmetic the device
   builtins call. *)
let thread_ranges ~total ~g ~team ~tid : Devrt.Sched.range list =
  let open Devrt.Sched in
  let space = { lo = 0; hi = total } in
  let nthr = threads_of g in
  match g.g_dist with
  | None -> [ static_chunk ~thread:tid ~num_threads:nthr (distribute_chunk ~team ~num_teams:g.g_teams space) ]
  | Some c ->
    let rec go k acc =
      match static_cyclic_chunk ~thread:team ~num_threads:g.g_teams ~chunk:c ~k space with
      | None -> List.rev acc
      | Some r -> go (k + 1) (static_chunk ~thread:tid ~num_threads:nthr r :: acc)
    in
    go 0 []

(* Replay the exact device order: per-thread sequential accumulation,
   per-team log-step tree from the next power of two, sequential
   cross-team publish (blocks run in linear order in the simulator). *)
let model ~identity ~init ~thread ~comb ~pub ~elem ~total ~g =
  let nthr = threads_of g in
  let result = ref init in
  for team = 0 to g.g_teams - 1 do
    let slots =
      Array.init nthr (fun tid ->
          List.fold_left
            (fun acc (r : Devrt.Sched.range) ->
              let acc = ref acc in
              for i = r.Devrt.Sched.lo to r.Devrt.Sched.hi - 1 do
                acc := thread !acc (elem i)
              done;
              !acc)
            identity
            (thread_ranges ~total ~g ~team ~tid))
    in
    let s = ref 1 in
    while !s < nthr do
      s := !s * 2
    done;
    s := !s / 2;
    while !s > 0 do
      for tid = 0 to !s - 1 do
        if tid + !s < nthr then slots.(tid) <- comb slots.(tid) slots.(tid + !s)
      done;
      s := !s / 2
    done;
    result := pub !result slots.(0)
  done;
  !result

(* ---------------------------------------------------------------- *)
(* Device runners                                                     *)
(* ---------------------------------------------------------------- *)

let dist_clause = function
  | None -> ""
  | Some c -> Printf.sprintf "dist_schedule(static, %d)" c

let float_src op dist =
  Printf.sprintf
    {|
void red_f(int n, int teams, int nthr, int tl, float init, float a[], float out[])
{
  float s = init;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) thread_limit(tl) %s reduction(%s: s) map(to: n, a[0:n+1]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    %s;
  out[0] = s;
}
|}
    (dist_clause dist) op.f_tag op.f_upd

let int_src op dist =
  Printf.sprintf
    {|
void red_i(int n, int teams, int nthr, int tl, int init, int a[], int out[])
{
  int s = init;
  #pragma omp target teams distribute parallel for num_teams(teams) num_threads(nthr) thread_limit(tl) %s reduction(%s: s) map(to: n, a[0:n+1]) map(tofrom: s)
  for (int i = 0; i < n; i++)
    %s;
  out[0] = s;
}
|}
    (dist_clause dist) op.i_tag op.i_upd

let run_float ?(host_interp = false) ~jit op ~n ~g : Oracle.obs =
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  Harness.set_sampling ctx None;
  let a = Harness.alloc_f32 ctx (n + 1) and out = Harness.alloc_f32 ctx 1 in
  Harness.fill_f32 ctx a n op.f_elem;
  let p = Harness.prepare_omp ~host_interp ctx ~name:"red_f" (float_src op g.g_dist) in
  let time =
    Harness.measure ctx (fun () ->
        Harness.call_omp p "red_f"
          [
            Harness.vint n; Harness.vint g.g_teams; Harness.vint g.g_nthr; Harness.vint g.g_tl;
            Harness.vf32 op.f_init; Harness.fptr a; Harness.fptr out;
          ])
  in
  Oracle.observe ctx.Harness.rt ~time ~out:[| Int32.bits_of_float (Harness.get_f32 ctx out 0) |]

let run_int ?(host_interp = false) ~jit op ~n ~g : Oracle.obs =
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  Harness.set_sampling ctx None;
  let a = Harness.alloc_i32 ctx (n + 1) and out = Harness.alloc_i32 ctx 1 in
  Harness.fill_i32 ctx a n op.i_elem;
  let p = Harness.prepare_omp ~host_interp ctx ~name:"red_i" (int_src op g.g_dist) in
  let time =
    Harness.measure ctx (fun () ->
        Harness.call_omp p "red_i"
          [
            Harness.vint n; Harness.vint g.g_teams; Harness.vint g.g_nthr; Harness.vint g.g_tl;
            Harness.vint op.i_init; Harness.fptr a; Harness.fptr out;
          ])
  in
  Oracle.observe ctx.Harness.rt ~time ~out:[| Int32.of_int (Harness.get_i32 ctx out 0) |]

let model_float op ~n ~g =
  model ~identity:op.f_id ~init:op.f_init ~thread:op.f_thread ~comb:op.f_comb ~pub:op.f_pub
    ~elem:op.f_elem ~total:n ~g

let model_int op ~n ~g =
  model ~identity:op.i_id ~init:op.i_init ~thread:op.i_thread ~comb:op.i_comb ~pub:op.i_pub
    ~elem:op.i_elem ~total:n ~g

(* ---------------------------------------------------------------- *)
(* Per-op differential tests                                          *)
(* ---------------------------------------------------------------- *)

(* Geometries exercising the awkward tree shapes: a non-power-of-two
   team (100 threads), a thread_limit cap (20), block-cyclic distribute
   chunks, single-thread teams, and an empty iteration space. *)
let geometries =
  [
    ("teams4x100", 257, { g_teams = 4; g_nthr = 100; g_tl = 1000; g_dist = None });
    ("dist-cyclic", 257, { g_teams = 3; g_nthr = 32; g_tl = 20; g_dist = Some 16 });
    ("1-thread-teams", 61, { g_teams = 5; g_nthr = 1; g_tl = 1000; g_dist = None });
    ("empty-space", 0, { g_teams = 2; g_nthr = 64; g_tl = 1000; g_dist = None });
  ]

(* The reduction bench's tree: 16 teams of 128 threads over its smoke
   size, float [+]. *)
let bench_tree = ("bench-16x128", 8192, { g_teams = 16; g_nthr = 128; g_tl = 1000; g_dist = None })

let test_float_ops () =
  List.iter
    (fun (op, (gname, n, g)) ->
      let label = Printf.sprintf "float %s %s" op.f_tag gname in
      let jit = run_float ~jit:true op ~n ~g in
      let interp = run_float ~jit:false op ~n ~g in
      Check.executors label jit interp;
      Alcotest.(check int32)
        (label ^ ": 0 ulps from the order-exact host model")
        (Int32.bits_of_float (model_float op ~n ~g))
        jit.Oracle.o_out.(0))
    (List.concat_map (fun op -> List.map (fun geo -> (op, geo)) geometries) float_ops
    @ [ (List.hd float_ops, bench_tree) ])

let test_int_ops () =
  List.iter
    (fun op ->
      List.iter
        (fun (gname, n, g) ->
          let label = Printf.sprintf "int %s %s" op.i_tag gname in
          let jit = run_int ~jit:true op ~n ~g in
          let interp = run_int ~jit:false op ~n ~g in
          Check.executors label jit interp;
          Alcotest.(check int32)
            (label ^ ": bit-identical to the order-exact host model")
            (Int32.of_int (model_int op ~n ~g))
            jit.Oracle.o_out.(0))
        geometries)
    int_ops

(* The sequential host lowering (directives stripped) anchors the model:
   int reductions are associative/commutative in wrapping int32, so the
   sequential order must give the very same bytes; float sums agree
   within accumulation tolerance. *)
let test_host_anchor () =
  let _, n, g = List.nth geometries 0 in
  List.iter
    (fun op ->
      let dev = run_int ~jit:true op ~n ~g in
      let host = run_int ~host_interp:true ~jit:true op ~n ~g in
      Alcotest.(check int32)
        (Printf.sprintf "int %s: device == sequential host reference" op.i_tag)
        host.Oracle.o_out.(0) dev.Oracle.o_out.(0))
    int_ops;
  List.iter
    (fun op ->
      let dev = run_float ~jit:true op ~n ~g in
      let host = run_float ~host_interp:true ~jit:true op ~n ~g in
      let d = Int32.float_of_bits dev.Oracle.o_out.(0) in
      let h = Int32.float_of_bits host.Oracle.o_out.(0) in
      Alcotest.(check bool)
        (Printf.sprintf "float %s: device within 1e-3 of sequential host reference" op.f_tag)
        true
        (Float.abs (d -. h) <= 1e-3 *. Float.max 1.0 (Float.abs h)))
    float_ops

(* Cost shape: one atomic publish per team (the whole point of the
   tree), shared-memory traffic and barrier arrivals present. *)
let test_tree_cost_shape () =
  let g = { g_teams = 6; g_nthr = 96; g_tl = 1000; g_dist = None } in
  let op = List.hd float_ops in
  let ctx = Harness.create () in
  Harness.set_sampling ctx None;
  let n = 480 in
  let a = Harness.alloc_f32 ctx n and out = Harness.alloc_f32 ctx 1 in
  Harness.fill_f32 ctx a n op.f_elem;
  let p = Harness.prepare_omp ctx ~name:"red_cost" (float_src op g.g_dist) in
  Harness.call_omp p "red_f"
    [
      Harness.vint n; Harness.vint g.g_teams; Harness.vint g.g_nthr; Harness.vint g.g_tl;
      Harness.vf32 op.f_init; Harness.fptr a; Harness.fptr out;
    ];
  match (Harness.driver ctx).Driver.launches with
  | [ s ] ->
    let c = s.Driver.st_counters in
    Alcotest.(check int) "exactly one atomic per team" g.g_teams c.Counters.atomics;
    Alcotest.(check bool) "tree goes through shared memory" true (c.Counters.shared_accesses > 0);
    Alcotest.(check bool) "tree synchronises between levels" true
      (c.Counters.barrier_warp_arrivals > 0)
  | l -> Alcotest.failf "expected one launch, got %d" (List.length l)

(* ---------------------------------------------------------------- *)
(* QCheck properties                                                  *)
(* ---------------------------------------------------------------- *)

let geom_gen =
  QCheck.Gen.(
    let* teams = int_range 1 5 in
    let* nthr = int_range 1 130 in
    let* tl = int_range 1 130 in
    let* dist = oneof [ return None; map (fun c -> Some c) (int_range 1 40) ] in
    return { g_teams = teams; g_nthr = nthr; g_tl = tl; g_dist = dist })

let pp_geom g =
  Printf.sprintf "teams=%d nthr=%d tl=%d dist=%s" g.g_teams g.g_nthr g.g_tl
    (match g.g_dist with None -> "-" | Some c -> string_of_int c)

let geom_arb = QCheck.make ~print:pp_geom geom_gen

(* Any op x size x geometry: the device result equals the order-exact
   model bit for bit — 0 ulps for floats, by construction for ints. *)
let prop_matches_model =
  QCheck.Test.make ~name:"random geometry: device == order-exact model (0 ulps)" ~count:20
    QCheck.(
      triple (int_range 0 300) geom_arb
        (oneofl
           (List.map (fun o -> `F o) float_ops @ List.map (fun o -> `I o) int_ops)))
    (fun (n, g, which) ->
      match which with
      | `F op ->
        let dev = run_float ~jit:true op ~n ~g in
        dev.Oracle.o_out.(0) = Int32.bits_of_float (model_float op ~n ~g)
      | `I op ->
        let dev = run_int ~jit:true op ~n ~g in
        dev.Oracle.o_out.(0) = Int32.of_int (model_int op ~n ~g))

(* Integer reductions are exact: moving the geometry may move simulated
   time but never the bytes. *)
let prop_geometry_invariance =
  QCheck.Test.make ~name:"geometry invariance: int bytes never move" ~count:12
    QCheck.(triple (oneofl int_ops) geom_arb geom_arb)
    (fun (op, g1, g2) ->
      let n = 223 in
      let a = run_int ~jit:true op ~n ~g:g1 in
      let b = run_int ~jit:true op ~n ~g:g2 in
      a.Oracle.o_out.(0) = b.Oracle.o_out.(0))

let () =
  Alcotest.run "reduction"
    [
      ( "differential",
        [
          Alcotest.test_case "float ops, all tree shapes" `Quick test_float_ops;
          Alcotest.test_case "int ops, all tree shapes" `Quick test_int_ops;
          Alcotest.test_case "sequential host anchor" `Quick test_host_anchor;
          Alcotest.test_case "one atomic per team" `Quick test_tree_cost_shape;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_matches_model;
          QCheck_alcotest.to_alcotest prop_geometry_invariance;
        ] );
    ]
