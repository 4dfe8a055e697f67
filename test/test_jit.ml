(* The closure JIT (Cinterp.Jit) compiles each kernel AST once at module
   load, and each translated host program once when its context is
   built, into slot-indexed OCaml closures; the tree-walking interpreter
   stays available as the reference executor (--no-jit, for host and
   device code together).  This suite proves the two executors
   equivalent:

   - differentially: every Polybench app, in both the hand-written CUDA
     and the OMPi-translated variant, must produce bit-identical outputs,
     identical per-launch dynamic counters, identical simulated cycle
     costs and identical simulated times with the JIT on and off — also
     under fault injection, zero-copy, transfer elision and a single
     stream (the configuration matrix in test_oracle flips the executor
     at every point of its table, examples included);

   - property-based: a QCheck generator of random mini-C kernels
     (straight-line float arithmetic, bounded uniform loops, shared
     memory with barriers, branches divergent on the thread id, and the
     operand shapes the JIT's static typing could get wrong) checks the
     same bit-identity on kernels nobody hand-wrote, with a shrinker
     that reduces failures to minimal statement lists;

   - on host programs: Serve's service sources stripped to host code,
     with every host function compiled (no silent fallback);

   - and for the recovery path: a corrupt JIT-cache entry must force a
     recompile of *both* the PTX and the closure form. *)

open Gpusim
open Polybench

let parse_ok spec =
  match Hostrt.Faults.parse spec with
  | Ok rules -> rules
  | Error msg -> Alcotest.fail (Printf.sprintf "bad fault spec %S: %s" spec msg)

(* ---------------------------------------------------------------- *)
(* Differential suite over the Polybench apps                         *)
(* ---------------------------------------------------------------- *)

(* JIT vs interpreter on both device variants, plus the host-reference
   anchor: equivalence alone would be vacuous if both executors were
   wrong the same way. *)
let test_app_differential (app : Suite.app) () =
  List.iter
    (fun variant ->
      let p = Oracle.polybench ~variant app in
      let run jit = p.Oracle.run { Hostrt.Rt.default_config with jit } in
      let jit = run true in
      Check.executors p.Oracle.name jit (run false);
      Alcotest.(check (list string))
        (p.Oracle.name ^ ": JIT output matches the host reference")
        [] (Oracle.anchor p jit))
    [ Harness.Ompi_cudadev; Harness.Cuda ]

(* The configurations that change how the host drives the device open
   no gap between the executors. *)
let test_config_legs () =
  let app =
    match Suite.find "atax" with Some a -> a | None -> Alcotest.fail "atax not in suite"
  in
  let p = Oracle.polybench app in
  List.iter
    (fun (label, config) ->
      let run jit = p.Oracle.run { config with Hostrt.Rt.jit } in
      Check.executors ("atax " ^ label) (run true) (run false))
    Hostrt.Rt.
      [
        ("faulted launch", { default_config with faults = parse_ok "launch:nth=1" });
        ("zero-copy", { default_config with mem_policy = Hostrt.Mempolicy.(Forced Zerocopy) });
        ("transfer elision", { default_config with mem_policy = Hostrt.Mempolicy.(Forced Elide) });
        ("single stream", { default_config with streams = 1 });
      ]

(* The gate itself: modules carry a closure form exactly when the JIT is
   enabled on the driver. *)
let tiny_src = "void k(float *out) { out[threadIdx.x] = 1.0f + threadIdx.x; }"

let test_module_carries_closures () =
  let ctx = Harness.create () in
  let m = Harness.cuda_module ctx ~name:"tiny" ~source:tiny_src in
  Alcotest.(check bool) "jit on: module carries the closure form" true
    (Option.is_some m.Driver.lm_compiled);
  let ctx2 = Harness.create ~config:{ Hostrt.Rt.default_config with jit = false } () in
  let m2 = Harness.cuda_module ctx2 ~name:"tiny" ~source:tiny_src in
  Alcotest.(check bool) "jit off: module loads without a closure form" false
    (Option.is_some m2.Driver.lm_compiled)

(* No silent fallback: every function of every module the six Fig. 4
   apps load — the CUDA modules and the OMPi-translated kernels with
   their thread functions — has a closure form.  A function the JIT
   left out would still run (on the tree-walker) and still pass the
   differential tests; only its speed would be lost. *)
let test_every_function_compiles () =
  List.iter
    (fun (app : Suite.app) ->
      let n = Oracle.smallest app in
      List.iter
        (fun variant ->
          let ctx = Harness.create () in
          Harness.set_sampling ctx None;
          ignore (app.Suite.ap_run ctx variant ~n);
          let modules = (Harness.driver ctx).Driver.modules in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s loaded a module" app.Suite.ap_name (Harness.variant_label variant))
            true (Hashtbl.length modules > 0);
          Hashtbl.iter
            (fun _ (m : Driver.loaded_module) ->
              let label = app.Suite.ap_name ^ "/" ^ m.Driver.lm_artifact.Nvcc.art_name in
              match m.Driver.lm_compiled with
              | None -> Alcotest.fail (label ^ ": module has no closure form")
              | Some c ->
                Alcotest.(check (list (pair string string)))
                  (label ^ ": no function left out") [] (Cinterp.Jit.left_out c);
                Alcotest.(check int)
                  (label ^ ": every function compiled")
                  (Hashtbl.length m.Driver.lm_source.Simt.ks_funcs)
                  (Cinterp.Jit.function_count c))
            modules;
          List.iter
            (fun (d : Hostrt.Run_report.device) ->
              Alcotest.(check (list (triple string string string)))
                (Printf.sprintf "%s/%s: run report leaves nothing out on device %d"
                   app.Suite.ap_name (Harness.variant_label variant) d.Hostrt.Run_report.dv_id)
                [] d.Hostrt.Run_report.dv_left_out)
            (Hostrt.Run_report.of_rt ctx.Harness.rt).Hostrt.Run_report.r_devices)
        [ Harness.Cuda; Harness.Ompi_cudadev ])
    Suite.all

(* ---------------------------------------------------------------- *)
(* QCheck: random kernels                                             *)
(* ---------------------------------------------------------------- *)

(* A tiny structured kernel language, rendered to mini-C CUDA source.
   Every generated kernel reads [in], accumulates into a local [acc],
   round-trips through __shared__ memory, and writes out[i] — with
   [t = threadIdx.x] available for divergence.  Barriers are generated
   at top level and inside uniform-trip loops only, never under the
   tid-divergent branch (that would deadlock a real block).

   Beside the float accumulator the kernel keeps locals of every other
   scalar kind — char [c], short [s], unsigned [u], long [l], double
   [d], a float pointer [q] — and an int [x] reached through [p = &x].
   The statements update them with every compound operator and with
   [++]/[--], and any of them can be made address-taken
   ([rk_escaped]), so both the JIT's promoted locals and its
   memory-resident ones are compared against the interpreter. *)

let sh_size = 32

(* Integer-valued expressions over the integer locals.  Besides plain
   arithmetic they take the shapes static typing can get wrong: casts
   to every integer type, comparisons of mixed signedness and width,
   conditionals whose arms differ in type, negative division and
   remainder, shifts by up to 63, unary operators, and [long]
   arithmetic past 32 bits; float expressions add [float]/[double]
   casts, mixed-arm conditionals and [double] arithmetic past 32 bits. *)
type iexpr =
  | Ivar of string (* c s u l x t i, or "*p" *)
  | Iconst of int
  | Ibin of string * iexpr * iexpr (* + - * & | ^ *)
  | Iacc (* (int)acc *)
  | Icast of string * iexpr (* ((T)(e)), T any integer type *)
  | Itrunc of string * rexpr (* ((T)(e)) of a float expression *)
  | Icmp of string * iexpr * iexpr (* < > <= >= == != *)
  | Idiv of string * iexpr * iexpr (* / or %, by an odd (so nonzero) divisor of either sign *)
  | Ishift of string * iexpr * iexpr (* << or >>, by (e & 63) *)
  | Icond of iexpr * iexpr * iexpr (* (c ? a : b) *)
  | Ibig of iexpr (* (e * 3000000000): a long literal *)
  | Iun of string * iexpr (* -e, ~e, !e *)

and rexpr =
  | Rin of int (* in[(i + k) % n] *)
  | Rsh of int (* sh[(t + k) % sh_size] *)
  | Racc
  | Rconst of int (* k.0f, k >= 0 *)
  | Rint of iexpr (* (float)(e) *)
  | Rbin of char * rexpr * rexpr
  | Rcast of string * rexpr (* ((float)(e)) or ((double)(e)) *)
  | Rcond of iexpr * rexpr * iexpr (* (c ? r : e): a float arm and an integer arm *)
  | Rbig of rexpr (* (e * 4294967296.0): double arithmetic past 32 bits *)

let int_types =
  [ "char"; "unsigned char"; "short"; "unsigned short"; "int"; "unsigned"; "long"; "unsigned long" ]

(* The C types of the expressions, for C's conversion of a conditional's
   arms: the usual arithmetic conversions ([Cty.common_arith]). *)
let cty_of_name = function
  | "char" -> Machine.Cty.Char
  | "unsigned char" -> Machine.Cty.Uchar
  | "short" -> Machine.Cty.Short
  | "unsigned short" -> Machine.Cty.Ushort
  | "int" -> Machine.Cty.Int
  | "unsigned" -> Machine.Cty.Uint
  | "long" -> Machine.Cty.Long
  | "unsigned long" -> Machine.Cty.Ulong
  | "float" -> Machine.Cty.Float
  | "double" -> Machine.Cty.Double
  | ty -> invalid_arg ty

let rec ity (e : iexpr) : Machine.Cty.t =
  let open Machine.Cty in
  match e with
  | Ivar "c" -> Char
  | Ivar "s" -> Short
  | Ivar "u" -> Uint
  | Ivar "l" -> Long
  | Ivar _ | Iconst _ | Iacc | Icmp _ -> Int
  | Ibin (_, x, y) | Icond (_, x, y) -> common_arith (ity x) (ity y)
  | Icast (ty, _) | Itrunc (ty, _) -> cty_of_name ty
  | Idiv (_, x, y) -> common_arith (ity x) (common_arith (ity y) Int)
  | Ishift (_, x, _) -> promote (ity x)
  | Ibig x -> common_arith (ity x) Long
  | Iun ("!", _) -> Int
  | Iun (_, x) -> promote (ity x)

and rty (e : rexpr) : Machine.Cty.t =
  let open Machine.Cty in
  match e with
  | Rin _ | Rsh _ | Racc | Rconst _ | Rint _ -> Float
  | Rbin (_, x, y) -> common_arith (rty x) (rty y)
  | Rcast (ty, _) -> cty_of_name ty
  | Rcond (_, x, y) -> common_arith (rty x) (ity y)
  | Rbig _ -> Double

(* Render conditionals with their arms converted explicitly, as C
   converts them implicitly: [((T)(arm))] where an arm's type [T']
   differs from the conditional's type [T]. *)
let explicit_conversions = ref false

type rstmt =
  | Racc_upd of char * rexpr (* acc = acc OP (e); *)
  | Rsh_write of int * rexpr (* sh[(t + k) % sh_size] = e; *)
  | Rint_upd of string * string * iexpr (* v OP= e; on an integer local (or *p) *)
  | Rflt_upd of string * char * rexpr (* acc/d OP= e; *)
  | Rstep of string * bool * string (* pre?, "++" or "--": ++v / v++ / --v / v-- *)
  | Rmove of int (* q = in + ((i + k) % n); *)
  | Rbarrier
  | Rif of rstmt list (* if (t % 2 == 0) { ... }  — divergent *)
  | Rloop of int * rstmt list (* for (jL = 0; jL < c; jL++) { ... } — uniform *)

type rkernel = { rk_escaped : string list; rk_stmts : rstmt list }

let int_locals = [ "c"; "s"; "u"; "l"; "x" ]

let int_vars = int_locals @ [ "*p" ]

(* locals that can be made address-taken, with their C types *)
let escapable = [ ("c", "char"); ("s", "short"); ("u", "unsigned"); ("l", "long"); ("d", "double"); ("acc", "float") ]

let rec render_iexpr (b : Buffer.t) e =
  match e with
  | Ivar v -> Buffer.add_string b (if v = "*p" then "(*p)" else v)
  | Iconst k -> Buffer.add_string b (string_of_int k)
  | Iacc -> Buffer.add_string b "((int)acc)"
  | Ibin (op, x, y) | Icmp (op, x, y) -> binary b render_iexpr op x render_iexpr y
  | Icast (ty, x) ->
    Buffer.add_string b ("((" ^ ty ^ ")(");
    render_iexpr b x;
    Buffer.add_string b "))"
  | Itrunc (ty, x) ->
    Buffer.add_string b ("((" ^ ty ^ ")(");
    render_expr b x;
    Buffer.add_string b "))"
  | Idiv (op, x, y) ->
    Buffer.add_char b '(';
    render_iexpr b x;
    Buffer.add_string b (" " ^ op ^ " ((((");
    render_iexpr b y;
    Buffer.add_string b ") & 15) - 8) | 1))"
  | Ishift (op, x, y) ->
    Buffer.add_char b '(';
    render_iexpr b x;
    Buffer.add_string b (" " ^ op ^ " ((");
    render_iexpr b y;
    Buffer.add_string b ") & 63))"
  | Icond (c, x, y) ->
    let t = ity e in
    cond b render_iexpr c (arm render_iexpr ity t) x (arm render_iexpr ity t) y
  | Ibig x ->
    Buffer.add_char b '(';
    render_iexpr b x;
    Buffer.add_string b " * 3000000000)"
  | Iun (op, x) ->
    Buffer.add_string b ("(" ^ op ^ "(");
    render_iexpr b x;
    Buffer.add_string b "))"

(* An arm of a conditional of type [t]. *)
and arm : 'a. (Buffer.t -> 'a -> unit) -> ('a -> Machine.Cty.t) -> Machine.Cty.t -> Buffer.t -> 'a -> unit =
 fun render ty t b x ->
  if !explicit_conversions && not (Machine.Cty.equal (ty x) t) then begin
    Buffer.add_string b ("((" ^ Machine.Cty.to_c_string t ^ ")(");
    render b x;
    Buffer.add_string b "))"
  end
  else render b x

and binary :
      'a 'b. Buffer.t -> (Buffer.t -> 'a -> unit) -> string -> 'a -> (Buffer.t -> 'b -> unit) -> 'b -> unit =
 fun b ra op x rb y ->
  Buffer.add_char b '(';
  ra b x;
  Buffer.add_string b (" " ^ op ^ " ");
  rb b y;
  Buffer.add_char b ')'

and cond :
      'a 'b.
      Buffer.t ->
      (Buffer.t -> iexpr -> unit) ->
      iexpr ->
      (Buffer.t -> 'a -> unit) ->
      'a ->
      (Buffer.t -> 'b -> unit) ->
      'b ->
      unit =
 fun b rc c ra x rb y ->
  Buffer.add_string b "((";
  rc b c;
  Buffer.add_string b ") ? ";
  ra b x;
  Buffer.add_string b " : ";
  rb b y;
  Buffer.add_char b ')'

and render_expr (b : Buffer.t) e =
  match e with
  | Rin k -> Buffer.add_string b (Printf.sprintf "in[(i + %d) %% n]" k)
  | Rsh k -> Buffer.add_string b (Printf.sprintf "sh[(t + %d) %% %d]" k sh_size)
  | Racc -> Buffer.add_string b "acc"
  | Rconst k -> Buffer.add_string b (Printf.sprintf "%d.0f" k)
  | Rint e ->
    Buffer.add_string b "((float)";
    render_iexpr b e;
    Buffer.add_char b ')'
  | Rbin (op, x, y) -> binary b render_expr (String.make 1 op) x render_expr y
  | Rcast (ty, x) ->
    Buffer.add_string b ("((" ^ ty ^ ")(");
    render_expr b x;
    Buffer.add_string b "))"
  | Rcond (c, x, y) ->
    let t = rty e in
    cond b render_iexpr c (arm render_expr rty t) x (arm render_iexpr ity t) y
  | Rbig x ->
    Buffer.add_char b '(';
    render_expr b x;
    Buffer.add_string b " * 4294967296.0)"

let rec render_stmt (b : Buffer.t) ~(lvl : int) (indent : string) = function
  | Racc_upd (op, e) ->
    Buffer.add_string b (Printf.sprintf "%sacc = acc %c " indent op);
    render_expr b e;
    Buffer.add_string b ";\n"
  | Rsh_write (k, e) ->
    Buffer.add_string b (Printf.sprintf "%ssh[(t + %d) %% %d] = " indent k sh_size);
    render_expr b e;
    Buffer.add_string b ";\n"
  | Rint_upd (v, op, e) ->
    Buffer.add_string b (Printf.sprintf "%s%s %s= " indent v op);
    (* divisors kept in 1..8 and shift counts in 0..7 *)
    (match op with
    | "/" | "%" ->
      Buffer.add_string b "((";
      render_iexpr b e;
      Buffer.add_string b " & 7) + 1)"
    | "<<" | ">>" ->
      Buffer.add_char b '(';
      render_iexpr b e;
      Buffer.add_string b " & 7)"
    | _ -> render_iexpr b e);
    Buffer.add_string b ";\n"
  | Rflt_upd (v, op, e) ->
    Buffer.add_string b (Printf.sprintf "%s%s %c= " indent v op);
    render_expr b e;
    Buffer.add_string b ";\n"
  | Rstep (v, pre, op) ->
    let v' = if v = "*p" then "(*p)" else v in
    Buffer.add_string b (Printf.sprintf "%s%s;\n" indent (if pre then op ^ v' else v' ^ op));
    (* keep the pointer inside [in] *)
    if v = "q" then
      Buffer.add_string b
        (Printf.sprintf "%sif (q >= in + n) q = in;\n%sif (q < in) q = in + n - 1;\n" indent indent)
  | Rmove k -> Buffer.add_string b (Printf.sprintf "%sq = in + ((i + %d) %% n);\n" indent k)
  | Rbarrier -> Buffer.add_string b (indent ^ "__syncthreads();\n")
  | Rif body ->
    Buffer.add_string b (indent ^ "if (t % 2 == 0) {\n");
    List.iter (render_stmt b ~lvl:(lvl + 1) (indent ^ "  ")) body;
    Buffer.add_string b (indent ^ "}\n")
  | Rloop (c, body) ->
    Buffer.add_string b (Printf.sprintf "%sfor (j%d = 0; j%d < %d; j%d++) {\n" indent lvl lvl c lvl);
    List.iter (render_stmt b ~lvl:(lvl + 1) (indent ^ "  ")) body;
    Buffer.add_string b (indent ^ "}\n")

let render (k : rkernel) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b "void randk(float *in, float *out, long *iout, int n)\n{\n";
  Buffer.add_string b "  int t = threadIdx.x;\n";
  Buffer.add_string b "  int i = blockIdx.x * blockDim.x + t;\n";
  Buffer.add_string b "  int j0; int j1; int j2; int j3;\n";
  Buffer.add_string b (Printf.sprintf "  __shared__ float sh[%d];\n" sh_size);
  Buffer.add_string b (Printf.sprintf "  sh[t %% %d] = in[i %% n] + t;\n" sh_size);
  Buffer.add_string b "  __syncthreads();\n";
  Buffer.add_string b "  float acc = in[i % n];\n";
  Buffer.add_string b "  char c = t * 9;\n";
  Buffer.add_string b "  short s = t * 1031;\n";
  Buffer.add_string b "  unsigned u = i * 40503 - 7;\n";
  Buffer.add_string b "  long l = i;\n";
  Buffer.add_string b "  l = l * 65599 - 3;\n";
  Buffer.add_string b "  double d = in[(i + 1) % n];\n";
  Buffer.add_string b "  int x = t - 16;\n";
  Buffer.add_string b "  int *p = &x;\n";
  Buffer.add_string b "  float *q = in + (i % n);\n";
  List.iter
    (fun v ->
      let ty = List.assoc v escapable in
      Buffer.add_string b (Printf.sprintf "  %s *esc_%s = &%s;\n" ty v v))
    k.rk_escaped;
  List.iter (render_stmt b ~lvl:0 "  ") k.rk_stmts;
  (* every thread reports its float state in [out] and each integer
     local, whole, in [iout] ([*p] is [x]), so a NaN cannot mask an
     integer difference and no bit of a [long] goes unchecked *)
  Buffer.add_string b "  out[i % n] = acc + (float)d + q[0];\n";
  List.iteri
    (fun k v -> Buffer.add_string b (Printf.sprintf "  iout[%d * n + i %% n] = %s;\n" k v))
    int_locals;
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Integer and float expressions, generated together (each can embed
   the other through casts and conditionals). *)
let gen_iexpr, gen_expr =
    QCheck.Gen.(
      let rec iexpr depth =
        let leaf =
          frequency
            [
              (4, map (fun v -> Ivar v) (oneofl (int_vars @ [ "t"; "i" ])));
              (2, map (fun k -> Iconst k) (int_range (-9) 300));
              (1, return Iacc);
            ]
        in
        if depth = 0 then leaf
        else
          let sub = iexpr (depth - 1) in
          (* an operand that is often unsigned, or signed and negative *)
          let edge =
            frequency
              [
                (2, sub);
                ( 3,
                  oneofl
                    [
                      Ivar "u"; Ivar "x"; Ivar "c"; Iconst (-7); Icast ("unsigned", Ivar "x");
                      Icast ("unsigned char", Ivar "c"); Icast ("unsigned short", Ivar "x");
                      Icast ("unsigned long", Ivar "x");
                      (* conditionals whose arms differ in type *)
                      Icond (Icmp ("<", Ivar "t", Iconst 16), Ivar "u", Ivar "x");
                      Icond (Ivar "c", Ivar "c", Ivar "l");
                    ] );
              ]
          in
          frequency
            [
              (4, leaf);
              ( 4,
                map3
                  (fun op x y -> Ibin (op, x, y))
                  (oneofl [ "+"; "-"; "*"; "&"; "|"; "^" ])
                  edge sub );
              (2, map2 (fun ty x -> Icast (ty, x)) (oneofl int_types) sub);
              (1, map2 (fun ty x -> Itrunc (ty, x)) (oneofl int_types) (rexpr (depth - 1)));
              ( 2,
                map3
                  (fun op x y -> Icmp (op, x, y))
                  (oneofl [ "<"; ">"; "<="; ">="; "=="; "!=" ])
                  edge edge );
              (2, map3 (fun op x y -> Idiv (op, x, y)) (oneofl [ "/"; "%" ]) edge edge);
              (2, map3 (fun op x y -> Ishift (op, x, y)) (oneofl [ "<<"; ">>" ]) edge edge);
              (1, map2 (fun op x -> Iun (op, x)) (oneofl [ "-"; "~"; "!" ]) edge);
              (1, map3 (fun c x y -> Icond (c, x, y)) sub edge sub);
              (1, map (fun x -> Ibig x) sub);
            ]
      and rexpr d =
        let leaf =
          frequency
            [
              (2, map (fun k -> Rin k) (int_bound 5));
              (2, map (fun k -> Rsh k) (int_bound 5));
              (2, return Racc);
              (2, map (fun k -> Rconst k) (int_bound 5));
              (1, map (fun e -> Rint e) (iexpr (min d 2)));
              (1, map (fun e -> Rint (Icast ("unsigned long", e))) (iexpr 0));
            ]
        in
        if d = 0 then leaf
        else
          let sub = rexpr (d - 1) in
          frequency
            [
              (4, leaf);
              (6, map3 (fun op x y -> Rbin (op, x, y)) (oneofl [ '+'; '-'; '*'; '/' ]) sub sub);
              (1, map2 (fun ty x -> Rcast (ty, x)) (oneofl [ "float"; "double" ]) sub);
              (1, map3 (fun c x y -> Rcond (c, x, y)) (iexpr (min d 2)) sub (iexpr (min d 2)));
              (1, map (fun x -> Rbig x) sub);
            ]
      in
      (sized_size (int_bound 2) iexpr, sized_size (int_bound 3) rexpr))

let compound_ops = [ "+"; "-"; "*"; "/"; "%"; "<<"; ">>"; "&"; "|"; "^" ]

(* [div] is true once we are under the tid-divergent branch: no barriers
   below that point.  [depth] bounds statement nesting at 2. *)
let rec gen_stmt ~(div : bool) ~(depth : int) : rstmt QCheck.Gen.t =
  QCheck.Gen.(
    let base =
      [
        (3, map2 (fun op e -> Racc_upd (op, e)) (oneofl [ '+'; '-'; '*' ]) gen_expr);
        (2, map2 (fun k e -> Rsh_write (k, e)) (int_bound 5) gen_expr);
        ( 3,
          map3 (fun v op e -> Rint_upd (v, op, e)) (oneofl int_vars) (oneofl compound_ops) gen_iexpr
        );
        ( 2,
          map3
            (fun v op e -> Rflt_upd (v, op, e))
            (oneofl [ "acc"; "d" ])
            (oneofl [ '+'; '-'; '*'; '/' ])
            gen_expr );
        ( 2,
          map3
            (fun v pre op -> Rstep (v, pre, op))
            (oneofl [ "c"; "s"; "u"; "l"; "d"; "acc"; "q"; "x"; "*p" ])
            bool (oneofl [ "++"; "--" ]) );
        (1, map (fun k -> Rmove k) (int_bound 5));
      ]
    in
    let base = if div then base else (1, return Rbarrier) :: base in
    let nested =
      if depth = 0 then []
      else
        [
          (1, map (fun ss -> Rif ss) (gen_stmts ~div:true ~depth:(depth - 1)));
          ( 1,
            map2 (fun c ss -> Rloop (c, ss)) (int_range 1 3) (gen_stmts ~div ~depth:(depth - 1))
          );
        ]
    in
    frequency (base @ nested))

and gen_stmts ~div ~depth : rstmt list QCheck.Gen.t =
  QCheck.Gen.(list_size (int_range 1 4) (gen_stmt ~div ~depth))

let gen_kernel : rkernel QCheck.Gen.t =
  QCheck.Gen.(
    map2
      (fun esc ss -> { rk_escaped = List.filteri (fun j _ -> List.nth esc j) (List.map fst escapable); rk_stmts = ss })
      (list_repeat (List.length escapable) (frequency [ (3, return false); (1, return true) ]))
      (gen_stmts ~div:false ~depth:2))

(* Shrink by dropping statements, thinning nested bodies, shortening
   loops and un-escaping locals: counterexamples come back as minimal
   statement lists. *)
let rec shrink_stmt (s : rstmt) : rstmt QCheck.Iter.t =
  QCheck.Iter.(
    match s with
    | Racc_upd _ | Rsh_write _ | Rint_upd _ | Rflt_upd _ | Rstep _ | Rmove _ | Rbarrier -> empty
    | Rif body -> map (fun b -> Rif b) (shrink_stmts body)
    | Rloop (c, body) ->
      append
        (if c > 1 then return (Rloop (c - 1, body)) else empty)
        (map (fun b -> Rloop (c, b)) (shrink_stmts body)))

and shrink_stmts (ss : rstmt list) : rstmt list QCheck.Iter.t =
  QCheck.Shrink.list ~shrink:shrink_stmt ss

let shrink_kernel (k : rkernel) : rkernel QCheck.Iter.t =
  QCheck.Iter.(
    append
      (map (fun ss -> { k with rk_stmts = ss }) (shrink_stmts k.rk_stmts))
      (map (fun esc -> { k with rk_escaped = esc }) (QCheck.Shrink.list k.rk_escaped)))

let print_kernel (k : rkernel) : string = render k

(* [k] with every conditional's arms converted explicitly. *)
let render_explicit (k : rkernel) : string =
  explicit_conversions := true;
  Fun.protect ~finally:(fun () -> explicit_conversions := false) (fun () -> render k)

(* Run one random kernel through the driver: 2 blocks of 32 threads over
   a 64-element buffer, explicit h2d/launch/d2h as in the CUDA variant.
   The outcome's bits are [out]'s floats, then [iout]'s longs as pairs
   of 32-bit words.
   A kernel can fail at run time (an integer division by zero reached
   through a conditional whose arms are integers); the error is then
   the outcome both executors must agree on. *)
let run_source ~(jit : bool) (source : string) : (Oracle.obs, string) result =
  let n = 64 in
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  Harness.set_sampling ctx None;
  let m = Harness.cuda_module ctx ~name:"randk" ~source in
  let h_in = Harness.alloc_f32 ctx n and h_out = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx h_in n (fun i -> (0.5 *. float_of_int ((i mod 7) + 1)) -. 1.0);
  Harness.fill_f32 ctx h_out n (fun _ -> 0.0);
  let words = 2 * List.length int_locals * n in
  let h_iout = Harness.alloc_i32 ctx words in
  let d_in = Harness.dev_alloc ctx (4 * n) and d_out = Harness.dev_alloc ctx (4 * n) in
  let d_iout = Harness.dev_alloc ctx (4 * words) in
  Harness.h2d ctx ~src:h_in ~dst:d_in ~bytes:(4 * n);
  Harness.h2d ctx ~src:h_out ~dst:d_out ~bytes:(4 * n);
  match
    Harness.measure ctx (fun () ->
        ignore
          (Harness.launch_cuda ctx m ~entry:"randk" ~grid:(Simt.dim3 2) ~block:(Simt.dim3 32)
             [
               Harness.fptr d_in; Harness.fptr d_out; Machine.Value.ptr ~ty:Machine.Cty.Long d_iout;
               Harness.vint n;
             ]))
  with
  | time ->
    Harness.d2h ctx ~src:d_out ~dst:h_out ~bytes:(4 * n);
    Harness.d2h ctx ~src:d_iout ~dst:h_iout ~bytes:(4 * words);
    let ints = Array.map Int32.of_int (Harness.read_i32_array ctx h_iout words) in
    let out = Array.append (Oracle.bits (Harness.read_f32_array ctx h_out n)) ints in
    Ok (Oracle.observe ctx.Harness.rt ~time ~out)
  | exception e -> Error (Printexc.to_string e)

let run_random ~jit k = run_source ~jit (render k)

(* Both executors agree, and a kernel whose conditionals have arms of
   different types computes C's result: the one of the same kernel with
   the arms' conversions written out. *)
let prop_random_kernel_equivalence =
  QCheck.Test.make ~name:"random kernel: JIT == tree-walking interpreter" ~count:300
    (QCheck.make gen_kernel ~shrink:shrink_kernel ~print:print_kernel) (fun k ->
      let out = Result.map (fun (o : Oracle.obs) -> o.Oracle.o_out) in
      let c_result jit =
        let explicit = render_explicit k in
        String.equal explicit (render k) || out (run_source ~jit:true explicit) = out jit
      in
      match (run_random ~jit:true k, run_random ~jit:false k) with
      | (Ok jit as r), Ok interp ->
        jit.Oracle.o_out = interp.Oracle.o_out
        && Oracle.executor_violations jit interp = []
        && c_result r
      | (Error jit as r), Error interp -> String.equal jit interp && c_result r
      | Ok _, Error _ | Error _, Ok _ -> false)

(* ---------------------------------------------------------------- *)
(* Repeated launches: local memory is the device's, not the launch's  *)
(* ---------------------------------------------------------------- *)

(* The same kernel launched twice on one driver reuses the device's
   local memories.  "clean" keeps to its frame; "dirty" reads the word
   64 floats above its array (what the lane's previous block left
   there) and leaves a mark there for the next block, so a launch that
   saw an earlier launch's local bytes would compute something else. *)
let relaunch_kernels =
  [
    ( "clean",
      {|
void relaunch(float *in, float *out, int n)
{
  float tmp[4];
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  int k;
  for (k = 0; k < 4; k++)
    tmp[k] = in[t] * (k + 1);
  if (t < n)
    out[t] = tmp[0] + tmp[3] - tmp[t % 4];
}
|} );
    ( "dirty",
      {|
void relaunch(float *in, float *out, int n)
{
  float tmp[4];
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  float stale;
  tmp[0] = in[t];
  stale = tmp[64];
  tmp[64] = in[t] + 1.0f;
  if (t < n)
    out[t] = stale + tmp[0];
}
|} );
  ]

(* [times] launches of [relaunch] on one fresh driver (2 blocks of 32
   threads, [out] cleared before each): every launch's output bits, and
   the driver's launch log. *)
let relaunch_obs ~(jit : bool) ~(times : int) (src : string) : int32 array list * string list =
  let n = 64 in
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  Harness.set_sampling ctx None;
  let m = Harness.cuda_module ctx ~name:"relaunch" ~source:src in
  let h_in = Harness.alloc_f32 ctx n and h_out = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx h_in n (fun i -> 0.25 *. float_of_int (i + 1));
  let d_in = Harness.dev_alloc ctx (4 * n) and d_out = Harness.dev_alloc ctx (4 * n) in
  Harness.h2d ctx ~src:h_in ~dst:d_in ~bytes:(4 * n);
  let once () =
    Harness.fill_f32 ctx h_out n (fun _ -> 0.0);
    Harness.h2d ctx ~src:h_out ~dst:d_out ~bytes:(4 * n);
    ignore
      (Harness.launch_cuda ctx m ~entry:"relaunch" ~grid:(Simt.dim3 2) ~block:(Simt.dim3 32)
         [ Harness.fptr d_in; Harness.fptr d_out; Harness.vint n ]);
    Harness.d2h ctx ~src:d_out ~dst:h_out ~bytes:(4 * n);
    Oracle.bits (Harness.read_f32_array ctx h_out n)
  in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (once () :: acc) in
  let outs = go times [] in
  (outs, Oracle.launch_log (Hostrt.Run_report.of_rt ctx.Harness.rt))

let test_relaunch_is_fresh () =
  List.iter
    (fun (kname, src) ->
      List.iter
        (fun jit ->
          let label = Printf.sprintf "%s/%s" kname (if jit then "jit" else "no-jit") in
          match (relaunch_obs ~jit ~times:2 src, relaunch_obs ~jit ~times:1 src) with
          | ([ out1; out2 ], [ log1; log2 ]), ([ fresh_out ], [ fresh_log ]) ->
            Alcotest.(check (array int32)) (label ^ ": second launch outputs = first") out1 out2;
            Alcotest.(check (array int32))
              (label ^ ": second launch outputs = fresh driver")
              fresh_out out2;
            Alcotest.(check string) (label ^ ": second launch counters = first") log1 log2;
            Alcotest.(check string)
              (label ^ ": second launch counters = fresh driver")
              fresh_log log2
          | _ -> Alcotest.failf "%s: expected two launches and one" label)
        [ true; false ])
    relaunch_kernels

(* ---------------------------------------------------------------- *)
(* Pointers: every operation on an address, both executors            *)
(* ---------------------------------------------------------------- *)

(* Pointer arithmetic in both operand orders, [++]/[--], differences,
   comparisons, a pointer cast to [long] and back, pointers stored to
   and loaded from local memory, and pointers into shared and local
   memory.  [iout] gets the comparison flags and the [long] encoding of
   a global pointer, so the integer image of an address is checked
   bit for bit too. *)
let pointer_src =
  {|
void ptrk(float *in, float *out, long *iout, int n)
{
  __shared__ float sh[32];
  float tmp[4];
  float *slots[2];
  int t = threadIdx.x;
  int i = blockIdx.x * blockDim.x + t;
  float *p = in + i;
  float *q = 1 + in;
  float *sp = sh + t;
  float *lp = tmp;
  long v;
  float *back;
  int k;
  sh[t] = in[i] * 2.0f;
  __syncthreads();
  for (k = 0; k < 4; k++) {
    *lp = in[(i + k) % n];
    lp++;
  }
  lp--;
  slots[0] = p;
  slots[1] = sp;
  v = (long)slots[0];
  back = (float *)v;
  out[i] = *back + *slots[1] + *lp + tmp[0] + q[t] + (float)(lp - tmp) + (float)(p - in)
    + (float)(sh + 31 - sp);
  iout[i] = (p < q) + 2 * (sp >= sh) + 4 * (lp == tmp + 3) + 8 * (back != p) + 16 * (q > in);
  iout[n + i] = v;
}
|}

(* The kernel on 2 blocks of 32 threads: [out]'s bits, [iout] as 32-bit
   words, and the launch log. *)
let pointer_obs ~(jit : bool) : int32 array * int array * string list =
  let n = 64 in
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  Harness.set_sampling ctx None;
  let m = Harness.cuda_module ctx ~name:"ptrk" ~source:pointer_src in
  let h_in = Harness.alloc_f32 ctx n and h_out = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx h_in n (fun i -> float_of_int (i mod 7));
  let words = 4 * n in
  let h_iout = Harness.alloc_i32 ctx words in
  let d_in = Harness.dev_alloc ctx (4 * n) and d_out = Harness.dev_alloc ctx (4 * n) in
  let d_iout = Harness.dev_alloc ctx (4 * words) in
  Harness.h2d ctx ~src:h_in ~dst:d_in ~bytes:(4 * n);
  ignore
    (Harness.launch_cuda ctx m ~entry:"ptrk" ~grid:(Simt.dim3 2) ~block:(Simt.dim3 32)
       [
         Harness.fptr d_in; Harness.fptr d_out; Machine.Value.ptr ~ty:Machine.Cty.Long d_iout;
         Harness.vint n;
       ]);
  Harness.d2h ctx ~src:d_out ~dst:h_out ~bytes:(4 * n);
  Harness.d2h ctx ~src:d_iout ~dst:h_iout ~bytes:(4 * words);
  ( Oracle.bits (Harness.read_f32_array ctx h_out n),
    Harness.read_i32_array ctx h_iout words,
    Oracle.launch_log (Hostrt.Run_report.of_rt ctx.Harness.rt) )

let test_pointer_ops () =
  let out, iout, log = pointer_obs ~jit:true in
  let out', iout', log' = pointer_obs ~jit:false in
  Alcotest.(check (array int32)) "out bits: JIT = interpreter" out' out;
  Alcotest.(check (array int)) "iout words: JIT = interpreter" iout' iout;
  Alcotest.(check (list string)) "launch log: JIT = interpreter" log' log;
  let n = 64 in
  let input i = float_of_int (i mod 7) in
  for i = 0 to n - 1 do
    let t = i mod 32 in
    let want =
      input i +. (2.0 *. input i) +. input ((i + 3) mod n) +. input i +. input (1 + t) +. 3.0
      +. float_of_int i
      +. float_of_int (31 - t)
    in
    Alcotest.(check int32) (Printf.sprintf "out[%d]" i) (Int32.bits_of_float want) out.(i);
    (* little-endian [long]s: iout[i] is words 2i (low) and 2i+1 (high) *)
    Alcotest.(check int) (Printf.sprintf "flags[%d]" i) (if i = 0 then 23 else 22) iout.(2 * i);
    Alcotest.(check int) (Printf.sprintf "(long)p[%d] is a Global address" i) (1 lsl 24)
      iout.((2 * (n + i)) + 1)
  done

(* ---------------------------------------------------------------- *)
(* C's promotions for shifts and unary [-]/[~], both executors        *)
(* ---------------------------------------------------------------- *)

(* A shift has its left operand's promoted type and [-]/[~] their
   operand's promoted type, on the host and on the device: an unsigned
   shifted by a [long] stays 32 bits wide, and [~] of an [unsigned char]
   0 is the [int] -1.  ([x << 40] is undefined in C, so only its type is
   pinned, through [sizeof].) *)
let promotions_src =
  {|int main(void)
{
  unsigned x = 4026531841;
  long l = 4;
  unsigned char uc = 0;
  unsigned short us = 1;
  char c = 100;
  long h[8];
  long d[8];
  h[0] = (x << l) >> 4;
  h[1] = sizeof(x << 40L);
  h[2] = sizeof(c << l);
  h[3] = ~uc;
  h[4] = -us;
  h[5] = ~uc < 0;
  h[6] = sizeof(-c);
  h[7] = c << l;
#pragma omp target map(from: d[0:8])
  {
    unsigned y = 4026531841;
    long m = 4;
    unsigned char vc = 0;
    unsigned short vs = 1;
    char e = 100;
    d[0] = (y << m) >> 4;
    d[1] = sizeof(y << 40L);
    d[2] = sizeof(e << m);
    d[3] = ~vc;
    d[4] = -vs;
    d[5] = ~vc < 0;
    d[6] = sizeof(-e);
    d[7] = e << m;
  }
  printf("host %ld %ld %ld %ld %ld %ld %ld %ld\n", h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
  printf("device %ld %ld %ld %ld %ld %ld %ld %ld\n", d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]);
  return 0;
}
|}

let test_promotions () =
  let want = "host 1 4 4 -1 -1 1 4 1600\ndevice 1 4 4 -1 -1 1 4 1600\n" in
  List.iter
    (fun jit ->
      let config = { Ompi.default_config with jit } in
      let r = Ompi.compile_and_run ~config ~name:"promotions" promotions_src in
      Alcotest.(check string) (if jit then "JIT" else "interpreter") want r.Ompi.run_output)
    [ true; false ]

(* ---------------------------------------------------------------- *)
(* C's conversions of a conditional's arms, both executors            *)
(* ---------------------------------------------------------------- *)

(* [c ? a : b] has its arms' common type whichever arm is taken: an
   [int] arm compares as [unsigned] against an [unsigned] one, and a
   [float] arm divides as a [double] against a [double] one ([sizeof] of
   the conditional is the [double]'s, its operand unevaluated).  The
   expected lines are gcc's on the same program. *)
let conditional_src =
  {|int main(void)
{
  unsigned u = 1;
  int x = -1;
  float f = 0.1f;
  double d = 0.1;
  float g = 3.0f;
  int t;
  for (t = 0; t < 2; t++)
    printf("t=%d lt=%d size=%d q=%.17g\n", t, (t ? u : x) < 3, (int)sizeof(t ? f : d), (t ? f : d) / g);
  return 0;
}
|}

let test_conditional_conversions () =
  let want = "t=0 lt=0 size=8 q=0.033333333333333333\nt=1 lt=1 size=8 q=0.033333333830038704\n" in
  List.iter
    (fun jit ->
      let config = { Ompi.default_config with jit } in
      let r = Ompi.compile_and_run ~config ~name:"conditional" conditional_src in
      Alcotest.(check string) (if jit then "JIT" else "interpreter") want r.Ompi.run_output)
    [ true; false ]

(* ---------------------------------------------------------------- *)
(* The host clock charges each host step on its own                   *)
(* ---------------------------------------------------------------- *)

(* Each host step costs [Rt.host_step_cost_ns], added to the clock one
   step at a time, whenever it is paid.  Between the two readings of
   each pair the loop runs 3002 steps (1001 tests of a branch and a
   [<], 1000 [i++]) and the second [omp_get_wtime] call one more; the
   call itself, [printf]'s and [timed]'s are the 1 and 3 steps before a
   pair's first reading. *)
let wtime_src =
  {|void timed(int n)
{
  int i;
  double a = omp_get_wtime();
  for (i = 0; i < n; i++)
    ;
  double b = omp_get_wtime();
  printf("%.17g %.17g\n", a, b);
}

int main(void)
{
  int i;
  double a = omp_get_wtime();
  for (i = 0; i < 1000; i++)
    ;
  double b = omp_get_wtime();
  printf("%.17g %.17g\n", a, b);
  timed(1000);
  return 0;
}
|}

let test_host_step_rounding () =
  let outputs =
    List.map
      (fun jit ->
        let rt = Hostrt.Rt.create ~config:{ Hostrt.Rt.default_config with jit } () in
        let ctx = Hostrt.Hostexec.make_context rt (Minic.Parser.parse_program wtime_src) in
        let start = Machine.Simclock.now_ns rt.Hostrt.Rt.clock in
        let main = Hashtbl.find ctx.Cinterp.Interp.funcs "main" in
        ignore (Cinterp.Interp.call_fundef ctx main []);
        let cost = Hostrt.Rt.host_step_cost_ns rt in
        let rec add ns n = if n = 0 then ns else add (ns +. cost) (n - 1) in
        let a = add start 1 in
        let b = add a 3003 in
        let a' = add b 3 in
        let b' = add a' 3003 in
        let line x y = Printf.sprintf "%.17g %.17g\n" (x *. 1e-9) (y *. 1e-9) in
        Alcotest.(check bool) "3003 *. cost rounds differently" true
          (line a b <> line a (a +. (3003.0 *. cost)));
        let out = Buffer.contents ctx.Cinterp.Interp.output in
        Alcotest.(check string) (if jit then "JIT" else "interpreter") (line a b ^ line a' b') out;
        out)
      [ true; false ]
  in
  Alcotest.(check bool) "same bits on both executors" true (List.nth outputs 0 = List.nth outputs 1)

(* ---------------------------------------------------------------- *)
(* Corrupt JIT cache: both compiled forms must be rebuilt             *)
(* ---------------------------------------------------------------- *)

(* PTX mode.  The first run JIT-compiles the PTX and closure-compiles
   the module.  After a device reset (module table cleared, disk cache
   kept) the reload's cache hit is injected as corrupt: recovery must
   invalidate the entry AND the resident module, so the retry recompiles
   both forms — a second jit_compile and a second closure_compile.  The
   plan is armed at load: the cold compile is no cache hit, so only the
   reload consults the "jit" site. *)
let test_corrupt_cache_recompiles_both_forms () =
  let config =
    { Ompi.default_config with Ompi.binary_mode = Nvcc.Ptx; faults = parse_ok "jit:nth=1" }
  in
  let inst = Ompi.load ~config ~trace:true (Ompi.compile ~name:"jit_corrupt" Oracle.saxpy_src) in
  let tr =
    match inst.Ompi.i_trace with Some tr -> tr | None -> Alcotest.fail "instance has no trace"
  in
  let jit_events name = Perf.Trace.count_events tr ~cat:"jit" ~name () in
  let r1 = Ompi.run inst () in
  Alcotest.(check string) "clean run correct" Oracle.saxpy_expected r1.Ompi.run_output;
  Alcotest.(check int) "one initial PTX compile" 1 (jit_events "jit_compile");
  Alcotest.(check int) "one initial closure compile" 1 (jit_events "closure_compile");
  Driver.reset (Hostrt.Rt.device inst.Ompi.i_rt 0).Hostrt.Rt.dev_driver;
  let r2 = Ompi.run inst () in
  Alcotest.(check string) "recovered run correct" Oracle.saxpy_expected r2.Ompi.run_output;
  Alcotest.(check int) "corrupt cache entry injected" 1
    (Perf.Trace.count_events tr ~cat:"fault" ~name:"fault_injected" ());
  Alcotest.(check int) "PTX recompiled after invalidation" 2 (jit_events "jit_compile");
  Alcotest.(check int) "closure form recompiled too" 2 (jit_events "closure_compile");
  Alcotest.(check (option string)) "device stays alive" None
    (Hostrt.Dataenv.dead_reason (Hostrt.Rt.device inst.Ompi.i_rt 0).Hostrt.Rt.dev_dataenv)

(* Compilation is once per module load, not per launch: relaunching must
   not add closure_compile events. *)
let test_compile_once_per_module () =
  let ctx = Harness.create () in
  let tr = Harness.enable_trace ctx in
  let app =
    match Suite.find "atax" with Some a -> a | None -> Alcotest.fail "atax not in suite"
  in
  let n = Oracle.smallest app in
  ignore (app.Suite.ap_run ctx Harness.Ompi_cudadev ~n);
  let after_first = Perf.Trace.count_events tr ~cat:"jit" ~name:"closure_compile" () in
  Alcotest.(check bool) "at least one closure compile" true (after_first >= 1);
  ignore (app.Suite.ap_run ctx Harness.Ompi_cudadev ~n);
  let launches = List.length (Harness.driver ctx).Driver.launches in
  Alcotest.(check bool) "several launches recorded" true (launches > after_first);
  Alcotest.(check int) "no recompilation on relaunch" after_first
    (Perf.Trace.count_events tr ~cat:"jit" ~name:"closure_compile" ())

(* ---------------------------------------------------------------- *)
(* Host programs: one executor for host and device code               *)
(* ---------------------------------------------------------------- *)

(* Serve's service classes, stripped to host-only code as Serve's
   reference mirrors run them: a few requests, each with a fresh
   payload.  Every fill is a multiple of 1/16 in [-1, 1] and the sizes
   are small, so every float32 operation is exact and the OCaml model
   below computes the expected bits. *)
let service_n = 8

let service_steps = 3

let q16 v = float_of_int v /. 16.0

let payload step i = q16 ((((step * 13) + (i * 5)) mod 31) - 15)

let matrix i = q16 (((i * 7) mod 33) - 16)

let initial i = q16 ((i mod 29) - 14)

(* One request's effect on the output vector, in exact arithmetic. *)
let service_model (kind : Serve.app_kind) ~(step : int) (y : float array) : float array =
  let n = service_n and cols = Serve.ingest_cols in
  let sum len f = List.fold_left ( +. ) 0.0 (List.init len f) in
  match kind with
  | Serve.Matvec ->
    Array.mapi
      (fun i yi -> (yi *. 0.5) +. sum n (fun j -> matrix ((i * n) + j) *. payload step j))
      y
  | Serve.Ingest ->
    Array.init n (fun i -> sum cols (fun j -> payload step ((i * cols) + j) *. initial j))
  | Serve.Scale -> Array.map (fun yi -> (yi *. 1.5) +. 2.0) y

(* Output bits after each request, plus the simulated time. *)
let run_service ~(jit : bool) (kind : Serve.app_kind) : int32 array list * float =
  let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
  let p =
    Harness.prepare_omp ~host_interp:true ctx ~name:(Serve.entry_of kind) (Serve.source_of kind)
  in
  let n = service_n and cols = Serve.ingest_cols in
  let y = Harness.alloc_f32 ctx n in
  Harness.fill_f32 ctx y n initial;
  let request step =
    match kind with
    | Serve.Matvec ->
      let a = Harness.alloc_f32 ctx (n * n) and x = Harness.alloc_f32 ctx n in
      Harness.fill_f32 ctx a (n * n) matrix;
      Harness.fill_f32 ctx x n (payload step);
      Harness.call_omp p (Serve.entry_of kind)
        [ Harness.vint n; Harness.fptr a; Harness.fptr x; Harness.fptr y ]
    | Serve.Ingest ->
      let s = Harness.alloc_f32 ctx (n * cols) and x = Harness.alloc_f32 ctx cols in
      Harness.fill_f32 ctx s (n * cols) (payload step);
      Harness.fill_f32 ctx x cols initial;
      Harness.call_omp p (Serve.entry_of kind)
        [ Harness.vint n; Harness.vint cols; Harness.fptr s; Harness.fptr x; Harness.fptr y ]
    | Serve.Scale -> Harness.call_omp p (Serve.entry_of kind) [ Harness.vint n; Harness.fptr y ]
  in
  let outs = ref [] in
  let time =
    Harness.measure ctx (fun () ->
        for step = 0 to service_steps - 1 do
          request step;
          outs := Oracle.bits (Harness.read_f32_array ctx y n) :: !outs
        done)
  in
  (List.rev !outs, time)

let service_kinds = [ Serve.Matvec; Serve.Ingest; Serve.Scale ]

let test_service_mirrors_differential () =
  List.iter
    (fun kind ->
      let name = Serve.app_name kind in
      let jit_outs, jit_time = run_service ~jit:true kind in
      let interp_outs, interp_time = run_service ~jit:false kind in
      let _, want =
        List.fold_left
          (fun (y, acc) step ->
            let y = service_model kind ~step y in
            (y, Oracle.bits y :: acc))
          (Array.init service_n initial, [])
          (List.init service_steps Fun.id)
      in
      Alcotest.(check (list (array int32))) (name ^ ": matches the model") (List.rev want) jit_outs;
      Alcotest.(check (list (array int32))) (name ^ ": bit-identical outputs") interp_outs jit_outs;
      Alcotest.(check (float 0.0)) (name ^ ": identical simulated time") interp_time jit_time)
    service_kinds

(* A host context runs on the executor its runtime was configured
   with: closures with the JIT on, the tree-walker with it off. *)
let test_host_context_follows_switch () =
  let src = Serve.source_of Serve.Scale and name = Serve.entry_of Serve.Scale in
  let prepare jit =
    let ctx = Harness.create ~config:{ Hostrt.Rt.default_config with jit } () in
    Harness.prepare_omp ~host_interp:true ctx ~name src
  in
  Alcotest.(check bool) "jit on: host calls dispatch to closures" true
    (Option.is_some (prepare true).Harness.op_ctx.Cinterp.Interp.dispatch);
  Alcotest.(check bool) "jit off: host runs on the tree-walker" true
    (Option.is_none (prepare false).Harness.op_ctx.Cinterp.Interp.dispatch)

(* No silent fallback on the host side either: every function of every
   host program — the six Fig. 4 OMPi apps translated and stripped, and
   Serve's live and mirror programs — has a closure form.  The compile
   is a function of the context's own tables, so repeating it here sees
   what make_context built.  And host compiles are not module loads: they
   emit no closure_compile event. *)
let fig4_omp_sources =
  [
    ("3dconv", Conv3d.omp_source);
    ("bicg", Bicg.omp_source);
    ("atax", Atax.omp_source);
    ("mvt", Mvt.omp_source);
    ("gemm", Gemm.omp_source);
    ("gramschmidt", Gramschmidt.omp_source);
  ]

let test_every_host_function_compiles () =
  let ctx = Harness.create () in
  let tr = Harness.enable_trace ctx in
  let check_program label (p : Harness.omp_program) =
    let ictx = p.Harness.op_ctx in
    let funcs = ictx.Cinterp.Interp.funcs in
    (* the static environment of the context's program, from its tables *)
    let signatures = Hashtbl.create 16 and globals = Hashtbl.create 16 in
    Hashtbl.iter
      (fun name (fd : Minic.Ast.fundef) ->
        Hashtbl.replace signatures name (fd.Minic.Ast.f_ret, fd.Minic.Ast.f_params))
      funcs;
    Hashtbl.iter (fun name (ty, _) -> Hashtbl.replace globals name ty) ictx.Cinterp.Interp.globals;
    let env =
      { Minic.Typecheck.structs = ictx.Cinterp.Interp.structs; funcs = signatures; globals; scopes = [] }
    in
    let c = Cinterp.Jit.compile ~env ~funcs in
    Alcotest.(check (list (pair string string)))
      (label ^ ": no function left out") [] (Cinterp.Jit.left_out c);
    Alcotest.(check int)
      (label ^ ": every function compiled")
      (Hashtbl.length funcs) (Cinterp.Jit.function_count c);
    Alcotest.(check bool) (label ^ ": context runs the closures") true
      (Option.is_some ictx.Cinterp.Interp.dispatch)
  in
  let programs =
    fig4_omp_sources @ List.map (fun k -> (Serve.entry_of k, Serve.source_of k)) service_kinds
  in
  List.iter
    (fun (name, src) ->
      check_program (name ^ " (translated)") (Harness.prepare_omp ctx ~name src);
      check_program (name ^ " (stripped)") (Harness.prepare_omp ~host_interp:true ctx ~name src))
    programs;
  Alcotest.(check int) "host compiles emit no closure_compile event" 0
    (Perf.Trace.count_events tr ~cat:"jit" ~name:"closure_compile" ())

(* ---------------------------------------------------------------- *)

let () =
  let app_cases =
    List.map
      (fun (app : Suite.app) ->
        Alcotest.test_case (app.Suite.ap_name ^ " JIT == interpreter == reference") `Slow
          (test_app_differential app))
      Suite.all
  in
  Alcotest.run "jit"
    [
      ("differential", app_cases);
      ( "legs",
        [
          Alcotest.test_case "fault/zerocopy/elide/stream legs" `Slow test_config_legs;
          Alcotest.test_case "module carries closures iff jit on" `Quick
            test_module_carries_closures;
          Alcotest.test_case "every Fig. 4 function compiles" `Quick test_every_function_compiles;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_random_kernel_equivalence ]);
      ( "relaunch",
        [
          Alcotest.test_case "second launch = first = fresh driver" `Quick test_relaunch_is_fresh;
        ] );
      ( "c rules",
        [
          Alcotest.test_case "pointer operations: JIT == interpreter" `Quick test_pointer_ops;
          Alcotest.test_case "shift and unary promotions" `Quick test_promotions;
          Alcotest.test_case "conditional arms convert to their common type" `Quick
            test_conditional_conversions;
        ] );
      ( "host",
        [
          Alcotest.test_case "Serve mirrors: JIT == interpreter == model" `Quick
            test_service_mirrors_differential;
          Alcotest.test_case "host context follows the switch" `Quick
            test_host_context_follows_switch;
          Alcotest.test_case "every host function compiles" `Quick
            test_every_host_function_compiles;
          Alcotest.test_case "host clock charges each step on its own" `Quick
            test_host_step_rounding;
        ] );
      ( "cache",
        [
          Alcotest.test_case "corrupt cache recompiles PTX and closures" `Quick
            test_corrupt_cache_recompiles_both_forms;
          Alcotest.test_case "closure compile once per module load" `Quick
            test_compile_once_per_module;
        ] );
    ]
