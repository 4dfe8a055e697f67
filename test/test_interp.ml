(* Interpreter tests: C semantics of the tree-walking engine — values,
   control flow, functions, pointers, structs, printf, float32. *)

open Machine
open Minic

(* Run [fn] of [src] with [args] in a host-only context. *)
let run ?(check = true) (src : string) (fn : string) (args : Value.t list) : Value.t * string =
  let prog = Parser.parse_program src in
  if check then
    (match Typecheck.check_program prog with
    | [] -> ()
    | errs -> Alcotest.failf "type errors: %s" (String.concat "; " errs));
  let host = Mem.create ~space:Addr.Host "host" in
  let structs = Cty.create_layout_env () in
  let funcs = Hashtbl.create 8 in
  let resolve a =
    match Addr.space a with
    | Addr.Host -> host
    | _ -> Alcotest.fail "non-host access in interp test"
  in
  let ctx = Cinterp.Interp.create ~structs ~funcs ~resolve ~local:host () in
  Cinterp.Interp.install_common_builtins ctx.Cinterp.Interp.builtins;
  ignore (Cinterp.Interp.load_program ctx prog);
  (* allocate program globals, as the host runtime does *)
  List.iter
    (function
      | Ast.Gvar (d, _) ->
        let addr = Mem.alloc host (Cty.sizeof structs d.Ast.d_ty) in
        Cinterp.Interp.register_global ctx d.Ast.d_name d.Ast.d_ty addr
      | _ -> ())
    prog;
  Cinterp.Interp.push_frame ctx;
  let fd = Hashtbl.find funcs fn in
  let v = Cinterp.Interp.call_fundef ctx fd args in
  (v, Buffer.contents ctx.Cinterp.Interp.output)

let run_int ?check src fn args = Value.to_int (fst (run ?check src fn args))

let run_float src fn args = Value.as_float (fst (run src fn args))

let check_int = Alcotest.(check int)

let test_arith () =
  check_int "add" 7 (run_int "int f(int a, int b) { return a + b; }" "f" [ Value.of_int 3; Value.of_int 4 ]);
  check_int "precedence" 14 (run_int "int f(void) { return 2 + 3 * 4; }" "f" []);
  check_int "division truncates" (-3) (run_int "int f(void) { return -7 / 2; }" "f" []);
  check_int "mod" 1 (run_int "int f(void) { return 7 % 3; }" "f" []);
  check_int "bitops" 6 (run_int "int f(void) { return (5 ^ 3) | (4 & 6); }" "f" []);
  check_int "shifts" 40 (run_int "int f(void) { return (5 << 3) % 41; }" "f" []);
  check_int "int overflow wraps" (-2147483648) (run_int "int f(void) { int x = 2147483647; return x + 1; }" "f" [])

let test_unsigned () =
  check_int "unsigned division" 2147483647
    (run_int "int f(void) { unsigned int u = 0xFFFFFFFE; return u / 2; }" "f" []);
  check_int "unsigned compare" 1
    (run_int "int f(void) { unsigned int u = 0xFFFFFFFF; return u > 10; }" "f" [])

let test_float32 () =
  let v = run_float "float f(float a, float b) { return a + b; }" "f" [ Value.flt ~ty:Cty.Float 0.1; Value.flt ~ty:Cty.Float 0.2 ] in
  Alcotest.(check bool) "f32 addition rounds" true (Float.abs (v -. 0.3) < 1e-6 && v <> 0.3);
  let d = run_float "double f(double a) { return a / 3.0; }" "f" [ Value.flt 1.0 ] in
  Alcotest.(check bool) "double division" true (d = 1.0 /. 3.0)

let test_short_circuit () =
  (* the second operand must not be evaluated (would divide by zero) *)
  check_int "&& short-circuits" 0 (run_int "int f(int z) { return z != 0 && 10 / z > 1; }" "f" [ Value.of_int 0 ]);
  check_int "|| short-circuits" 1 (run_int "int f(int z) { return z == 0 || 10 / z > 1; }" "f" [ Value.of_int 0 ])

let test_control_flow () =
  check_int "if/else" 2 (run_int "int f(int x) { if (x > 0) return 1; else return 2; }" "f" [ Value.of_int (-5) ]);
  check_int "while" 10 (run_int "int f(void) { int i = 0; while (i < 10) i++; return i; }" "f" []);
  check_int "do-while runs once" 1 (run_int "int f(void) { int i = 0; do i++; while (0); return i; }" "f" []);
  check_int "for with break" 5
    (run_int "int f(void) { int i; for (i = 0; i < 100; i++) if (i == 5) break; return i; }" "f" []);
  check_int "continue skips" 25
    (run_int "int f(void) { int s = 0; for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; } return s; }" "f" []);
  check_int "nested loops" 100
    (run_int "int f(void) { int s = 0; for (int i = 0; i < 10; i++) for (int j = 0; j < 10; j++) s++; return s; }" "f" [])

let test_functions () =
  check_int "recursion (fib)" 55
    (run_int "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); }" "fib"
       [ Value.of_int 10 ]);
  check_int "mutual helpers" 43
    (run_int "int dbl(int x) { return 2 * x; }\nint f(int x) { return dbl(x) + dbl(x / 2) + 1; }" "f"
       [ Value.of_int 14 ]);
  Alcotest.(check bool) "stack overflow detected" true
    (match run ~check:true "int f(int n) { return f(n + 1); }" "f" [ Value.of_int 0 ] with
    | exception Cinterp.Interp.Runtime_error _ -> true
    | _ -> false)

let test_pointers_arrays () =
  check_int "array sum" 45
    (run_int "int f(void) { int a[10]; int i; for (i = 0; i < 10; i++) a[i] = i; int s = 0; for (i = 0; i < 10; i++) s += a[i]; return s; }" "f" []);
  check_int "pointer write-through" 7
    (run_int "void set(int *p, int v) { *p = v; }\nint f(void) { int x = 0; set(&x, 7); return x; }" "f" []);
  check_int "pointer arithmetic" 30
    (run_int "int f(void) { int a[5] = { 10, 20, 30, 40, 50 }; int *p = a; p++; return *(p + 1); }" "f" []);
  check_int "2d array" 12
    (run_int "int f(void) { int m[3][4]; int i; int j; for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) m[i][j] = i * 4 + j + 1; return m[2][3]; }" "f" []);
  check_int "array decay to function" 6
    (run_int "int sum3(int *a) { return a[0] + a[1] + a[2]; }\nint f(void) { int x[3] = { 1, 2, 3 }; return sum3(x); }" "f" [])

let test_structs () =
  check_int "member access" 30
    (run_int "struct pt { int x; int y; };\nint f(void) { struct pt p; p.x = 10; p.y = 20; return p.x + p.y; }" "f" []);
  check_int "arrow through pointer" 99
    (run_int "struct pt { int x; int y; };\nvoid init(struct pt *p) { p->x = 99; }\nint f(void) { struct pt p; init(&p); return p.x; }" "f" []);
  check_int "nested struct" 5
    (run_int "struct in { int v; };\nstruct out { struct in a; struct in b; };\nint f(void) { struct out o; o.a.v = 2; o.b.v = 3; return o.a.v + o.b.v; }" "f" [])

let test_incdec () =
  check_int "pre vs post" 21
    (run_int "int f(void) { int i = 10; int a = i++; int b = ++i; return a * 0 + i + b - 3; }" "f" []
    |> fun v -> v);
  check_int "post returns old" 10
    (run_int "int f(void) { int i = 10; int old = i++; return old; }" "f" []);
  check_int "pointer increment" 2
    (run_int "int f(void) { int a[3] = { 1, 2, 3 }; int *p = a; p++; return *p; }" "f" [])

let test_sizeof_cast () =
  check_int "sizeof int" 4 (run_int "int f(void) { return sizeof(int); }" "f" []);
  check_int "sizeof array" 40 (run_int "int f(void) { int a[10]; return sizeof(a); }" "f" []);
  check_int "sizeof expr deref" 4 (run_int "int f(int *p) { return sizeof(*p); }" "f" [ Value.ptr Addr.null ]);
  check_int "float to int cast" 3 (run_int "int f(void) { float x = 3.7f; return (int)x; }" "f" []);
  check_int "int to char truncation" 1 (run_int "int f(void) { return (char)257; }" "f" [])

let test_printf () =
  let _, out =
    run "int f(void) { printf(\"i=%d f=%.2f s=%s c=%c\\n\", 42, 3.14159, \"ok\", 'x'); return 0; }" "f" []
  in
  Alcotest.(check string) "formatting" "i=42 f=3.14 s=ok c=x\n" out;
  let _, out2 = run "int f(void) { printf(\"%5d|%-3d|\", 7, 7); return 0; }" "f" [] in
  Alcotest.(check string) "width and flags" "    7|7  |" out2

let test_runtime_errors () =
  let raises src =
    match run ~check:false src "f" [] with exception Cinterp.Interp.Runtime_error _ -> true | _ -> false
  in
  Alcotest.(check bool) "div by zero" true (raises "int f(void) { int z = 0; return 1 / z; }");
  Alcotest.(check bool) "mod by zero" true (raises "int f(void) { int z = 0; return 1 % z; }");
  Alcotest.(check bool) "unknown function" true (raises "int f(void) { return ghost(); }");
  Alcotest.(check bool) "unbound variable" true (raises "int f(void) { return phantom; }")

let test_globals_and_strings () =
  (* string interning survives frame push/pop cycles *)
  let src = "int f(void) { printf(\"tick \"); printf(\"tick \"); return 0; }" in
  let _, out = run src "f" [] in
  Alcotest.(check string) "repeated interned strings" "tick tick " out

let test_math_builtins () =
  Alcotest.(check bool) "sqrt" true (run_float "double f(double x) { return sqrt(x); }" "f" [ Value.flt 16.0 ] = 4.0);
  Alcotest.(check bool) "sqrtf rounds to f32" true
    (let v = run_float "float f(float x) { return sqrtf(x); }" "f" [ Value.flt ~ty:Cty.Float 2.0 ] in
     Float.abs (v -. sqrt 2.0) < 1e-6);
  Alcotest.(check bool) "fabs" true (run_float "double f(void) { return fabs(-2.5); }" "f" [] = 2.5);
  check_int "abs" 9 (run_int "int f(void) { return abs(-9); }" "f" [])

let prop_int_expr_eval =
  (* compare interpreted arithmetic against OCaml semantics *)
  QCheck.Test.make ~name:"interpreted int arithmetic matches reference" ~count:200
    QCheck.(triple (int_range (-1000) 1000) (int_range (-1000) 1000) (int_range 1 100))
    (fun (a, b, c) ->
      let src = "int f(int a, int b, int c) { return (a + b) * 2 - a / c + b % c; }" in
      let got = run_int src "f" [ Value.of_int a; Value.of_int b; Value.of_int c ] in
      (* C semantics: division truncates toward zero, as OCaml's / does *)
      got = ((a + b) * 2) - (a / c) + (b mod c))


let test_comma_ternary () =
  check_int "comma in for-update" 10
    (run_int "int f(void) { int s = 0; int j = 0; for (int i = 0; i < 5; i++, j++) s = i + j; return s - (-2); }" "f" []);
  check_int "nested ternary" 2
    (run_int "int f(int x) { return x < 0 ? -1 : x == 0 ? 0 : x < 10 ? 2 : 3; }" "f" [ Value.of_int 5 ]);
  check_int "comma value is rhs" 7
    (run_int "int f(void) { int a; int b; a = (b = 3, b + 4); return a; }" "f" [])

let test_char_arith () =
  check_int "char arithmetic" 3 (run_int "int f(void) { char c = 'd'; return c - 'a'; }" "f" []);
  check_int "char wraps" (-126) (run_int "int f(void) { char c = 127; c = c + 3; return c; }" "f" []);
  check_int "uchar stays positive" 130 (run_int "int f(void) { unsigned char c = 127; c = c + 3; return c; }" "f" [])

let test_shadowing () =
  check_int "block shadowing" 12
    (run_int "int f(void) { int x = 10; { int x = 1; x = x + 1; } return x + 2; }" "f" []);
  check_int "loop variable scope" 5
    (run_int "int f(void) { int i = 5; for (int i = 0; i < 3; i++) { } return i; }" "f" [])

let test_while_side_effects () =
  check_int "assignment in condition" 4
    (run_int "int f(void) { int n = 16; int c = 0; while ((n = n / 2) > 0) c++; return c; }" "f" []);
  check_int "post-increment in index" 3
    (run_int "int f(void) { int a[4] = { 0, 1, 2, 3 }; int i = 0; int s = 0; while (i < 3) s = a[i++] + 1; return s; }" "f" [])

let test_global_variables () =
  check_int "globals persist across calls" 3
    (run_int "int counter;\nvoid bump(void) { counter = counter + 1; }\nint f(void) { bump(); bump(); bump(); return counter; }" "f" [])

let () =
  Alcotest.run "interp"
    [
      ( "expressions",
        [
          Alcotest.test_case "integer arithmetic" `Quick test_arith;
          Alcotest.test_case "unsigned semantics" `Quick test_unsigned;
          Alcotest.test_case "float32 vs double" `Quick test_float32;
          Alcotest.test_case "short-circuit evaluation" `Quick test_short_circuit;
          Alcotest.test_case "increment/decrement" `Quick test_incdec;
          Alcotest.test_case "sizeof and casts" `Quick test_sizeof_cast;
          Alcotest.test_case "comma and ternary" `Quick test_comma_ternary;
          Alcotest.test_case "char arithmetic" `Quick test_char_arith;
          QCheck_alcotest.to_alcotest prop_int_expr_eval;
        ] );
      ( "statements",
        [
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "functions and recursion" `Quick test_functions;
          Alcotest.test_case "shadowing" `Quick test_shadowing;
          Alcotest.test_case "condition side effects" `Quick test_while_side_effects;
          Alcotest.test_case "global variables" `Quick test_global_variables;
        ] );
      ( "memory",
        [
          Alcotest.test_case "pointers and arrays" `Quick test_pointers_arrays;
          Alcotest.test_case "structs" `Quick test_structs;
          Alcotest.test_case "interned strings" `Quick test_globals_and_strings;
        ] );
      ( "builtins",
        [
          Alcotest.test_case "printf" `Quick test_printf;
          Alcotest.test_case "math builtins" `Quick test_math_builtins;
          Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
        ] );
    ]
