(* Typechecker tests: expression typing, scoping, whole-program checks. *)

open Machine
open Minic

let cty = Alcotest.testable (Fmt.of_to_string Cty.show) Cty.equal

(* type an expression in a context with some declared variables *)
let type_in (decls : (string * Cty.t) list) (src : string) : Cty.t =
  let env = Typecheck.create () in
  Typecheck.push_scope env;
  List.iter (fun (n, ty) -> Typecheck.add_var env n ty) decls;
  Typecheck.type_of_expr env (Parser.parse_expr_string src)

let base = [ ("i", Cty.Int); ("n", Cty.Int); ("f", Cty.Float); ("d", Cty.Double);
             ("p", Cty.Ptr Cty.Float); ("a", Cty.Array (Cty.Float, Some 8));
             ("m", Cty.Array (Cty.Array (Cty.Float, Some 4), Some 4));
             ("u", Cty.Uint); ("l", Cty.Long) ]

let test_literals () =
  Alcotest.check cty "int" Cty.Int (type_in [] "42");
  Alcotest.check cty "float suffix" Cty.Float (type_in [] "1.5f");
  Alcotest.check cty "double" Cty.Double (type_in [] "1.5");
  Alcotest.check cty "string" (Cty.Ptr Cty.Char) (type_in [] "\"hi\"");
  Alcotest.check cty "char is int" Cty.Int (type_in [] "'c'")

let test_arithmetic () =
  Alcotest.check cty "int+int" Cty.Int (type_in base "i + n");
  Alcotest.check cty "int*float" Cty.Float (type_in base "i * f");
  Alcotest.check cty "float+double" Cty.Double (type_in base "f + d");
  Alcotest.check cty "int+uint" Cty.Uint (type_in base "i + u");
  Alcotest.check cty "long+int" Cty.Long (type_in base "l + i");
  Alcotest.check cty "comparison is int" Cty.Int (type_in base "f < d");
  Alcotest.check cty "logical is int" Cty.Int (type_in base "i && n")

let test_pointers () =
  Alcotest.check cty "deref" Cty.Float (type_in base "*p");
  Alcotest.check cty "index ptr" Cty.Float (type_in base "p[3]");
  Alcotest.check cty "index array" Cty.Float (type_in base "a[3]");
  Alcotest.check cty "2d row" (Cty.Array (Cty.Float, Some 4)) (type_in base "m[1]");
  Alcotest.check cty "2d element" Cty.Float (type_in base "m[1][2]");
  Alcotest.check cty "ptr arith" (Cty.Ptr Cty.Float) (type_in base "p + 4");
  Alcotest.check cty "ptr diff" Cty.Long (type_in base "p - p");
  Alcotest.check cty "addrof" (Cty.Ptr Cty.Int) (type_in base "&i");
  Alcotest.check cty "array decay in addrof ctx" (Cty.Ptr (Cty.Array (Cty.Float, Some 8)))
    (type_in base "&a")

let test_assign_cast_sizeof () =
  Alcotest.check cty "assign has lhs type" Cty.Float (type_in base "f = i");
  Alcotest.check cty "compound assign" Cty.Float (type_in base "f += d");
  Alcotest.check cty "cast" (Cty.Ptr Cty.Int) (type_in base "(int *)p");
  Alcotest.check cty "sizeof" Cty.Ulong (type_in base "sizeof(a)");
  Alcotest.check cty "conditional" Cty.Double (type_in base "i ? f : d")

let test_struct_typing () =
  let env = Typecheck.create () in
  ignore (Cty.define_struct env.Typecheck.structs "pt" [ ("x", Cty.Int); ("y", Cty.Float) ]);
  Typecheck.push_scope env;
  Typecheck.add_var env "s" (Cty.Struct "pt");
  Typecheck.add_var env "sp" (Cty.Ptr (Cty.Struct "pt"));
  Alcotest.check cty "member" Cty.Int (Typecheck.type_of_expr env (Parser.parse_expr_string "s.x"));
  Alcotest.check cty "arrow" Cty.Float (Typecheck.type_of_expr env (Parser.parse_expr_string "sp->y"))

let test_errors () =
  let fails decls src =
    match type_in decls src with
    | exception Typecheck.Error _ -> true
    | exception Machine.Cty.Type_error _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "unbound" true (fails [] "nope");
  Alcotest.(check bool) "deref int" true (fails base "*i");
  Alcotest.(check bool) "member of int" true (fails base "i.x");
  Alcotest.(check bool) "unknown call" true (fails base "mystery(1)")

let test_scoping () =
  let env = Typecheck.create () in
  Typecheck.push_scope env;
  Typecheck.add_var env "x" Cty.Int;
  Typecheck.push_scope env;
  Typecheck.add_var env "x" Cty.Float;
  Alcotest.check cty "inner shadows" Cty.Float (Option.get (Typecheck.lookup_var env "x"));
  Typecheck.pop_scope env;
  Alcotest.check cty "outer restored" Cty.Int (Option.get (Typecheck.lookup_var env "x"))

let test_check_program () =
  let ok = Typecheck.check_program (Parser.parse_program
    "int add(int a, int b) { return a + b; }\nint main(void) { int x = add(1, 2); return x; }") in
  Alcotest.(check (list string)) "clean program" [] ok;
  let errs = Typecheck.check_program (Parser.parse_program
    "int main(void) { return bogus + 1; }") in
  Alcotest.(check bool) "reports unbound" true (List.length errs > 0);
  (* for-init declared variables are visible in the condition *)
  let errs2 = Typecheck.check_program (Parser.parse_program
    "int main(void) { int s = 0; for (int i = 0; i < 10; i++) s += i; return s; }") in
  Alcotest.(check (list string)) "for-scope" [] errs2

(* Every subexpression is typed: an error anywhere in an expression
   (an assignment's right side, a subscript, a cast's operand, a call
   argument, a condition, either arm of [?:], either side of [,], a
   [sizeof] operand) is reported, and what C forbids of the operators
   is rejected. *)
let test_every_subexpression () =
  let wrap body = "int g(int v) { return v; }\nint main(void) { int x = 1; float f = 2.0f; int a[4]; int *p = a; " ^ body ^ " return 0; }" in
  let errors body = Typecheck.check_program (Parser.parse_program (wrap body)) in
  Alcotest.(check (list string)) "the frame is well typed" [] (errors "x = a[x] + (int)f;");
  List.iter
    (fun body ->
      Alcotest.(check bool) (body ^ " is rejected") true (errors body <> []))
    [
      "x = phantom;"; "a[phantom] = 1;"; "x = (int)phantom;"; "x = g(phantom);";
      "if (phantom) x = 2;"; "while (phantom) x = 2;"; "x = x ? phantom : 1;";
      "x = x ? 1 : phantom;"; "x = (phantom, 1);"; "x = (1, phantom);"; "x = sizeof(phantom);";
      "x = x << 1.5;"; "x = f % 2;"; "x = ~f;"; "x = x & f;"; "x = (int)(p * 2);";
      "x = (int)(p / 2);"; "p = p + p;"; "x = a[f];"; "f = p;"; "f = (float)p;";
      "return (int)(p * 2);"; "3 = x;";
    ];
  (* one error per ill-typed statement, in source order *)
  Alcotest.(check (list string)) "errors in order"
    [ "unbound identifier 'q1'"; "unbound identifier 'q2'" ]
    (errors "x = q1; x = 1; x = q2;")

(* The elaborated program makes the conversions C implies explicit: a
   conditional's arm of another type is cast to the conditional's type,
   and [sizeof expr] becomes [sizeof(type)]. *)
let test_elaboration () =
  let src = "int main(void) { unsigned u = 1; int x = -1; float f = 0.0f; double d = 0.0; int t = 0; long s = sizeof(t ? f : d); return (t ? u : x) < 3; }" in
  match Typecheck.elaborate (Parser.parse_program src) with
  | Error errs -> Alcotest.failf "type errors: %s" (String.concat "; " errs)
  | Ok (_, [ Ast.Gfun f ]) -> (
    match f.Ast.f_body with
    | Ast.Sblock stmts -> (
      match List.rev stmts with
      | Ast.Sreturn (Some (Ast.Binop (Ast.Lt, cond, _)))
        :: Ast.Sdecl [ { Ast.d_init = Some (Ast.Iexpr size); _ } ]
        :: _ ->
        Alcotest.(check bool) "the int arm is converted to unsigned" true
          (cond = Ast.Cond (Ast.Ident "t", Ast.Ident "u", Ast.Cast (Cty.Uint, Ast.Ident "x")));
        Alcotest.(check bool) "sizeof of the conditional's type" true (size = Ast.SizeofT Cty.Double)
      | _ -> Alcotest.fail "unexpected body shape")
    | _ -> Alcotest.fail "unexpected body")
  | Ok _ -> Alcotest.fail "unexpected program shape"

(* C's common type of a conditional's arms. *)
let test_cond_type () =
  Alcotest.check cty "int and unsigned" Cty.Uint (Typecheck.cond_type Cty.Int Cty.Uint);
  Alcotest.check cty "float and double" Cty.Double (Typecheck.cond_type Cty.Float Cty.Double);
  Alcotest.check cty "char and char" Cty.Int (Typecheck.cond_type Cty.Char Cty.Char);
  Alcotest.check cty "pointer and null" (Cty.Ptr Cty.Float)
    (Typecheck.cond_type (Cty.Ptr Cty.Float) Cty.Int);
  Alcotest.check cty "two pointer types" (Cty.Ptr Cty.Void)
    (Typecheck.cond_type (Cty.Ptr Cty.Float) (Cty.Ptr Cty.Int));
  Alcotest.check cty "conditional expression" Cty.Uint (type_in base "i ? u : n")

(* Calls resolve as the executors resolve them: a builtin shadows a
   defined function of the same name. *)
let test_builtin_shadows () =
  let env =
    Typecheck.of_program
      (Parser.parse_program "float abs(float v) { return v < 0.0f ? -v : v; }\nfloat h(float v) { return v; }")
  in
  Alcotest.check cty "builtin's type" Cty.Int
    (Typecheck.type_of_expr env (Parser.parse_expr_string "abs(1.5f)"));
  Alcotest.check cty "defined function's type" Cty.Float
    (Typecheck.type_of_expr env (Parser.parse_expr_string "h(1.5f)"))

(* Calls are checked against the callee's signature, a builtin's or a
   defined or declared function's: the argument count (at least the
   fixed ones, for a variadic builtin) and each argument's conversion
   to its parameter type. *)
let test_call_signatures () =
  let env =
    Typecheck.of_program
      (Parser.parse_program "int f(int a, int b) { return a + b; }\nfloat g(float *p);")
  in
  Typecheck.push_scope env;
  List.iter (fun (n, ty) -> Typecheck.add_var env n ty) base;
  let type_of src = Typecheck.type_of_expr env (Parser.parse_expr_string src) in
  let error src =
    match type_of src with
    | exception Typecheck.Error m -> m
    | ty -> Alcotest.failf "%s typed as %s" src (Cty.show ty)
  in
  let errors =
    [
      ( "omp_get_thread_num(1, 2.5)",
        "'omp_get_thread_num' called with 2 argument(s), its signature has 0" );
      ("sqrt()", "'sqrt' called with 0 argument(s), its signature has 1");
      ("f(1)", "'f' called with 1 argument(s), its signature has 2");
      ("g(p, 1)", "'g' called with 2 argument(s), its signature has 1");
      ("printf()", "'printf' called with 0 argument(s), its signature has at least 1");
      ("sqrt(p)", "incompatible types in argument 1 of 'sqrt' (double from float *)");
      ("g(d)", "incompatible types in argument 1 of 'g' (float * from double)");
      ( "cudadev_get_static_chunk(1)",
        "'cudadev_get_static_chunk' called with 1 argument(s), its signature has 4" );
      ("atomicAdd(p, p)", "incompatible types in argument 2 of 'atomicAdd' (float from float *)");
    ]
  in
  List.iter (fun (src, msg) -> Alcotest.(check string) src msg (error src)) errors;
  Alcotest.check cty "variadic tail" Cty.Int (type_of "printf(\"%d %f\", i, d)");
  Alcotest.check cty "arguments convert" Cty.Int (type_of "abs(l) + f(d, 1.5f)");
  Alcotest.check cty "an atomic takes its pointee type" Cty.Float (type_of "atomicAdd(p, 1)")

(* The host table (the common builtins and the ORT entry points) and
   the device table (the common builtins and the device runtime) build,
   every registration checked against its signature; a name without a
   signature, or an implementation of another arity, fails when the
   table is built. *)
let test_builtin_registration () =
  let host = (Hostrt.Hostexec.make_context (Hostrt.Rt.create ()) []).Cinterp.Interp.builtins in
  let device = Hashtbl.create 64 in
  Cinterp.Interp.install_common_builtins device;
  Devrt.Api.install (fun () -> Alcotest.fail "no block") device;
  List.iter
    (fun (tbl, name) -> Alcotest.(check bool) name true (Hashtbl.mem tbl name))
    [ (host, "ort_offload"); (host, "printf"); (device, "cudadev_get_static_chunk");
      (device, "atomicCAS") ];
  let rejected what name impl =
    match Cinterp.Interp.register_builtin device name impl with
    | () -> Alcotest.failf "%s: '%s' registered" what name
    | exception Invalid_argument _ -> ()
  in
  let open Cinterp.Interp in
  rejected "no signature" "cudadev_no_such_entry" (F0 (fun _ -> Value.VVoid));
  rejected "fewer arguments" "pow" (F1 (fun _ a -> a));
  rejected "more arguments" "sqrt" (F2 (fun _ a _ -> a));
  rejected "a variadic tail" "abs" (V1 (fun _ a _ -> a));
  rejected "no variadic tail" "printf" (F1 (fun _ a -> a))

let test_cuda_globals () =
  let src = "void k(float *x) { int i = blockIdx.x * blockDim.x + threadIdx.x; x[i] = i; }" in
  Alcotest.(check bool) "cuda mode accepts builtins" true
    (Typecheck.check_program ~cuda:true (Parser.parse_program src) = []);
  Alcotest.(check bool) "host mode rejects them" true
    (List.length (Typecheck.check_program (Parser.parse_program src)) > 0)

let () =
  Alcotest.run "typecheck"
    [
      ( "expressions",
        [
          Alcotest.test_case "literals" `Quick test_literals;
          Alcotest.test_case "arithmetic conversions" `Quick test_arithmetic;
          Alcotest.test_case "pointers and arrays" `Quick test_pointers;
          Alcotest.test_case "assign, cast, sizeof" `Quick test_assign_cast_sizeof;
          Alcotest.test_case "structs" `Quick test_struct_typing;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ( "program",
        [
          Alcotest.test_case "scoping" `Quick test_scoping;
          Alcotest.test_case "whole-program check" `Quick test_check_program;
          Alcotest.test_case "CUDA implicit globals" `Quick test_cuda_globals;
          Alcotest.test_case "every subexpression typed" `Quick test_every_subexpression;
          Alcotest.test_case "elaboration" `Quick test_elaboration;
          Alcotest.test_case "conditional type" `Quick test_cond_type;
          Alcotest.test_case "builtins shadow functions" `Quick test_builtin_shadows;
          Alcotest.test_case "calls checked against signatures" `Quick test_call_signatures;
          Alcotest.test_case "builtin tables register by signature" `Quick
            test_builtin_registration;
        ] );
    ]
