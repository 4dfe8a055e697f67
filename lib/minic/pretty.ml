(* C source emission for the mini-C AST.  Used to write translated host
   files and generated CUDA kernel files, and by golden tests. *)

open Machine
open Format

let unop_prefix = function
  | Ast.Neg -> "-"
  | Ast.Not -> "!"
  | Ast.BitNot -> "~"
  | Ast.PreInc -> "++"
  | Ast.PreDec -> "--"
  | Ast.PostInc | Ast.PostDec -> ""

let binop_str = function
  | Ast.Add -> "+"
  | Ast.Sub -> "-"
  | Ast.Mul -> "*"
  | Ast.Div -> "/"
  | Ast.Mod -> "%"
  | Ast.Shl -> "<<"
  | Ast.Shr -> ">>"
  | Ast.Lt -> "<"
  | Ast.Gt -> ">"
  | Ast.Le -> "<="
  | Ast.Ge -> ">="
  | Ast.Eq -> "=="
  | Ast.Ne -> "!="
  | Ast.BitAnd -> "&"
  | Ast.BitXor -> "^"
  | Ast.BitOr -> "|"
  | Ast.LogAnd -> "&&"
  | Ast.LogOr -> "||"

let binop_prec = function
  | Ast.Mul | Ast.Div | Ast.Mod -> 10
  | Ast.Add | Ast.Sub -> 9
  | Ast.Shl | Ast.Shr -> 8
  | Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge -> 7
  | Ast.Eq | Ast.Ne -> 6
  | Ast.BitAnd -> 5
  | Ast.BitXor -> 4
  | Ast.BitOr -> 3
  | Ast.LogAnd -> 2
  | Ast.LogOr -> 1

(* Emit [e] parenthesised if its precedence is below [min_prec].
   Precedence scale: 0 assignment/conditional/comma, 1-10 binops,
   11 unary, 12 postfix/primary. *)
let rec pp_expr_prec fmt min_prec (e : Ast.expr) =
  let prec =
    match e with
    | Ast.Comma _ -> -1
    | Ast.Assign _ | Ast.Cond _ -> 0
    | Ast.Binop (op, _, _) -> binop_prec op
    | Ast.Unop _ | Ast.Deref _ | Ast.AddrOf _ | Ast.Cast _ | Ast.SizeofT _ | Ast.SizeofE _ -> 11
    | _ -> 12
  in
  if prec < min_prec then fprintf fmt "(%a)" pp_expr e else pp_expr fmt e

and pp_expr fmt (e : Ast.expr) =
  match e with
  | Ast.IntLit (i, Cty.Long) -> fprintf fmt "%LdL" i
  | Ast.IntLit (i, Cty.Uint) -> fprintf fmt "%LuU" i
  | Ast.IntLit (i, Cty.Ulong) -> fprintf fmt "%LuUL" i
  | Ast.IntLit (i, _) -> fprintf fmt "%Ld" i
  | Ast.FloatLit (f, Cty.Float) ->
    let s = sprintf "%.9g" f in
    let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
    fprintf fmt "%sf" s
  | Ast.FloatLit (f, _) ->
    let s = sprintf "%.17g" f in
    let s = if String.contains s '.' || String.contains s 'e' then s else s ^ ".0" in
    pp_print_string fmt s
  | Ast.CharLit c -> fprintf fmt "%C" c
  | Ast.StrLit s -> fprintf fmt "%S" s
  | Ast.Ident x -> pp_print_string fmt x
  | Ast.Unop (Ast.PostInc, a) -> fprintf fmt "%a++" (fun fmt -> pp_expr_prec fmt 12) a
  | Ast.Unop (Ast.PostDec, a) -> fprintf fmt "%a--" (fun fmt -> pp_expr_prec fmt 12) a
  | Ast.Unop (op, a) -> fprintf fmt "%s%a" (unop_prefix op) (fun fmt -> pp_expr_prec fmt 11) a
  | Ast.Binop (op, a, b) ->
    let p = binop_prec op in
    fprintf fmt "%a %s %a"
      (fun fmt -> pp_expr_prec fmt p) a
      (binop_str op)
      (fun fmt -> pp_expr_prec fmt (p + 1)) b
  | Ast.Assign (None, lhs, rhs) ->
    fprintf fmt "%a = %a" (fun fmt -> pp_expr_prec fmt 11) lhs (fun fmt -> pp_expr_prec fmt 0) rhs
  | Ast.Assign (Some op, lhs, rhs) ->
    fprintf fmt "%a %s= %a"
      (fun fmt -> pp_expr_prec fmt 11) lhs
      (binop_str op)
      (fun fmt -> pp_expr_prec fmt 0) rhs
  | Ast.Call (f, args) ->
    fprintf fmt "%s(%a)" f
      (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") (fun fmt -> pp_expr_prec fmt 0))
      args
  | Ast.Index (a, i) ->
    fprintf fmt "%a[%a]" (fun fmt -> pp_expr_prec fmt 12) a pp_expr i
  | Ast.Member (a, f) -> fprintf fmt "%a.%s" (fun fmt -> pp_expr_prec fmt 12) a f
  | Ast.Arrow (a, f) -> fprintf fmt "%a->%s" (fun fmt -> pp_expr_prec fmt 12) a f
  | Ast.Deref a -> fprintf fmt "*%a" (fun fmt -> pp_expr_prec fmt 11) a
  | Ast.AddrOf a -> fprintf fmt "&%a" (fun fmt -> pp_expr_prec fmt 11) a
  | Ast.Cast (ty, a) -> fprintf fmt "(%s)%a" (Cty.to_c_string ty) (fun fmt -> pp_expr_prec fmt 11) a
  | Ast.SizeofT ty -> fprintf fmt "sizeof(%s)" (Cty.to_c_string ty)
  | Ast.SizeofE a -> fprintf fmt "sizeof(%a)" (fun fmt -> pp_expr_prec fmt 11) a
  | Ast.Cond (c, t, f) ->
    fprintf fmt "%a ? %a : %a"
      (fun fmt -> pp_expr_prec fmt 1) c
      (fun fmt -> pp_expr_prec fmt 0) t
      (fun fmt -> pp_expr_prec fmt 0) f
  | Ast.Comma (a, b) -> fprintf fmt "%a, %a" (fun fmt -> pp_expr_prec fmt 0) a (fun fmt -> pp_expr_prec fmt 0) b

let rec pp_init fmt = function
  | Ast.Iexpr e -> pp_expr fmt e
  | Ast.Ilist items ->
    fprintf fmt "{ %a }"
      (pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_init)
      items

let pp_decl fmt (d : Ast.decl) =
  if d.d_shared then pp_print_string fmt "__shared__ ";
  fprintf fmt "%s" (Cty.to_c_string ~name:d.d_name d.d_ty);
  match d.d_init with
  | Some i -> fprintf fmt " = %a" pp_init i
  | None -> ()

(* Comma-separated declarator group sharing one specifier, as required
   in for-init clauses: "int i = 0, *p = a".  The declarator text of
   later entries is the full rendering minus the specifier prefix. *)
let rec base_specifier (ty : Cty.t) : Cty.t =
  match ty with
  | Cty.Ptr t | Cty.Array (t, _) | Cty.Func (t, _, _) -> base_specifier t
  | t -> t

let pp_decl_group fmt (ds : Ast.decl list) =
  match ds with
  | [] -> ()
  | [ d ] -> pp_decl fmt d
  | d0 :: rest when List.for_all (fun (d : Ast.decl) -> Cty.equal (base_specifier d.Ast.d_ty) (base_specifier d0.Ast.d_ty)) rest ->
    let spec = Cty.to_c_string (base_specifier d0.Ast.d_ty) in
    pp_decl fmt d0;
    List.iter
      (fun (d : Ast.decl) ->
        let full = Cty.to_c_string ~name:d.Ast.d_name d.Ast.d_ty in
        let declarator =
          let prefix = spec ^ " " in
          let lp = String.length prefix in
          if String.length full >= lp && String.sub full 0 lp = prefix then
            String.sub full lp (String.length full - lp)
          else full
        in
        fprintf fmt ", %s" declarator;
        match d.Ast.d_init with Some i -> fprintf fmt " = %a" pp_init i | None -> ())
      rest
  | ds -> pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_decl fmt ds

(* ---------------------------------------------------------------- *)
(* OpenMP directives back to pragma syntax (for diagnostics/goldens)  *)
(* ---------------------------------------------------------------- *)

let sched_str = function
  | Ast.Sch_static -> "static"
  | Ast.Sch_dynamic -> "dynamic"
  | Ast.Sch_guided -> "guided"
  | Ast.Sch_auto -> "auto"
  | Ast.Sch_runtime -> "runtime"

let map_type_str = function
  | Ast.Map_to -> "to"
  | Ast.Map_from -> "from"
  | Ast.Map_tofrom -> "tofrom"
  | Ast.Map_alloc -> "alloc"

let red_op_str = function
  | Ast.Rd_add -> "+"
  | Ast.Rd_mul -> "*"
  | Ast.Rd_max -> "max"
  | Ast.Rd_min -> "min"
  | Ast.Rd_land -> "&&"
  | Ast.Rd_lor -> "||"
  | Ast.Rd_band -> "&"
  | Ast.Rd_bor -> "|"
  | Ast.Rd_bxor -> "^"

let pp_map_item fmt (mi : Ast.map_item) =
  pp_print_string fmt mi.mi_var;
  List.iter
    (fun (lb, len) ->
      fprintf fmt "[%a:%a]"
        (pp_print_option pp_expr) lb
        (pp_print_option pp_expr) len)
    mi.mi_sections

let pp_strings fmt xs = pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_print_string fmt xs

let pp_items fmt xs = pp_print_list ~pp_sep:(fun fmt () -> pp_print_string fmt ", ") pp_map_item fmt xs

let pp_clause fmt (c : Ast.clause) =
  match c with
  | Ast.Cnum_teams e -> fprintf fmt "num_teams(%a)" pp_expr e
  | Ast.Cnum_threads e -> fprintf fmt "num_threads(%a)" pp_expr e
  | Ast.Cthread_limit e -> fprintf fmt "thread_limit(%a)" pp_expr e
  | Ast.Cmap (mt, always, items) ->
    fprintf fmt "map(%s%s: %a)" (if always then "always, " else "") (map_type_str mt) pp_items items
  | Ast.Cprivate xs -> fprintf fmt "private(%a)" pp_strings xs
  | Ast.Cfirstprivate xs -> fprintf fmt "firstprivate(%a)" pp_strings xs
  | Ast.Cshared xs -> fprintf fmt "shared(%a)" pp_strings xs
  | Ast.Cdefault_shared -> pp_print_string fmt "default(shared)"
  | Ast.Cdefault_none -> pp_print_string fmt "default(none)"
  | Ast.Cschedule (k, None) -> fprintf fmt "schedule(%s)" (sched_str k)
  | Ast.Cschedule (k, Some e) -> fprintf fmt "schedule(%s, %a)" (sched_str k) pp_expr e
  | Ast.Cdist_schedule (k, None) -> fprintf fmt "dist_schedule(%s)" (sched_str k)
  | Ast.Cdist_schedule (k, Some e) -> fprintf fmt "dist_schedule(%s, %a)" (sched_str k) pp_expr e
  | Ast.Ccollapse n -> fprintf fmt "collapse(%d)" n
  | Ast.Creduction (op, xs) -> fprintf fmt "reduction(%s: %a)" (red_op_str op) pp_strings xs
  | Ast.Cif e -> fprintf fmt "if(%a)" pp_expr e
  | Ast.Cdevice e -> fprintf fmt "device(%a)" pp_expr e
  | Ast.Cnowait -> pp_print_string fmt "nowait"
  | Ast.Cupdate_to items -> fprintf fmt "to(%a)" pp_items items
  | Ast.Cupdate_from items -> fprintf fmt "from(%a)" pp_items items

let construct_str = function
  | Ast.C_target -> "target"
  | Ast.C_teams -> "teams"
  | Ast.C_distribute -> "distribute"
  | Ast.C_parallel -> "parallel"
  | Ast.C_for -> "for"
  | Ast.C_sections -> "sections"
  | Ast.C_section -> "section"
  | Ast.C_single -> "single"
  | Ast.C_master -> "master"
  | Ast.C_critical None -> "critical"
  | Ast.C_critical (Some n) -> "critical(" ^ n ^ ")"
  | Ast.C_barrier -> "barrier"
  | Ast.C_taskwait -> "taskwait"
  | Ast.C_atomic -> "atomic"
  | Ast.C_target_data -> "target data"
  | Ast.C_target_enter_data -> "target enter data"
  | Ast.C_target_exit_data -> "target exit data"
  | Ast.C_target_update -> "target update"
  | Ast.C_declare_target -> "declare target"
  | Ast.C_end_declare_target -> "end declare target"

let pp_directive fmt (d : Ast.directive) =
  fprintf fmt "#pragma omp %s"
    (String.concat " " (List.map construct_str d.dir_constructs));
  List.iter (fun c -> fprintf fmt " %a" pp_clause c) d.dir_clauses

(* ---------------------------------------------------------------- *)
(* Statements                                                         *)
(* ---------------------------------------------------------------- *)

let rec pp_stmt fmt (s : Ast.stmt) =
  match s with
  | Ast.Sexpr e -> fprintf fmt "@[<h>%a;@]" pp_expr e
  | Ast.Sdecl ds ->
    pp_print_list ~pp_sep:pp_print_cut (fun fmt d -> fprintf fmt "@[<h>%a;@]" pp_decl d) fmt ds
  | Ast.Sblock ss ->
    fprintf fmt "{@;<0 2>@[<v>%a@]@,}" (pp_print_list ~pp_sep:pp_print_cut pp_stmt) ss
  | Ast.Sif (c, t, None) -> fprintf fmt "@[<v>if (%a)@,%a@]" pp_expr c pp_substmt t
  | Ast.Sif (c, t, Some e) ->
    fprintf fmt "@[<v>if (%a)@,%a@,else@,%a@]" pp_expr c pp_substmt t pp_substmt e
  | Ast.Swhile (c, b) -> fprintf fmt "@[<v>while (%a)@,%a@]" pp_expr c pp_substmt b
  | Ast.Sdo (b, c) -> fprintf fmt "@[<v>do@,%a@,while (%a);@]" pp_substmt b pp_expr c
  | Ast.Sfor (init, cond, update, b) ->
    let pp_init fmt = function
      | Some (Ast.Sexpr e) -> pp_expr fmt e
      | Some (Ast.Sdecl ds) -> pp_decl_group fmt ds
      | Some _ | None -> ()
    in
    fprintf fmt "@[<v>for (%a; %a; %a)@,%a@]"
      pp_init init
      (pp_print_option pp_expr) cond
      (pp_print_option pp_expr) update
      pp_substmt b
  | Ast.Sreturn None -> pp_print_string fmt "return;"
  | Ast.Sreturn (Some e) -> fprintf fmt "return %a;" pp_expr e
  | Ast.Sbreak -> pp_print_string fmt "break;"
  | Ast.Scontinue -> pp_print_string fmt "continue;"
  | Ast.Snop -> pp_print_string fmt ";"
  | Ast.Spragma (Ast.Omp d, body) ->
    fprintf fmt "@[<v>%a%a@]" pp_directive d
      (fun fmt -> function None -> () | Some b -> fprintf fmt "@,%a" pp_substmt b)
      body
  | Ast.Spragma (Ast.Raw toks, body) ->
    fprintf fmt "@[<v>#pragma %s%a@]"
      (String.concat " " (List.map Token.to_source toks))
      (fun fmt -> function None -> () | Some b -> fprintf fmt "@,%a" pp_substmt b)
      body

and pp_substmt fmt s =
  (* Sub-statements of if/while/for: blocks print as-is, others indented. *)
  match s with
  | Ast.Sblock _ -> pp_stmt fmt s
  | _ -> fprintf fmt "@;<0 2>@[<v>%a@]" pp_stmt s

let pp_fundef ?(cuda_global = false) fmt (f : Ast.fundef) =
  let params =
    match f.f_params with
    | [] -> "void"
    | ps -> String.concat ", " (List.map (fun (n, ty) -> Cty.to_c_string ~name:n ty) ps)
  in
  let qual = if cuda_global then "__global__ " else if f.f_static then "static " else "" in
  fprintf fmt "@[<v>%s%s(%s)@,%a@]" qual
    (Cty.to_c_string ~name:f.f_name f.f_ret)
    params pp_stmt f.f_body

let pp_global fmt (g : Ast.global) =
  match g with
  | Ast.Gfun f -> pp_fundef fmt f
  | Ast.Gfundecl (name, ret, params) ->
    let params =
      match params with
      | [] -> "void"
      | ps -> String.concat ", " (List.map (fun (n, ty) -> Cty.to_c_string ~name:n ty) ps)
    in
    fprintf fmt "%s(%s);" (Cty.to_c_string ~name ret) params
  | Ast.Gvar (d, _) -> fprintf fmt "%a;" pp_decl d
  | Ast.Gstruct (name, fields) ->
    fprintf fmt "@[<v>struct %s {@;<0 2>@[<v>%a@]@,};@]" name
      (pp_print_list ~pp_sep:pp_print_cut (fun fmt (n, ty) ->
           fprintf fmt "%s;" (Cty.to_c_string ~name:n ty)))
      fields
  | Ast.Gpragma (Ast.Omp d) -> pp_directive fmt d
  | Ast.Gpragma (Ast.Raw toks) ->
    fprintf fmt "#pragma %s" (String.concat " " (List.map Token.to_source toks))

let pp_program fmt (p : Ast.program) =
  fprintf fmt "@[<v>%a@]@." (pp_print_list ~pp_sep:(fun fmt () -> fprintf fmt "@,@,") pp_global) p

let program_to_string p = asprintf "%a" pp_program p

let stmt_to_string s = asprintf "@[<v>%a@]" pp_stmt s

let expr_to_string e = asprintf "%a" pp_expr e
