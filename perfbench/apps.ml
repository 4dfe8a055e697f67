(* The six Fig. 4 applications as the benchmark drives them: each one's
   buffers, seeded input contents, CUDA launches, OpenMP entry calls and
   a binary32 reference over the same inputs.  The kernel and OpenMP
   sources are the library's own ([Polybench.<App>.cuda_source] and
   [omp_source]); only the input contents differ from the suite's fixed
   ones, so that the seed reaches the data the program computes on. *)

open Polybench.Refmath

type arg = I of int | F of float | B of int  (** [B i]: the app's [i]-th buffer *)

type buf = {
  b_len : int;
  b_init : (int * float * float) option;
      (** [(m, off, scale)]: element [t] is [r32 ((k / m + off) * scale)]
          for a seeded [k] in [0, m) — the value ranges of the suite's
          own initialisers; [None] leaves the buffer zeroed *)
  b_h2d : bool;  (** copied to the device by the CUDA variant *)
  b_out : bool;  (** part of the result (read back; copied back by the CUDA variant) *)
}

type launch = { l_entry : string; l_grid : Gpusim.Simt.dim3; l_block : Gpusim.Simt.dim3; l_args : arg list }

type app = {
  a_name : string;
  a_cuda_source : string;
  a_omp_source : string;
  a_bufs : int -> buf list;
  a_steps : int -> int list;
      (** host-loop iterations actually simulated (gramschmidt's column
          loop; [[0]] for single-step apps); skipped iterations are
          integrated the way the suite does *)
  a_cuda : n:int -> k:int -> launch list;
  a_omp_begin : n:int -> (string * arg list) list;
  a_omp : n:int -> k:int -> (string * arg list) list;
  a_omp_end : n:int -> (string * arg list) list;
  a_reference : n:int -> float array array -> float array;
      (** expected result from the buffers' initial contents *)
}

let hash ~seed ~salt (i : int) : int =
  let x = (i * 0x9E3779B1) + (salt * 0x7FEB352D) + (seed * 0x846CA68B) in
  let x = (x lxor (x lsr 16)) * 0x45D9F3B in
  let x = (x lxor (x lsr 16)) * 0x45D9F3B in
  (x lxor (x lsr 16)) land 0x3FFFFFFF

(** Initial contents of buffer [salt] (its index in [a_bufs]). *)
let init_value ~seed ~salt (m, off, scale) (t : int) : float =
  r32 (((float_of_int (hash ~seed ~salt t mod m) /. float_of_int m) +. off) *. scale)

let inputs ~seed (bufs : buf list) : float array array =
  Array.of_list
    (List.mapi
       (fun salt b ->
         match b.b_init with
         | Some spec -> Array.init b.b_len (init_value ~seed ~salt spec)
         | None -> Array.make b.b_len 0.0)
       bufs)

let input ?(out = false) len spec = { b_len = len; b_init = Some spec; b_h2d = true; b_out = out }

let output len = { b_len = len; b_init = None; b_h2d = false; b_out = true }

let scratch len = { b_len = len; b_init = None; b_h2d = false; b_out = false }

let dim3 = Gpusim.Simt.dim3

let line n = dim3 ((n + 255) / 256)

let teams n = (n + 255) / 256

let single_step _ = [ 0 ]

let no_calls ~n:_ = []

let alpha = 1.5

let beta = 1.2

let gemm =
  {
    a_name = Polybench.Gemm.name;
    a_cuda_source = Polybench.Gemm.cuda_source;
    a_omp_source = Polybench.Gemm.omp_source;
    a_bufs =
      (fun n ->
        [ input (n * n) (13, 0.0, 1.0); input (n * n) (7, 0.0, 1.0); input ~out:true (n * n) (11, 0.0, 1.0) ]);
    a_steps = single_step;
    a_cuda =
      (fun ~n ~k:_ ->
        [
          {
            l_entry = "gemm_kernel";
            l_grid = dim3 ((n + 31) / 32) ~y:((n + 7) / 8);
            l_block = dim3 32 ~y:8;
            l_args = [ I n; F alpha; F beta; B 0; B 1; B 2 ];
          };
        ]);
    a_omp_begin = no_calls;
    a_omp = (fun ~n ~k:_ -> [ ("gemm_omp", [ I n; I (teams (n * n)); F alpha; F beta; B 0; B 1; B 2 ]) ]);
    a_omp_end = no_calls;
    a_reference =
      (fun ~n inp ->
        let a = inp.(0) and b = inp.(1) and c = Array.copy inp.(2) in
        let alpha = r32 alpha and beta = r32 beta in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            c.((i * n) + j) <- c.((i * n) + j) *% beta;
            for k = 0 to n - 1 do
              c.((i * n) + j) <- c.((i * n) + j) +% (alpha *% a.((i * n) + k) *% b.((k * n) + j))
            done
          done
        done;
        c);
  }

(* The 11 terms of the Polybench 3DConvolution stencil, in the order of
   [Polybench.Conv3d.stencil_c]: coefficient and (di, dj, dk) offset. *)
let conv3d_terms =
  [
    (0.2, (-1, -1, -1));
    (0.4, (1, -1, -1));
    (0.5, (-1, -1, -1));
    (0.7, (1, -1, -1));
    (-0.8, (-1, -1, -1));
    (0.10, (1, -1, -1));
    (-0.3, (0, -1, 0));
    (0.6, (0, 0, 0));
    (-0.9, (0, 1, 0));
    (0.2, (-1, -1, 1));
    (0.4, (1, -1, 1));
  ]

let conv3d =
  {
    a_name = Polybench.Conv3d.name;
    a_cuda_source = Polybench.Conv3d.cuda_source;
    a_omp_source = Polybench.Conv3d.omp_source;
    a_bufs = (fun n -> [ input (n * n * n) (13, 0.0, 1.0); output (n * n * n) ]);
    a_steps = single_step;
    a_cuda =
      (fun ~n ~k:_ ->
        [
          {
            l_entry = "conv3d_kernel";
            l_grid = dim3 ((n + 31) / 32) ~y:((n + 3) / 4) ~z:((n + 1) / 2);
            l_block = dim3 32 ~y:4 ~z:2;
            l_args = [ I n; B 0; B 1 ];
          };
        ]);
    a_omp_begin = no_calls;
    a_omp =
      (fun ~n ~k:_ -> [ ("conv3d_omp", [ I n; I (max 1 (teams ((n - 2) * (n - 2) * (n - 2)))); B 0; B 1 ]) ]);
    a_omp_end = no_calls;
    a_reference =
      (fun ~n inp ->
        let a = inp.(0) in
        let b = Array.make (n * n * n) 0.0 in
        for i = 1 to n - 2 do
          for j = 1 to n - 2 do
            for k = 1 to n - 2 do
              let term (c, (di, dj, dk)) =
                r32 c *% a.(((i + di) * n * n) + ((j + dj) * n) + (k + dk))
              in
              b.((i * n * n) + (j * n) + k) <-
                List.fold_left
                  (fun acc t -> acc +% term t)
                  (term (List.hd conv3d_terms))
                  (List.tl conv3d_terms)
            done
          done
        done;
        b);
  }

(* y[i] += a[i][j] * x[j], accumulating in binary32 in the kernels'
   loop order. *)
let matvec ~n (a : float array) (x : float array) (y : float array) =
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      y.(i) <- y.(i) +% (a.((i * n) + j) *% x.(j))
    done
  done

let bicg =
  {
    a_name = Polybench.Bicg.name;
    a_cuda_source = Polybench.Bicg.cuda_source;
    a_omp_source = Polybench.Bicg.omp_source;
    a_bufs =
      (fun n ->
        [
          input (n * n) (19, 0.0, 1.0 /. float_of_int n);
          input n (7, 0.0, 1.0);
          input n (3, 0.0, 1.0);
          output n;
          output n;
        ]);
    a_steps = single_step;
    a_cuda =
      (fun ~n ~k:_ ->
        [
          { l_entry = "bicg_kernel1"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 1; B 3 ] };
          { l_entry = "bicg_kernel2"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 2; B 4 ] };
        ]);
    a_omp_begin = no_calls;
    a_omp = (fun ~n ~k:_ -> [ ("bicg_omp", [ I n; I (teams n); B 0; B 1; B 2; B 3; B 4 ]) ]);
    a_omp_end = no_calls;
    a_reference =
      (fun ~n inp ->
        let s = Array.make n 0.0 and q = Array.make n 0.0 in
        (* s[j] += r[i] * a[i][j]: the kernel multiplies r first *)
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            s.(j) <- s.(j) +% (inp.(1).(i) *% inp.(0).((i * n) + j))
          done
        done;
        matvec ~n inp.(0) inp.(2) q;
        Array.append s q);
  }

let atax =
  {
    a_name = Polybench.Atax.name;
    a_cuda_source = Polybench.Atax.cuda_source;
    a_omp_source = Polybench.Atax.omp_source;
    a_bufs =
      (fun n ->
        [ input (n * n) (17, 0.0, 1.0 /. float_of_int n); input n (5, 1.0, 1.0); output n; scratch n ]);
    a_steps = single_step;
    a_cuda =
      (fun ~n ~k:_ ->
        [
          { l_entry = "atax_kernel1"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 1; B 3 ] };
          { l_entry = "atax_kernel2"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 2; B 3 ] };
        ]);
    a_omp_begin = no_calls;
    a_omp = (fun ~n ~k:_ -> [ ("atax_omp", [ I n; I (teams n); B 0; B 1; B 2; B 3 ]) ]);
    a_omp_end = no_calls;
    a_reference =
      (fun ~n inp ->
        let a = inp.(0) in
        let tmp = Array.make n 0.0 and y = Array.make n 0.0 in
        matvec ~n a inp.(1) tmp;
        (* y[j] += a[i][j] * tmp[i]: the matrix element comes first *)
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            y.(j) <- y.(j) +% (a.((i * n) + j) *% tmp.(i))
          done
        done;
        y);
  }

let mvt =
  {
    a_name = Polybench.Mvt.name;
    a_cuda_source = Polybench.Mvt.cuda_source;
    a_omp_source = Polybench.Mvt.omp_source;
    a_bufs =
      (fun n ->
        [
          input (n * n) (23, 0.0, 1.0 /. float_of_int n);
          input ~out:true n (9, 0.0, 1.0);
          input ~out:true n (4, 0.0, 1.0);
          input n (6, 0.0, 1.0);
          input n (8, 0.0, 1.0);
        ]);
    a_steps = single_step;
    a_cuda =
      (fun ~n ~k:_ ->
        [
          { l_entry = "mvt_kernel1"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 1; B 3 ] };
          { l_entry = "mvt_kernel2"; l_grid = line n; l_block = dim3 256; l_args = [ I n; B 0; B 2; B 4 ] };
        ]);
    a_omp_begin = no_calls;
    a_omp = (fun ~n ~k:_ -> [ ("mvt_omp", [ I n; I (teams n); B 0; B 1; B 2; B 3; B 4 ]) ]);
    a_omp_end = no_calls;
    a_reference =
      (fun ~n inp ->
        let a = inp.(0) and x1 = Array.copy inp.(1) and x2 = Array.copy inp.(2) in
        matvec ~n a inp.(3) x1;
        (* x2[i] += a[j][i] * y2[j] *)
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            x2.(i) <- x2.(i) +% (a.((j * n) + i) *% inp.(4).(j))
          done
        done;
        Array.append x1 x2);
  }

let gramschmidt =
  let bufs4 n k = [ I n; I k; B 0; B 1; B 2 ] in
  {
    a_name = Polybench.Gramschmidt.name;
    a_cuda_source = Polybench.Gramschmidt.cuda_source;
    a_omp_source = Polybench.Gramschmidt.omp_source;
    a_bufs =
      (fun n -> [ input ~out:true (n * n) (29, 1.0, 1.0 /. float_of_int n); output (n * n); output (n * n) ]);
    a_steps = Polybench.Gramschmidt.k_schedule;
    a_cuda =
      (fun ~n ~k ->
        [
          { l_entry = "gs_kernel1"; l_grid = dim3 1; l_block = dim3 256; l_args = [ I n; I k; B 0; B 1 ] };
          { l_entry = "gs_kernel2"; l_grid = line n; l_block = dim3 256; l_args = bufs4 n k };
          { l_entry = "gs_kernel3"; l_grid = line n; l_block = dim3 256; l_args = bufs4 n k };
        ]);
    a_omp_begin = (fun ~n -> [ ("gs_begin", [ I n; B 0; B 1; B 2 ]) ]);
    a_omp = (fun ~n ~k -> [ ("gs_step", [ I n; I (teams n); I k; B 0; B 1; B 2 ]) ]);
    a_omp_end = (fun ~n -> [ ("gs_end", [ I n; B 0; B 1; B 2 ]) ]);
    a_reference =
      (fun ~n inp ->
        let a = Array.copy inp.(0) in
        let r = Array.make (n * n) 0.0 and q = Array.make (n * n) 0.0 in
        for k = 0 to n - 1 do
          let nrm = ref 0.0 in
          for i = 0 to n - 1 do
            nrm := !nrm +% (a.((i * n) + k) *% a.((i * n) + k))
          done;
          r.((k * n) + k) <- sqrt32 !nrm;
          for i = 0 to n - 1 do
            q.((i * n) + k) <- a.((i * n) + k) /% r.((k * n) + k)
          done;
          for j = k + 1 to n - 1 do
            let s = ref 0.0 in
            for i = 0 to n - 1 do
              s := !s +% (q.((i * n) + k) *% a.((i * n) + j))
            done;
            r.((k * n) + j) <- !s;
            for i = 0 to n - 1 do
              a.((i * n) + j) <- a.((i * n) + j) -% (q.((i * n) + k) *% r.((k * n) + j))
            done
          done
        done;
        Array.concat [ a; r; q ]);
  }

let all = [ conv3d; bicg; atax; mvt; gemm; gramschmidt ]

let find name = List.find (fun a -> a.a_name = name) all
