(* What a run decided and counted: one entry per device (its launches,
   data-environment counters, resident buffers, policy decisions and
   death) and the farm totals, read from the runtime in one place.  The
   CLIs, Ompi.run, Serve.run and the test oracle read this record
   instead of folding over the devices themselves. *)

open Gpusim

type device = {
  dv_id : int;
  dv_launches : Driver.launch_stats list; (* oldest first *)
  dv_mem : Dataenv.stats;
  dv_resident : int;
  dv_policy : ((int * int) * (string * int) list) list;
  dv_dead : string option;
  dv_left_out : (string * string * string) list; (* module, function, reason *)
}

type t = {
  r_devices : device list;
  r_mem : Dataenv.stats; (* summed over the devices *)
  r_launches : int;
  r_resident : int;
  r_dead : (int * string) list;
  r_faults : (int * int) option; (* fired, calls; None without a plan *)
}

let add_stats (a : Dataenv.stats) (b : Dataenv.stats) : Dataenv.stats =
  {
    Dataenv.elided_h2d = a.Dataenv.elided_h2d + b.Dataenv.elided_h2d;
    elided_d2h = a.Dataenv.elided_d2h + b.Dataenv.elided_d2h;
    elided_h2d_pages = a.Dataenv.elided_h2d_pages + b.Dataenv.elided_h2d_pages;
    elided_d2h_pages = a.Dataenv.elided_d2h_pages + b.Dataenv.elided_d2h_pages;
    elided_update_to = a.Dataenv.elided_update_to + b.Dataenv.elided_update_to;
    elided_update_from = a.Dataenv.elided_update_from + b.Dataenv.elided_update_from;
    zerocopy_accesses = a.Dataenv.zerocopy_accesses + b.Dataenv.zerocopy_accesses;
    digested_bytes = a.Dataenv.digested_bytes + b.Dataenv.digested_bytes;
  }

(* What the closure JIT left out of the driver's loaded modules, by
   module name. *)
let left_out (driver : Driver.t) : (string * string * string) list =
  Hashtbl.fold
    (fun _ (m : Driver.loaded_module) acc ->
      match m.Driver.lm_compiled with
      | Some c -> (m.Driver.lm_artifact.Nvcc.art_name, Cinterp.Jit.left_out c) :: acc
      | None -> acc)
    driver.Driver.modules []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.concat_map (fun (name, fns) -> List.map (fun (fn, why) -> (name, fn, why)) fns)

let of_device (d : Rt.device) : device =
  let env = d.Rt.dev_dataenv in
  {
    dv_id = d.Rt.dev_id;
    dv_launches = List.rev d.Rt.dev_driver.Driver.launches;
    dv_mem = Dataenv.stats env;
    dv_resident = Dataenv.resident_buffers env;
    dv_policy = Dataenv.policy_decisions env;
    dv_dead = Dataenv.dead_reason env;
    dv_left_out = left_out d.Rt.dev_driver;
  }

let of_rt (rt : Rt.t) : t =
  let per = List.map of_device (Array.to_list rt.Rt.devices) in
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 per in
  {
    r_devices = per;
    r_mem = List.fold_left (fun acc d -> add_stats acc d.dv_mem) (List.hd per).dv_mem (List.tl per);
    (* the launch list and the driver's launch count move together *)
    r_launches = sum (fun d -> List.length d.dv_launches);
    r_resident = sum (fun d -> d.dv_resident);
    r_dead = List.filter_map (fun d -> Option.map (fun why -> (d.dv_id, why)) d.dv_dead) per;
    r_faults = Option.map (fun f -> (Faults.total_fired f, Faults.total_calls f)) rt.Rt.faults;
  }

let launches t =
  List.concat_map (fun d -> List.map (fun s -> (d.dv_id, s)) d.dv_launches) t.r_devices

let policy_row ((off, bytes), row) =
  Printf.sprintf "buffer 0x%x+%d -> %s" off bytes
    (String.concat ", " (List.map (fun (m, n) -> Printf.sprintf "%s x%d" m n) row))

(* Only a farm's lines carry device tags. *)
let farm t = List.compare_length_with t.r_devices 1 > 0

let dev_tag t id = if farm t then Printf.sprintf "dev %d " id else ""

let print oc ~mem t =
  let dead (id, why) =
    Printf.sprintf "; device%s dead (%s)" (if farm t then Printf.sprintf " %d" id else "") why
  in
  Option.iter
    (fun (fired, calls) ->
      Printf.fprintf oc "[faults: %d injected out of %d fallible calls%s%s]\n" fired calls
        (String.concat "" (List.map dead t.r_dead))
        (if t.r_dead = [] then "" else ", host fallback used"))
    t.r_faults;
  if mem then begin
    let st = t.r_mem in
    Printf.fprintf oc
      "[mem: %d h2d + %d d2h elided, %d zero-copy accesses, %d resident buffer(s), %d byte(s) \
       digested]\n"
      st.Dataenv.elided_h2d st.Dataenv.elided_d2h st.Dataenv.zerocopy_accesses t.r_resident
      st.Dataenv.digested_bytes;
    if
      st.Dataenv.elided_h2d_pages + st.Dataenv.elided_d2h_pages + st.Dataenv.elided_update_to
      + st.Dataenv.elided_update_from
      > 0
    then
      Printf.fprintf oc
        "[mem: dirty tracking: %d h2d + %d d2h clean page(s) skipped, %d update-to + %d \
         update-from elided]\n"
        st.Dataenv.elided_h2d_pages st.Dataenv.elided_d2h_pages st.Dataenv.elided_update_to
        st.Dataenv.elided_update_from;
    List.iter
      (fun d ->
        List.iter
          (fun row -> Printf.fprintf oc "[mem: %s%s]\n" (dev_tag t d.dv_id) (policy_row row))
          d.dv_policy)
      t.r_devices
  end

let print_launches oc t =
  List.iter
    (fun (id, (s : Driver.launch_stats)) ->
      let g = s.Driver.st_grid and b = s.Driver.st_block in
      Printf.fprintf oc "  %slaunch %s grid=(%d,%d,%d) block=(%d,%d,%d): %s\n" (dev_tag t id)
        s.Driver.st_entry g.Simt.x g.Simt.y g.Simt.z b.Simt.x b.Simt.y b.Simt.z
        (Format.asprintf "%a" Costmodel.pp_breakdown s.Driver.st_breakdown))
    (launches t)
