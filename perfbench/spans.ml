(* The benchmark's own host-clock spans, recorded around every layer call
   it makes.  Spans stay in memory for the whole run and are read out
   once at the end; a disabled recorder only runs the wrapped call, so
   untraced runs pay one branch per layer call. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_parent : int;  (** [-1] for a root span *)
  sp_op : int;  (** operation id: one workload operation, e.g. one (app, variant) run *)
  sp_start_ns : float;  (** monotonic clock *)
  sp_end_ns : float;
  sp_alloc_words : float;  (** words the OCaml heap allocated inside the span *)
}

type t = {
  on : bool;
  mutable stack : (int * string * int * float * float) list;
      (** open spans: id, name, parent, start, allocated words at start *)
  mutable closed : span list;  (** most recent first *)
  mutable next_id : int;
  op : int;
}

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* A recorder for operation [op]; recorders of different ops (which run
   in different processes) number their spans apart. *)
let create ?(op = 0) ~on () = { on; stack = []; closed = []; next_id = op * 1_000_000; op }

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span t (name : string) (f : unit -> 'a) : 'a =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with (p, _, _, _, _) :: _ -> p | [] -> -1 in
    t.stack <- (id, name, parent, now_ns (), alloc_words ()) :: t.stack;
    let close () =
      match t.stack with
      | (id', name', parent', start, words) :: rest when id' = id ->
        t.stack <- rest;
        t.closed <-
          {
            sp_id = id;
            sp_name = name';
            sp_parent = parent';
            sp_op = t.op;
            sp_start_ns = start;
            sp_end_ns = now_ns ();
            sp_alloc_words = alloc_words () -. words;
          }
          :: t.closed
      | _ -> invalid_arg "Spans.span: unbalanced close"
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(** Closed spans in start order. *)
let spans t = List.sort (fun a b -> compare a.sp_id b.sp_id) t.closed

let duration s = s.sp_end_ns -. s.sp_start_ns

(** Self time of every span: its duration minus the part its direct
    children cover (children of one parent never overlap: the recorder
    is single-threaded). *)
let self_times (all : span list) : (span * float) list =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace child_ns s.sp_parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.sp_parent)))
    all;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_ns s.sp_id)))
    all

(** Spans one level below an operation span: the layer calls the
    benchmark makes directly.  Operation spans are the roots. *)
let top_level (all : span list) : span list =
  let roots = Hashtbl.create 16 in
  List.iter (fun s -> if s.sp_parent < 0 then Hashtbl.replace roots s.sp_id ()) all;
  List.filter (fun s -> Hashtbl.mem roots s.sp_parent) all

(** [true] when every span lies inside its parent's interval. *)
let nested (all : span list) : bool =
  let by_id = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace by_id s.sp_id s) all;
  List.for_all
    (fun s ->
      s.sp_start_ns <= s.sp_end_ns
      &&
      match Hashtbl.find_opt by_id s.sp_parent with
      | None -> s.sp_parent < 0
      | Some p -> p.sp_start_ns <= s.sp_start_ns && s.sp_end_ns <= p.sp_end_ns && p.sp_op = s.sp_op)
    all
