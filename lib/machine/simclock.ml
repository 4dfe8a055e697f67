(* Simulated wall clock.  All components of the virtual platform advance
   this clock with modelled durations; benchmark harnesses read it to
   report "execution time" the way the paper reports seconds on the real
   board.  Host code counts its steps in place into [host]; the clock
   pays the unpaid ones before every read or advance, one [step_ns]
   addition each, as if each step had been charged as it ran. *)

type tally = {
  mutable arith : int;
  mutable mul : int;
  mutable div : int;
  mutable branch : int;
  mutable call : int;
  mutable special : int;
}

let tally () = { arith = 0; mul = 0; div = 0; branch = 0; call = 0; special = 0 }

let tally_total c = c.arith + c.mul + c.div + c.branch + c.call + c.special

(* [now] is a float-only record, so its float is stored unboxed and an
   advance allocates nothing. *)
type t = {
  now : now;
  host : tally;
  mutable paid : int; (* [host]'s steps already added to [now] *)
  step_ns : float;
}

and now = { mutable ns : float }

let create ?(step_ns = 0.0) () = { now = { ns = 0.0 }; host = tally (); paid = 0; step_ns }

let host_steps t = t.host

let settle t =
  let n = tally_total t.host in
  if n > t.paid then begin
    let ns = ref t.now.ns in
    for _ = t.paid + 1 to n do
      ns := !ns +. t.step_ns
    done;
    t.now.ns <- !ns;
    t.paid <- n
  end

let now_ns t =
  settle t;
  t.now.ns

let now_s t = now_ns t *. 1e-9

let advance_ns t d =
  settle t;
  if d < 0.0 then invalid_arg "Simclock.advance_ns: negative duration";
  t.now.ns <- t.now.ns +. d

let advance_us t d = advance_ns t (d *. 1e3)

let advance_ms t d = advance_ns t (d *. 1e6)

let advance_to t ns =
  settle t;
  if ns > t.now.ns then t.now.ns <- ns

let reset t =
  t.paid <- tally_total t.host;
  t.now.ns <- 0.0

(* Time an action: returns the simulated duration it accounted for. *)
let time t f =
  let before = now_ns t in
  let result = f () in
  (result, (now_ns t -. before) *. 1e-9)
