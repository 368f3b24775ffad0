(* Monotonic time in microseconds since the process started timing. *)

let origin = Monotonic_clock.now ()

let now_us () : float =
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) /. 1e3
