(* Percentiles by nearest rank, and the tail rule the benchmark reports
   by: a tail is p99 only when at least 10 samples lie beyond it;
   otherwise it is the highest percentile that still has 10 samples
   beyond it. *)

let sorted (xs : float array) : float array =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* 0-based nearest-rank index of quantile [p] among [n] samples *)
let rank n p =
  max 0 (min (n - 1) (int_of_float (Float.ceil ((p *. float n) -. 1e-9)) - 1))

let quantile (s : float array) p = s.(rank (Array.length s) p)

type t = {
  value : float;
  pct : float;  (** the percentile actually reported *)
  beyond : int;  (** samples strictly above it in rank *)
}

(* [s] must be sorted; [None] when there are 10 samples or fewer *)
let tail (s : float array) : t option =
  let min_beyond = 10 in
  let n = Array.length s in
  if n <= min_beyond then None
  else
    let i = min (rank n 0.99) (n - 1 - min_beyond) in
    Some { value = s.(i); pct = 100. *. float (i + 1) /. float n; beyond = n - 1 - i }
