(* In-memory spans recorded around calls into each layer's public
   functions.  A span's self time is its duration minus the part of its
   interval that its children cover. *)

type span = {
  name : string;
  trace : int;  (** one id per request *)
  parent : int;  (** index of the parent span, -1 for a root *)
  start : float;
  mutable stop : float;
}

type t = { mutable buf : span array; mutable len : int }

let create () = { buf = [||]; len = 0 }
let length t = t.len
let get t i = t.buf.(i)

let enter t ?(parent = -1) ~trace name : int =
  if t.len = Array.length t.buf then begin
    let dummy = { name = ""; trace = 0; parent = -1; start = 0.; stop = 0. } in
    let nb = Array.make (max 1024 (2 * t.len)) dummy in
    Array.blit t.buf 0 nb 0 t.len;
    t.buf <- nb
  end;
  t.buf.(t.len) <- { name; trace; parent; start = Clock.now_us (); stop = nan };
  t.len <- t.len + 1;
  t.len - 1

let leave t id = t.buf.(id).stop <- Clock.now_us ()

let within t ?parent ~trace name f =
  let id = enter t ?parent ~trace name in
  match f () with
  | r ->
      leave t id;
      r
  | exception e ->
      leave t id;
      raise e

(* Length of the union of [ivs], each clipped to [lo, hi]. *)
let covered ~lo ~hi (ivs : (float * float) list) : float =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      ivs
    |> List.sort compare
  in
  let rec go acc a b = function
    | [] -> acc +. (b -. a)
    | (a', b') :: rest ->
        if a' <= b then go acc a (Float.max b b') rest
        else go (acc +. (b -. a)) a' b' rest
  in
  match ivs with [] -> 0.0 | (a, b) :: rest -> go 0.0 a b rest

let self_time ~start ~stop children = stop -. start -. covered ~lo:start ~hi:stop children

(* Self time of every span, indexed like the spans. *)
let self_times t : float array =
  let children = Array.make t.len [] in
  for i = 0 to t.len - 1 do
    let s = t.buf.(i) in
    if s.parent >= 0 then children.(s.parent) <- (s.start, s.stop) :: children.(s.parent)
  done;
  Array.init t.len (fun i ->
      let s = t.buf.(i) in
      self_time ~start:s.start ~stop:s.stop children.(i))
