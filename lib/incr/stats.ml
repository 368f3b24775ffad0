(* Named hit/miss counters; see stats.mli. *)

type counter = { mutable hits : int; mutable misses : int }

let table : (string, counter) Hashtbl.t = Hashtbl.create 16

let counter (name : string) : counter =
  match Hashtbl.find_opt table name with
  | Some c -> c
  | None ->
      let c = { hits = 0; misses = 0 } in
      Hashtbl.replace table name c;
      c

let hit name =
  let c = counter name in
  c.hits <- c.hits + 1

let miss name =
  let c = counter name in
  c.misses <- c.misses + 1

let counts name =
  match Hashtbl.find_opt table name with
  | None -> (0, 0)
  | Some c -> (c.hits, c.misses)

let reset () = Hashtbl.reset table
