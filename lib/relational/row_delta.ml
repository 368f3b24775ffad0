(** Row-level deltas over tables: the change language of the incremental
    [put] path.  A view edit is described as a list of row additions and
    removals rather than a whole replacement table, and
    {!Rlens.put_delta} translates view deltas into source deltas instead
    of rebuilding the source — the relational face of the paper's
    entangled-update story, where a small edit on one side should induce
    a correspondingly small restoration step on the other. *)

type t =
  | Add of Row.t
  | Remove of Row.t

let pp fmt = function
  | Add r -> Format.fprintf fmt "+%s" (Row.to_string r)
  | Remove r -> Format.fprintf fmt "-%s" (Row.to_string r)

let to_string d = Format.asprintf "%a" pp d

let apply (table : Table.t) : t -> Table.t = function
  | Add r -> Table.insert table r
  | Remove r -> Table.delete table r

(** The burst in one pass ({!Table.edit}): equal to folding {!apply}
    over [deltas], with one array build instead of one per delta. *)
let apply_all (table : Table.t) (deltas : t list) : Table.t =
  Table.edit table
    (List.map (function Add r -> (true, r) | Remove r -> (false, r)) deltas)

(** [diff t1 t2]: deltas turning [t1] into [t2]
    ([apply_all t1 (diff t1 t2)] is relationally equal to [t2]).  A
    single merge walk over the two sorted arrays; removals precede
    additions. *)
let diff (t1 : Table.t) (t2 : Table.t) : t list =
  if not (Schema.equal (Table.schema t1) (Table.schema t2)) then
    Table.errorf "Row_delta.diff: schema mismatch: %s vs %s"
      (Schema.to_string (Table.schema t1))
      (Schema.to_string (Table.schema t2));
  let r1 = Table.row_array t1 and r2 = Table.row_array t2 in
  let n1 = Array.length r1 and n2 = Array.length r2 in
  let removes = ref [] and adds = ref [] in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    (* a table and its edit share their unchanged rows physically, and
       comparing those rows is most of what a diff costs *)
    let c = if r1.(!i) == r2.(!j) then 0 else Row.compare r1.(!i) r2.(!j) in
    if c < 0 then (
      removes := Remove r1.(!i) :: !removes;
      incr i)
    else if c > 0 then (
      adds := Add r2.(!j) :: !adds;
      incr j)
    else (
      incr i;
      incr j)
  done;
  while !i < n1 do
    removes := Remove r1.(!i) :: !removes;
    incr i
  done;
  while !j < n2 do
    adds := Add r2.(!j) :: !adds;
    incr j
  done;
  List.rev_append !removes (List.rev !adds)
