(** Relational algebra over {!Table}: selection, projection, renaming,
    set operations, cartesian product and natural join.

    The operators lean on {!Table}'s sorted-array representation:
    selections run compiled predicates ({!Pred.compile}), the set
    operations are linear merges, renaming shares the row storage
    outright, and join builds a hash index over the smaller side.
    Operators that construct rows in canonical order hand them to
    {!Table.of_sorted_array_unchecked} to skip renormalisation. *)

let select (p : Pred.t) (t : Table.t) : Table.t =
  Table.filter (Pred.compile (Table.schema t) p) t

(* Column positions for a projection, resolved once. *)
let projection_indices (schema : Schema.t) (columns : string list) : int array =
  Array.of_list (List.map (Schema.index schema) columns)

let project_row (indices : int array) (r : Row.t) : Row.t =
  Array.map (fun i -> r.(i)) indices

(* Does the projection keep the source's leading columns, in order?
   Rows sort lexicographically, so such a projection of sorted rows is
   still sorted, with any duplicates adjacent. *)
let keeps_prefix (indices : int array) : bool =
  let rec go i = i >= Array.length indices || (indices.(i) = i && go (i + 1)) in
  go 0

let normalise_rows ~(sorted : bool) (rows : Row.t array) : Row.t array =
  if not sorted then
    Array.of_list (List.sort_uniq Row.compare (Array.to_list rows))
  else
    let n = Array.length rows in
    if n < 2 then rows
    else begin
      (* compact in place: [rows] belongs to the caller's fresh build *)
      let k = ref 1 in
      for i = 1 to n - 1 do
        if Row.compare rows.(i) rows.(!k - 1) <> 0 then begin
          rows.(!k) <- rows.(i);
          incr k
        end
      done;
      if !k = n then rows else Array.sub rows 0 !k
    end

let project (columns : string list) (t : Table.t) : Table.t =
  let schema = Table.schema t in
  let schema' = Schema.project schema columns in
  let indices = projection_indices schema columns in
  (* Projection of conforming rows conforms by construction, but can
     introduce duplicates and break the sort order: renormalise only. *)
  Table.of_sorted_array_unchecked schema'
    (normalise_rows ~sorted:(keeps_prefix indices)
       (Array.map (project_row indices) (Table.row_array t)))

let rename (mapping : (string * string) list) (t : Table.t) : Table.t =
  (* Renaming changes no row values, so the sorted array is shared. *)
  Table.of_sorted_array_unchecked
    (Schema.rename (Table.schema t) mapping)
    (Table.row_array t)

let union = Table.union
let diff = Table.diff
let inter = Table.inter

let product (t1 : Table.t) (t2 : Table.t) : Table.t =
  let schema' = Schema.concat (Table.schema t1) (Table.schema t2) in
  let r1 = Table.row_array t1 and r2 = Table.row_array t2 in
  let n1 = Array.length r1 and n2 = Array.length r2 in
  (* Major order by t1's sorted rows, minor by t2's: the concatenated
     rows come out sorted and distinct. *)
  let out =
    Array.init (n1 * n2) (fun i -> Row.concat r1.(i / n2) r2.(i mod n2))
  in
  Table.of_sorted_array_unchecked schema' out

(** Natural join: match rows agreeing on all shared columns; the result
    schema is [t1]'s columns followed by [t2]'s non-shared columns.
    Hash join: index [t2] by the shared-column key, probe from [t1]. *)
let join (t1 : Table.t) (t2 : Table.t) : Table.t =
  let s1 = Table.schema t1 and s2 = Table.schema t2 in
  let shared = Schema.shared s1 s2 in
  let s2_rest =
    List.filter
      (fun n -> not (List.mem n shared))
      (Schema.column_names s2)
  in
  let schema' =
    Schema.make
      (Schema.columns s1
      @ List.map (fun n -> (n, Schema.ty_of s2 n)) s2_rest)
  in
  let key1 = List.map (Schema.index s1) shared in
  let key2 = List.map (Schema.index s2) shared in
  let rest2 = projection_indices s2 s2_rest in
  let by_key = Hashtbl.create (max 16 (Table.cardinality t2)) in
  Table.iter
    (fun r2 ->
      let k = Table.key_of_row key2 r2 in
      Hashtbl.replace by_key k (r2 :: Option.value ~default:[] (Hashtbl.find_opt by_key k)))
    t2;
  let out = ref [] in
  Table.iter
    (fun r1 ->
      match Hashtbl.find_opt by_key (Table.key_of_row key1 r1) with
      | None -> ()
      | Some matches ->
          List.iter
            (fun r2 -> out := Row.concat r1 (project_row rest2 r2) :: !out)
            matches)
    t1;
  Table.of_sorted_array_unchecked schema'
    (Array.of_list (List.sort_uniq Row.compare !out))

(* ------------------------------------------------------------------ *)
(* Aggregation                                                         *)
(* ------------------------------------------------------------------ *)

(** Aggregate functions for {!group_by}.  [Avg] uses integer division
    (the value model has no floats). *)
type aggregate =
  | Count
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

let aggregate_ty (schema : Schema.t) : aggregate -> Value.ty = function
  | Count -> Value.Tint
  | Sum c | Avg c -> (
      match Schema.ty_of schema c with
      | Value.Tint -> Value.Tint
      | ty ->
          Table.errorf "aggregate: cannot sum column %s of type %s" c
            (Value.type_to_string ty))
  | Min c | Max c -> Schema.ty_of schema c

let rec eval_aggregate (schema : Schema.t) (rows : Row.t list) :
    aggregate -> Value.t = function
  | Count -> Value.Int (List.length rows)
  | Sum c ->
      let i = Schema.index schema c in
      Value.Int
        (List.fold_left
           (fun acc r ->
             match r.(i) with
             | Value.Int n -> acc + n
             | v ->
                 Table.errorf "sum: non-integer value %s" (Value.to_string v))
           0 rows)
  | Avg c -> (
      match (rows, eval_aggregate schema rows (Sum c)) with
      | [], _ -> Value.Int 0
      | _, Value.Int total -> Value.Int (total / List.length rows)
      | _, v -> v)
  | Min c ->
      let i = Schema.index schema c in
      List.fold_left
        (fun acc r -> if Value.compare r.(i) acc < 0 then r.(i) else acc)
        (List.hd rows).(i) rows
  | Max c ->
      let i = Schema.index schema c in
      List.fold_left
        (fun acc r -> if Value.compare r.(i) acc > 0 then r.(i) else acc)
        (List.hd rows).(i) rows

(** [group_by ~keys ~aggs t]: one output row per distinct key tuple,
    carrying the key columns followed by one column per named aggregate.
    [Min]/[Max] require non-empty groups (guaranteed by construction). *)
let group_by ~(keys : string list) ~(aggs : (string * aggregate) list)
    (t : Table.t) : Table.t =
  let schema = Table.schema t in
  let out_schema =
    Schema.make
      (List.map (fun k -> (k, Schema.ty_of schema k)) keys
      @ List.map (fun (n, agg) -> (n, aggregate_ty schema agg)) aggs)
  in
  let key_indices = List.map (Schema.index schema) keys in
  let groups = Hashtbl.create 16 in
  Table.iter
    (fun r ->
      let key = Table.key_of_row key_indices r in
      let existing = Option.value ~default:[] (Hashtbl.find_opt groups key) in
      Hashtbl.replace groups key (r :: existing))
    t;
  let out_rows =
    Hashtbl.fold
      (fun key rows acc ->
        Row.of_list
          (key @ List.map (fun (_, agg) -> eval_aggregate schema rows agg) aggs)
        :: acc)
      groups []
  in
  Table.of_rows out_schema out_rows

(** Rows sorted by the given columns (tables themselves are canonical
    sets; use this for ordered presentation). *)
let sort_rows ~(by : string list) ?(desc = false) (t : Table.t) : Row.t list =
  let schema = Table.schema t in
  let by_indices = List.map (Schema.index schema) by in
  let cmp r1 r2 =
    let c =
      List.fold_left
        (fun acc i -> if acc <> 0 then acc else Value.compare r1.(i) r2.(i))
        0 by_indices
    in
    if desc then -c else c
  in
  List.sort cmp (Table.rows t)

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

(** Pedigrees for the algebra's operators.  Each read-only operator here
    is the [get] side of (at most) one updatable relational lens, and a
    bx built over such a pipeline may claim exactly that lens's
    pedigree; {!Rlens} re-exports these at its lens constructors and
    {!Query} composes them into [Plan] nodes.  Operators with no
    updatable counterpart (the set operations, grouping, sorting) are
    {!opaque_pedigree}: nothing beyond the basic set-bx laws may ever be
    claimed of a bx built over them. *)

let select_pedigree ?key (p : Pred.t) : Esm_core.Pedigree.t =
  let key_preserving =
    match key with
    | None -> false
    | Some key ->
        List.for_all (fun c -> List.mem c key) (Pred.columns_used p)
  in
  Esm_core.Pedigree.Select
    { pred = Format.asprintf "%a" Pred.pp p; key_preserving }

let project_pedigree ~(keep : string list) ~(key : string list)
    (source_schema : Schema.t) : Esm_core.Pedigree.t =
  let lossless =
    List.for_all
      (fun c -> List.mem c keep)
      (Schema.column_names source_schema)
  in
  Esm_core.Pedigree.Project { keep; key; lossless }

let rename_pedigree (mapping : (string * string) list) : Esm_core.Pedigree.t =
  Esm_core.Pedigree.Rename mapping

let join_pedigree ?(right_fds : Fd.t list = []) ~(left : Schema.t)
    ~(right : Schema.t) () : Esm_core.Pedigree.t =
  let shared = Schema.shared left right in
  let right_rest =
    List.filter
      (fun n -> not (List.mem n shared))
      (Schema.column_names right)
  in
  let fd_proven =
    List.exists
      (fun (fd : Fd.t) ->
        List.for_all (fun c -> List.mem c shared) fd.Fd.determinant
        && List.for_all (fun c -> List.mem c fd.Fd.dependent) right_rest)
      right_fds
  in
  Esm_core.Pedigree.Join { on = shared; fd_proven }

let opaque_pedigree (operator : string) : Esm_core.Pedigree.t =
  Esm_core.Pedigree.opaque ("algebra." ^ operator)
