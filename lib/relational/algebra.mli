(** Relational algebra over {!Table}. *)

val select : Pred.t -> Table.t -> Table.t
val project : string list -> Table.t -> Table.t
(** When the kept columns are the schema's leading prefix, in order, the
    projected rows are already sorted: only adjacent duplicates are
    dropped, with no re-sort. *)

val projection_indices : Schema.t -> string list -> int array
(** Source positions of the named columns, in the order given. *)

val keeps_prefix : int array -> bool
(** Are these positions [0, 1, ..., k-1] — the schema's leading
    columns, in order? *)

val normalise_rows : sorted:bool -> Row.t array -> Row.t array
(** Rows as a sorted, distinct array.  [~sorted:true] promises the input
    is already sorted by {!Row.compare}, so only adjacent duplicates are
    dropped, compacting the caller's fresh array in place. *)

val rename : (string * string) list -> Table.t -> Table.t
(** Rename columns per the (old, new) mapping. *)

val union : Table.t -> Table.t -> Table.t
(** Set union; schemas must be equal ({!Table.Table_error} otherwise). *)

val diff : Table.t -> Table.t -> Table.t
val inter : Table.t -> Table.t -> Table.t

val product : Table.t -> Table.t -> Table.t
(** Cartesian product; column names must be disjoint. *)

val join : Table.t -> Table.t -> Table.t
(** Natural join: rows agreeing on all shared columns; the result schema
    is the left schema followed by the right-only columns. *)

(** {1 Aggregation} *)

(** Aggregate functions for {!group_by}; [Avg] uses integer division. *)
type aggregate =
  | Count
  | Sum of string
  | Avg of string
  | Min of string
  | Max of string

val group_by :
  keys:string list -> aggs:(string * aggregate) list -> Table.t -> Table.t
(** One output row per distinct key tuple: the key columns followed by
    one column per named aggregate. *)

val sort_rows : by:string list -> ?desc:bool -> Table.t -> Row.t list
(** Rows sorted by the given columns, for ordered presentation (tables
    themselves are canonical sets). *)

(** {1 Provenance}

    Each read-only operator is the [get] side of (at most) one updatable
    relational lens; these are the lemma-backed
    {!Esm_core.Pedigree} claims a bx built over such a pipeline may
    make.  {!Rlens} re-exports them at its lens constructors; {!Query}
    composes them into [Plan] nodes. *)

val select_pedigree : ?key:string list -> Pred.t -> Esm_core.Pedigree.t
(** [Select { pred; key_preserving }]; key-preserving iff [key] is given
    and the predicate reads only key columns. *)

val project_pedigree :
  keep:string list -> key:string list -> Schema.t -> Esm_core.Pedigree.t
(** [Project { keep; key; lossless }]; lossless iff every source column
    is kept. *)

val rename_pedigree : (string * string) list -> Esm_core.Pedigree.t

val join_pedigree :
  ?right_fds:Fd.t list ->
  left:Schema.t ->
  right:Schema.t ->
  unit ->
  Esm_core.Pedigree.t
(** [Join { on; fd_proven }]; proven iff a declared right-table FD shows
    the shared columns determine the rest of the right row. *)

val opaque_pedigree : string -> Esm_core.Pedigree.t
(** For operators with no updatable counterpart (set operations,
    grouping, sorting): nothing beyond the set-bx laws. *)
