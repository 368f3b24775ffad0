(** Row-level deltas over tables: the change language of the incremental
    [put] path ({!Rlens.put_delta}).  A view edit is a list of row
    additions and removals instead of a whole replacement table. *)

type t =
  | Add of Row.t
  | Remove of Row.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val apply : Table.t -> t -> Table.t
(** Set-semantics application: [Add] of a present row and [Remove] of an
    absent row are no-ops. *)

val apply_all : Table.t -> t list -> Table.t
(** Equal to folding {!apply} over the list (each row ends as its last
    delta leaves it), built in one pass by {!Table.edit}. *)

val diff : Table.t -> Table.t -> t list
(** [diff t1 t2]: deltas turning [t1] into [t2], as one merge walk over
    the sorted arrays ([apply_all t1 (diff t1 t2)] is relationally equal
    to [t2]); removals precede additions.  {!Table.Table_error} on
    schema mismatch. *)
