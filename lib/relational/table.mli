(** Tables with set semantics: rows are kept in a sorted, deduplicated
    array, so structural equality of tables is relational equality,
    membership is a binary search, and the set operations are linear
    merges.  A lazily-built, memoized key index gives O(1) key-directed
    row lookup — the substrate for the relational-lens [put] directions
    and the delta-propagation path. *)

exception Table_error of string

val errorf : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Table_error} with a formatted message. *)

type t

val of_rows : Schema.t -> Row.t list -> t
(** Build a table; every row must conform to the schema (otherwise
    {!Table_error}); rows are deduplicated and sorted. *)

val of_sorted_array_unchecked : Schema.t -> Row.t array -> t
(** Trusted constructor: the rows must conform to the schema, be sorted
    by {!Row.compare} and contain no duplicates; the array is owned by
    the table afterwards.  For hot paths that preserve those invariants
    by construction — misuse silently breaks relational equality. *)

val of_lists : Schema.t -> Value.t list list -> t
(** Convenience wrapper over {!of_rows}. *)

val empty : Schema.t -> t
val schema : t -> Schema.t

val rows : t -> Row.t list
(** Rows in canonical (sorted) order. *)

val row_array : t -> Row.t array
(** The backing sorted array — treat as read-only; mutating it breaks
    the table's invariants. *)

val cardinality : t -> int
val iter : (Row.t -> unit) -> t -> unit
val fold : ('acc -> Row.t -> 'acc) -> 'acc -> t -> 'acc
val for_all : (Row.t -> bool) -> t -> bool
val exists : (Row.t -> bool) -> t -> bool

val mem : t -> Row.t -> bool
(** Binary search over the sorted rows: O(log n). *)

val insert : t -> Row.t -> t
(** Set insertion (idempotent); the row must conform to the schema.
    Binary search + array splice — no re-sort.  Inserting a present row
    returns the table physically unchanged. *)

val delete : t -> Row.t -> t
(** Binary search + array splice; absent rows return the table
    physically unchanged. *)

val edit : t -> (bool * Row.t) list -> t
(** [edit t ops]: a burst of set edits in one pass — [(true, r)]
    inserts [r], [(false, r)] deletes it.  Equal to applying [ops] one
    at a time, in order: each row ends as its last operation leaves it,
    and every inserted row must conform, checked in list order.  The
    new row array is built once, copying the unchanged stretches in
    blocks.  A burst that changes nothing returns the table physically
    unchanged. *)

val filter : (Row.t -> bool) -> t -> t

val map : Schema.t -> (Row.t -> Row.t) -> t -> t
(** Per-row transformation; the result is renormalised under the new
    schema. *)

(** {1 Merge-based set operations}

    All three require equal schemas ({!Table_error} otherwise) and run
    in O(n + m) single merge passes over the sorted arrays. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** {1 Key indexes} *)

val key_of_row : int list -> Row.t -> Value.t list
(** The key tuple of a row at the given column positions. *)

val key_index : t -> int list -> Value.t list -> Row.t option
(** [key_index t key] is a lookup from key tuple (values at the given
    column positions) to row, backed by an index the table builds on
    first use in O(n) and memoizes for the same key — O(1) lookups
    afterwards.  Only the table holds the index.  If the key does not
    functionally determine rows, later rows win. *)

val equal : t -> t -> bool
(** Relational equality; short-circuits on physical identity of the
    tables or of their row storage before the row-wise comparison. *)

val pp : Format.formatter -> t -> unit
(** ASCII-art rendering with padded columns. *)

val to_string : t -> string
