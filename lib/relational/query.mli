(** A small pipeline query language over the relational substrate:
    parser, evaluator, pretty-printer, and the compilers from view
    definitions to (delta-capable) relational lenses.

    {v
    employees | where dept = "Engineering" and salary < 70000
              | select id, name
              | rename name as who
    employees join depts
    (a union b) | where x <= 3
    v}

    Grammar (pipelines bind tighter than the infix set operators, which
    associate to the left):

    {v
    query := term (("union" | "diff" | "join" | "product") term)*
    term  := atom ("|" stage)*
    atom  := IDENT | "(" query ")"
    stage := "where" pred
           | "select" IDENT ("," IDENT)*
           | "rename" IDENT "as" IDENT ("," IDENT "as" IDENT)*
    pred  := conj ("or" conj)* ; conj := neg ("and" neg)*
    neg   := "not" neg | "(" pred ")" | expr ("=" | "<=" | "<") expr
    expr  := IDENT | INT | STRING | "true" | "false"
    v} *)

(** Query syntax.  Kept concrete: the demo, the tests and the examples
    pattern-match and build queries directly. *)
type t =
  | Base of string
  | Where of Pred.t * t
  | Project of string list * t
  | Rename of (string * string) list * t
  | Union of t * t
  | Diff of t * t
  | Join of t * t
  | Product of t * t

exception Parse_error of string
(** Lexing/parsing failure; classified as {!Esm_core.Error.Parse} by
    {!Esm_core.Error.of_exn}. *)

(** {1 Evaluation} *)

val eval : (string -> Table.t) -> t -> Table.t
(** Evaluate against an environment of named base tables. *)

val bases : t -> string list
(** Base tables referenced by the query, left to right (with
    duplicates). *)

val run : (string -> Table.t) -> string -> Table.t
(** Parse and evaluate in one step. *)

(** {1 Printing and parsing}

    [parse] and [pp]/[to_string] round-trip: printing uses the same
    surface syntax the parser accepts. *)

val pp : Format.formatter -> t -> unit
val pp_term : Format.formatter -> t -> unit
(** Like {!pp} but parenthesising set operations, as required in
    pipeline-stage position. *)

val pp_pred : Format.formatter -> Pred.t -> unit
val pp_expr : Format.formatter -> Pred.expr -> unit
val to_string : t -> string

val parse : string -> t
(** @raise Parse_error on malformed input (including trailing tokens).
    Messages carry the 1-based line/column and the offending token,
    e.g. ["line 1, column 12: expected a stage ('where', 'select' or
    'rename'), got integer 3"]. *)

val parse_prefix : Qlex.t list -> eof:Qlex.pos -> t * Qlex.t list
(** Parse the longest query expression at the head of a token stream,
    returning it with the unconsumed suffix.  [eof] positions
    end-of-input errors.  The ESMQL statement parser ([Esm_ql]) embeds
    query expressions through this entry point so there is exactly one
    grammar.
    @raise Parse_error on malformed input. *)

(** {1 Updatable views}

    Compile a single-base pipeline into a relational lens from the base
    table to the view.  Supported stages: [where] (select lens),
    [select] (project lens — the key columns must be kept), [rename]
    (iso).  Set operations are not updatable and raise
    {!Not_updatable}. *)

exception Not_updatable of string

val to_lens :
  schema:Schema.t ->
  key:string list ->
  t ->
  (Table.t, Table.t) Esm_lens.Lens.t
(** [schema] is the base-table schema, [key] the columns identifying
    rows (used by project's [put] to restore dropped values; renamed
    along with everything else by [rename] stages).  The lens is
    [Rlens.lens_of_dlens (to_dlens ~schema ~key q)], named
    ["view: <q>"]: its [put] runs {!Rlens.put_delta} on the view's
    diff, and the full-put pipeline is [(to_dlens ~schema ~key q).lens].
    @raise Not_updatable on unsupported stages or key-dropping selects. *)

val lens_of_string :
  schema:Schema.t ->
  key:string list ->
  string ->
  (Table.t, Table.t) Esm_lens.Lens.t
(** Parse a view definition and compile it in one step. *)

val pedigree : schema:Schema.t -> key:string list -> t -> Esm_core.Pedigree.t
(** The {!Esm_core.Pedigree.Plan} provenance {!to_lens} compilation
    produces: the composed per-combinator pedigrees under a [Plan] node
    carrying the query's surface syntax.  Total — shapes {!to_lens}
    rejects get an [Opaque] body instead of raising. *)

val to_dlens : schema:Schema.t -> key:string list -> t -> Rlens.dlens
(** Like {!to_lens}, but delta-capable: view edits can be pushed back
    incrementally with {!Rlens.put_delta} instead of replacing the whole
    view.  The result's [pedigree] is a [Plan] node over the combinator
    pipeline.

    Memoized: compilation is pure in (query, schema, key) — the printed
    forms key a process-wide plan cache, so repeated compilations of
    the same view are O(1) hits (the ["query.plan"] {!Esm_incr.Stats}
    counter).  A cached plan carries its full pedigree; a hit reports
    exactly the law level of a cold compile. *)

val to_dlens_uncached : schema:Schema.t -> key:string list -> t -> Rlens.dlens
(** The cold compiler behind {!to_dlens}, bypassing the plan cache —
    the reference for cache-transparency tests (law-level parity of a
    memo hit vs a fresh compile). *)

val clear_plan_cache : unit -> unit
(** Drop every cached plan (they recompile on next use).  For tests
    that need a guaranteed cold compile through {!to_dlens} itself. *)

val dlens_of_string :
  schema:Schema.t -> key:string list -> string -> Rlens.dlens
(** Parse a view definition and compile it to a delta-capable lens. *)
