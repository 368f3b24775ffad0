(** The typed bx error taxonomy (see [docs/ROBUSTNESS.md]).

    A structured error — kind, operation name, detail — behind every
    failure an entangled update can surface.  Subsystems keep their
    historical string exceptions as thin wrappers for compatibility but
    build them through {!raisef} and register a classifier, so {!of_exn}
    recovers the structure from any bx exception and {!Atomic} can
    distinguish bx failures (roll back) from programming errors
    (propagate). *)

type kind =
  | Shape  (** a partial lens applied outside its domain *)
  | Table  (** relational table construction or set operations *)
  | Schema  (** schema construction and column lookup *)
  | Model  (** MDE model construction and object updates *)
  | Metamodel  (** metamodel validation and fresh-object synthesis *)
  | Parse  (** query-language lexing and parsing *)
  | Fault  (** an injected failure ({!Chaos}) *)
  | Index  (** a broken acceleration index (degradable) *)
  | Conflict
      (** an optimistic version check failed: a concurrent session
          committed against the same base first ([Esm_sync]); losers
          rebase (pull the winning entries and replay through the bx)
          and retry *)
  | Corrupt
      (** an on-disk oplog failed validation beyond what crash recovery
          may repair — bad magic or format version, a mid-file checksum
          mismatch, a version gap ([Esm_sync.Durable_log]).  A torn
          {e tail} is {e not} [Corrupt]: that is the artifact an honest
          crash leaves, and recovery truncates it silently. *)
  | Transport of [ `Transient | `Permanent ]
      (** a network-layer failure ([Esm_sync.Transport]): a broken or
          half-open connection, a mangled frame, a classified
          [Unix.Unix_error].  The flag makes retry policy type-driven:
          [`Transient] failures (connection reset, timeout family,
          unreachable peer) are worth a backoff-and-resend, [`Permanent]
          ones (bad descriptor, permissions, misconfigured address) are
          not. *)
  | Timeout  (** a per-request or retry-budget deadline expired *)
  | Overload
      (** the server shed this request unexecuted: the connection's
          pending-response queue exceeded its bound
          ([Esm_sync.Transport]) — back off and resend *)
  | Other  (** a classified bx error of no more specific kind *)

val kind_name : kind -> string

type t = {
  kind : kind;
  op : string;  (** the operation that failed, e.g. ["of_rows"] *)
  detail : string;  (** human-readable description, offending value included *)
}

exception Bx_error of t

val v : kind -> op:string -> string -> t
val message : t -> string
(** ["op: detail"] (or just the detail when the op is unknown). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val of_message : kind -> string -> t
(** Recover the [(op, detail)] structure from a legacy ["op: detail"]
    message. *)

val raise_error :
  kind -> op:string -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Bx_error} with an explicit operation name. *)

val raisef :
  kind ->
  ?wrap:(string -> exn) ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Format the message and raise [wrap msg] — the subsystem's legacy
    exception constructor — or {!Bx_error} when no wrapper is given.
    The wrapped form stays classifiable through the subsystem's
    registered classifier. *)

val register_classifier : (exn -> t option) -> unit
(** Hook a legacy exception into {!of_exn}.  Called once at module
    initialisation by each subsystem that keeps a compatibility
    exception (e.g. [Table_error]). *)

val of_exn : exn -> t option
(** The structured error behind any bx exception; [None] for exceptions
    that are not bx errors. *)

val is_bx_exn : exn -> bool

val is_fault : t -> bool

val is_degradable : t -> bool
(** [Fault] and [Index]: broken acceleration machinery rather than an
    invalid update — fast paths respond by falling back to the full
    oracle instead of failing the operation. *)

val degradable_exn : exn -> bool

val of_unix_error : Unix.error -> string -> string -> t
(** Classify a [Unix.Unix_error (err, fn, arg)] payload into a
    [Transport] error whose transient/permanent flag is decided by the
    errno (the interrupted/again family and peer-or-path failures are
    transient; descriptor, permission and address errors are
    permanent).  {!of_exn} applies this to raw [Unix.Unix_error]
    exceptions, so socket code needs no string matching to build a
    retry policy. *)

val is_transient : t -> bool
(** [Transport `Transient], [Timeout] and [Overload]: the request may
    never have executed — resend the {e same} request (same idempotency
    key) after a backoff. *)

val retryable : t -> bool
(** {!is_transient} plus [Conflict] and [Fault]: failures where
    retrying can succeed, though for these the server definitely
    executed (and rejected) the request, so a retry must re-execute
    under a {e fresh} idempotency key. *)
