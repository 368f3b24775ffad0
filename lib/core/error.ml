(** The typed bx error taxonomy: one structured error value for every
    failure an entangled update can surface, replacing the stringly
    exceptions ([Lens.Shape_error], [Table_error], [Model_error], …) at
    the API boundary.

    Subsystems keep their historical exception constructors for
    compatibility, but route construction through {!raisef} and register
    a {e classifier} ({!register_classifier}) so that {!of_exn} can
    recover the structured payload — kind, operation name, detail — from
    any bx exception, however it was raised.  {!Atomic} uses exactly
    this recovery to decide which exceptions roll back a transaction and
    which (genuine programming errors such as [Invalid_argument])
    propagate untouched.

    Two kinds are special to the robustness layer:

    - [Fault] — an injected failure from the {!Chaos} harness;
    - [Index] — a broken acceleration index.

    Both are {e degradable} ({!is_degradable}): the delta fast paths
    ([Rlens.put_delta], [Mbx.fwd_delta]) treat them as "distrust the
    incremental machinery and fall back to the full oracle", never as
    user-facing errors. *)

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
          committed first ([Esm_sync]) *)
  | Corrupt
      (** an on-disk log failed validation beyond what crash recovery
          may repair ([Esm_sync.Durable_log]) *)
  | Transport of [ `Transient | `Permanent ]
      (** a network-layer failure ([Esm_sync.Transport]): a broken or
          half-open connection, a mangled frame, a classified
          [Unix.Unix_error].  The flag drives retry policy: [`Transient]
          failures are worth a backoff-and-resend, [`Permanent] ones are
          not *)
  | Timeout  (** a per-request or retry-budget deadline expired *)
  | Overload
      (** the server shed this request: the connection's pending-response
          queue exceeded its bound ([Esm_sync.Transport]) *)
  | Other  (** a classified bx error of no more specific kind *)

let kind_name = function
  | Shape -> "shape"
  | Table -> "table"
  | Schema -> "schema"
  | Model -> "model"
  | Metamodel -> "metamodel"
  | Parse -> "parse"
  | Fault -> "fault"
  | Index -> "index"
  | Conflict -> "conflict"
  | Corrupt -> "corrupt"
  | Transport `Transient -> "transport.transient"
  | Transport `Permanent -> "transport.permanent"
  | Timeout -> "timeout"
  | Overload -> "overload"
  | Other -> "other"

type t = {
  kind : kind;
  op : string;  (** the operation that failed, e.g. ["of_rows"] *)
  detail : string;  (** human-readable description, offending value included *)
}

exception Bx_error of t

let v kind ~op detail = { kind; op; detail }

let message (e : t) : string =
  if e.op = "" then e.detail else e.op ^ ": " ^ e.detail

let pp fmt (e : t) =
  Format.fprintf fmt "[%s] %s" (kind_name e.kind) (message e)

let to_string (e : t) : string = Format.asprintf "%a" pp e

(* Recover the (op, detail) structure from a legacy "op: detail"
   message; messages with no "op: " prefix classify with an empty op. *)
let of_message kind (msg : string) : t =
  match String.index_opt msg ':' with
  | Some i
    when i > 0
         && i + 1 < String.length msg
         && msg.[i + 1] = ' '
         && not (String.contains (String.sub msg 0 i) ' ') ->
      {
        kind;
        op = String.sub msg 0 i;
        detail = String.sub msg (i + 2) (String.length msg - i - 2);
      }
  | _ -> { kind; op = ""; detail = msg }

let raise_error kind ~op fmt =
  Format.kasprintf (fun detail -> raise (Bx_error (v kind ~op detail))) fmt

(** [raisef kind ~wrap fmt] formats the message and raises [wrap msg] —
    the legacy exception constructor — keeping old [with Table_error _]
    handlers working while {!of_exn} (via the subsystem's registered
    classifier) recovers the structured form. *)
let raisef kind ?wrap fmt =
  Format.kasprintf
    (fun msg ->
      match wrap with
      | Some w -> raise (w msg)
      | None -> raise (Bx_error (of_message kind msg)))
    fmt

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

(* A [Unix_error] is transient exactly when the same call stands a
   chance of succeeding after a reconnect or a short wait: the
   interrupted/again family, and the peer-or-path failures a lossy
   network produces.  Everything else — bad descriptors, permissions,
   address misconfiguration — retrying cannot fix. *)
let transient_unix_error : Unix.error -> bool = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.EINPROGRESS
  | Unix.EALREADY | Unix.ECONNRESET | Unix.ECONNABORTED | Unix.ECONNREFUSED
  | Unix.EPIPE | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.EHOSTDOWN
  | Unix.ENETDOWN | Unix.ENETUNREACH | Unix.ENETRESET | Unix.ENOBUFS ->
      true
  | _ -> false

let of_unix_error (e : Unix.error) (fn : string) (arg : string) : t =
  let flag = if transient_unix_error e then `Transient else `Permanent in
  {
    kind = Transport flag;
    op = fn;
    detail =
      (Unix.error_message e ^ if arg = "" then "" else Printf.sprintf " (%s)" arg);
  }

let classifiers : (exn -> t option) list ref = ref []

let register_classifier (f : exn -> t option) : unit =
  classifiers := f :: !classifiers

(** Recover the structured error behind any bx exception; [None] for
    exceptions that are not bx errors (those must propagate through
    {!Atomic} untouched). *)
let of_exn (exn : exn) : t option =
  match exn with
  | Bx_error e -> Some e
  | Esm_lens.Lens.Shape_error msg -> Some (of_message Shape msg)
  | Unix.Unix_error (e, fn, arg) -> Some (of_unix_error e fn arg)
  | _ -> List.find_map (fun f -> f exn) !classifiers

let is_bx_exn (exn : exn) : bool = Option.is_some (of_exn exn)

let is_fault (e : t) : bool = e.kind = Fault

(** Degradable errors signal broken {e acceleration} machinery (an
    injected fault, a broken index) rather than an invalid
    update; fast paths respond by falling back to the full oracle. *)
let is_degradable (e : t) : bool =
  match e.kind with Fault | Index -> true | _ -> false

let degradable_exn (exn : exn) : bool =
  match of_exn exn with Some e -> is_degradable e | None -> false

(** Transient errors are worth a backoff-and-resend of the {e same}
    request: the network broke ([Transport `Transient]), the answer
    never came ([Timeout]), or the server shed the request unexecuted
    ([Overload]). *)
let is_transient (e : t) : bool =
  match e.kind with
  | Transport `Transient | Timeout | Overload -> true
  | _ -> false

(** Retryable extends transient with the failures where {e re-executing}
    the operation can succeed: an optimistic-concurrency [Conflict]
    (rebase and go again) and an injected [Fault] (the chaos schedule
    moves on at the next visit).  Retry loops distinguish the two
    classes by what the server saw — a transient failure retries under
    the same idempotency key, a retryable execution failure needs a
    fresh one ([Esm_sync.Transport.Remote_session]). *)
let retryable (e : t) : bool =
  match e.kind with
  | Conflict | Fault -> true
  | _ -> is_transient e
