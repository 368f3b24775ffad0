(** The versioned append-only operation log behind a replicated store.

    Versions are assigned densely: the [n]-th committed operation has
    version [n], version [0] is the initial state.  Periodic snapshots
    pin (version, state) pairs so crash recovery replays a bounded
    suffix instead of the whole history.  States in this library are
    immutable values, so a snapshot is just a retained binding — there
    is no copying cost, only the decision of {e which} versions stay
    reachable: only the most recent one, since nothing reads older
    snapshots (each would pin a whole state).

    Compaction introduces a {e horizon}: the version below which
    entries have been dropped because their effects are already folded
    into the retained snapshot at that version.  A log with horizon 0
    retains full history and behaves exactly as before. *)

type 'op entry = { version : int; session : string; op : 'op }

type ('op, 's) t = {
  mutable entries : 'op entry list;  (** newest first *)
  mutable latest : int * 's;
      (** the most recent snapshot; seeded [(horizon, init)] — only the
          newest is ever read, so older ones are not retained *)
  mutable horizon : int;  (** entries with version <= horizon are gone *)
  snapshot_every : int;
}

let create ?(snapshot_every = 8) ?(horizon = 0) ~(init : 's) () :
    ('op, 's) t =
  if snapshot_every <= 0 then
    invalid_arg "Oplog.create: snapshot_every must be positive";
  if horizon < 0 then invalid_arg "Oplog.create: horizon must be >= 0";
  { entries = []; latest = (horizon, init); horizon; snapshot_every }

let horizon (t : ('op, 's) t) : int = t.horizon

let head_version (t : ('op, 's) t) : int =
  match t.entries with [] -> t.horizon | e :: _ -> e.version

let length (t : ('op, 's) t) : int = List.length t.entries

(** Append the next operation; the new head version is returned. *)
let append (t : ('op, 's) t) ~(session : string) (op : 'op) : int =
  let version = head_version t + 1 in
  t.entries <- { version; session; op } :: t.entries;
  version

(** Entries with versions strictly above [v], oldest first — the replay
    (or rebase) suffix.  Total for every integer [v] {e at or above the
    horizon} (and for any [v] when the horizon is 0): above head it is
    [[]], at or below 0 it is the whole retained log.  Below a positive
    horizon the suffix no longer exists — asking for it is a protocol
    error surfaced as a typed [Error.Corrupt]; callers that can resync
    should use {!read_since} instead.  The early exit at the first
    version [<= v] matches the list-filter reference precisely because
    [append] keeps the newest-first list strictly decreasing — see the
    contract note in the interface. *)
let entries_since (t : ('op, 's) t) (v : int) : 'op entry list =
  if t.horizon > 0 && v < t.horizon then
    Esm_core.Error.raise_error Corrupt ~op:"entries_since"
      "version %d is below retained horizon %d: resync from snapshot" v
      t.horizon
  else
    let rec take acc = function
      | e :: rest when e.version > v -> take (e :: acc) rest
      | _ -> acc
    in
    take [] t.entries

(** The resync-aware read: either the replay suffix or, when [v] has
    fallen below a positive horizon, the latest snapshot to restart
    from.  Total for every integer [v]. *)
let read_since (t : ('op, 's) t) (v : int) :
    [ `Entries of 'op entry list | `Resync of int * 's ] =
  if t.horizon > 0 && v < t.horizon then
    (* resync from the *latest* snapshot — it covers the longest
       prefix, so the caller replays the shortest suffix *)
    `Resync t.latest
  else `Entries (entries_since t v)

let snapshot_due (t : ('op, 's) t) : bool =
  head_version t mod t.snapshot_every = 0

let record_snapshot (t : ('op, 's) t) (version : int) (state : 's) : unit =
  t.latest <- (version, state)

(** The most recent snapshot — where a crashed store wakes up. *)
let latest_snapshot (t : ('op, 's) t) : int * 's = t.latest

(** Drop every entry at or below the latest snapshot version: after
    compaction the latest snapshot is the new horizon — the exact prefix
    whose effects it already reflects.
    Returns the number of entries dropped (0 when the snapshot is
    already the horizon).  Idempotent. *)
let compact (t : ('op, 's) t) : int =
  let v, _ = t.latest in
  if v <= t.horizon then 0
  else begin
    let keep, dropped =
      List.partition (fun e -> e.version > v) t.entries
    in
    t.entries <- keep;
    t.horizon <- v;
    List.length dropped
  end

let sessions (t : ('op, 's) t) : string list =
  List.sort_uniq String.compare
    (List.rev_map (fun e -> e.session) t.entries)
