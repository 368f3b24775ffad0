(** A replicated store: a packed bx served behind a versioned
    append-only {!Oplog} with transactional commits, optimistic version
    checks, periodic snapshots and crash recovery by replay (see
    [docs/SYNC.md]).

    Chaos sites: ["sync.oplog.append"] (commit aborts whole),
    ["sync.store.replay"] (recovery absorbs the fault),
    ["sync.durable.write"] (an entry-write fault aborts the commit; a
    snapshot-write fault is absorbed). *)

open Esm_core

type ('a, 'b, 'da, 'db) op =
  | Set_a of 'a  (** overwrite the A view through the bx *)
  | Set_b of 'b
  | Batch_a of 'da list
      (** a coalesced burst of A-side deltas: one materialised view,
          one set through the bx, one oplog record *)
  | Batch_b of 'db list
  | Exec of ('a, 'b) Command.t

val op_kind : ('a, 'b, 'da, 'db) op -> string

type ('a, 'b, 'da, 'db) op_codec = {
  encode_op : ('a, 'b, 'da, 'db) op -> string;
  decode_op : string -> ('a, 'b, 'da, 'db) op;
  encode_a : 'a -> string;
  decode_a : string -> 'a;
}
(** How operations and A views serialise for the durable log
    ({!Durable_log} frames the payloads; {!Wire.durable_op_codec} builds
    the codec for relational stores).  Snapshots record the A view and
    {!reopen} reconstructs the state as [set_a a init] — exact whenever
    the A view determines the state, in particular for every lens-packed
    store.  [encode_op] may raise a typed error for non-serialisable
    operations ([Exec] programs contain functions); such a commit then
    fails whole on a persisted store. *)

type ('a, 'b, 'da, 'db) persist

val persist :
  ?fsync:Durable_log.fsync_policy ->
  dir:string ->
  ('a, 'b, 'da, 'db) op_codec ->
  ('a, 'b, 'da, 'db) persist
(** Persistence configuration for {!of_packed}: append each committed
    entry (and periodic snapshots, at the store's [snapshot_every]
    cadence) to an on-disk log in [dir] under the given fsync policy
    (default [Fsync_every 8] — see [docs/SYNC.md] for the trade-off). *)

type ('a, 'b, 'da, 'db) t

val of_packed :
  ?name:string ->
  ?snapshot_every:int ->
  ?apply_da:('a -> 'da list -> 'a) ->
  ?apply_db:('b -> 'db list -> 'b) ->
  ?persist:('a, 'b, 'da, 'db) persist ->
  ('a, 'b) Concrete.packed ->
  ('a, 'b, 'da, 'db) t
(** Serve a packed bx as a replicated store.  The pedigree is recorded
    as [Pedigree.Replicated] of the base pedigree.  [apply_da] /
    [apply_db] materialise delta bursts for [Batch_a] / [Batch_b]
    (omitting them makes batch commits fail with a typed error).
    [persist] starts a {e fresh} durable log in its directory (any
    existing log there is truncated — resuming one is {!reopen}'s job)
    and every commit then follows the write-ahead discipline: entry
    record on disk first, in-memory state second. *)

val reopen :
  ?name:string ->
  ?snapshot_every:int ->
  ?apply_da:('a -> 'da list -> 'a) ->
  ?apply_db:('b -> 'db list -> 'b) ->
  ?fsync:Durable_log.fsync_policy ->
  codec:('a, 'b, 'da, 'db) op_codec ->
  dir:string ->
  ('a, 'b) Concrete.packed ->
  (('a, 'b, 'da, 'db) t, Error.t) result
(** Reconstruct a persisted store from [dir]: the latest valid snapshot
    plus the validated log suffix.  Tolerates exactly the artifacts a
    real crash produces — a torn final record (truncated before the
    writer resumes), a duplicated tail after a re-append (deduplicated),
    a missing or invalid snapshot file (full replay from the packed
    initial state) — and classifies unrecoverable damage as a typed
    {!Esm_core.Error.Corrupt}: bad magic or format version, a mid-file
    checksum mismatch, a version gap, an undecodable entry payload.  The
    reconstructed store is always at {e some} committed version with
    {!version} = {!head_version} — never a partial commit.

    A compacted directory (the log opens with a base record at horizon
    [h]) loses the full-replay fallback: recovery {e requires} a valid
    snapshot at a version [>= h], and its absence — or an undecodable
    snapshot payload — is [Corrupt] ("below retained horizon"), never a
    silent resurrection of a pre-compaction state. *)

val name : ('a, 'b, 'da, 'db) t -> string

val persisted : ('a, 'b, 'da, 'db) t -> bool
(** Is this store backed by a durable log? *)

val flush : ('a, 'b, 'da, 'db) t -> unit
(** Force an fsync of the durable log now, whatever the policy (no-op on
    an in-memory store). *)

val close : ('a, 'b, 'da, 'db) t -> unit
(** Fsync and close the durable log's file descriptor (no-op on an
    in-memory store).  Further commits on a persisted store are
    undefined after [close]; reopen with {!reopen}. *)

val pedigree : ('a, 'b, 'da, 'db) t -> Pedigree.t

val version : ('a, 'b, 'da, 'db) t -> int
(** The version the in-memory state is at.  Behind {!head_version}
    exactly when the store has crashed and not yet recovered. *)

val head_version : ('a, 'b, 'da, 'db) t -> int

val view_a : ('a, 'b, 'da, 'db) t -> 'a
(** The A view, through a version-keyed single-entry cache: reading an
    unchanged store returns the last materialization in O(1) — the
    common "nothing changed" poll.  Sound because the state at a
    committed version is deterministic (recovery replays to it
    exactly); the cache is dropped on {!crash} and read through the
    ["incr.hash"] chaos gate (an injected fault rematerializes in full,
    never serves stale).  Reports to the ["store.view"]
    {!Esm_incr.Stats} counter. *)

val view_b : ('a, 'b, 'da, 'db) t -> 'b

val view_a_uncached : ('a, 'b, 'da, 'db) t -> 'a
(** Materialise the A view from the state, bypassing the cache — the
    reference for cache-transparency oracles and the bench's
    unmemoized baseline. *)

val view_b_uncached : ('a, 'b, 'da, 'db) t -> 'b

val entries_since :
  ('a, 'b, 'da, 'db) t -> int -> ('a, 'b, 'da, 'db) op Oplog.entry list
(** The oplog suffix strictly above a version, oldest first — what a
    session pulls to rebase.  Raises a typed [Error.Corrupt] when the
    version has fallen below a positive compaction horizon (see
    {!Oplog.entries_since}); use {!read_since} when resync is an
    option. *)

val read_since :
  ('a, 'b, 'da, 'db) t ->
  int ->
  [ `Entries of ('a, 'b, 'da, 'db) op Oplog.entry list | `Resync of int * 'a ]
(** The resync-aware read, total for every integer: the replay suffix
    when the version is still servable, or [`Resync (version, a_view)]
    — the latest snapshot's version and A view, from which a replica
    restarts ({!follower_resync}) — when it has fallen below the
    compaction horizon. *)

val horizon : ('a, 'b, 'da, 'db) t -> int
(** The oplog's compaction horizon; 0 until the first {!compact}. *)

val compact : ('a, 'b, 'da, 'db) t -> (int, Error.t) result
(** Snapshot-anchored compaction: drop the oplog prefix at or below the
    latest snapshot, returning how many entries were dropped (0 when
    the snapshot is already the horizon).  On a persisted store the
    durable side moves first — the anchor snapshot is written to
    [snapshot.bin], then [log.bin] is rewritten with a base record and
    the retained suffix ({!Durable_log.compact}, tmp + fsync + rename)
    — and only then does the in-memory oplog drop its prefix, so a
    failure at any stage (an injected fault at ["sync.durable.write"]
    or ["sync.durable.compact"], a non-serialisable [Exec] in the
    retained suffix) leaves the full history intact and returns the
    typed error.  {!head_version} and every view are unchanged:
    compaction drops representations whose effects the snapshot already
    reflects, never operations. *)

val log_sessions : ('a, 'b, 'da, 'db) t -> string list

val commit :
  ?expect:int ->
  session:string ->
  ('a, 'b, 'da, 'db) t ->
  ('a, 'b, 'da, 'db) op ->
  (int, Error.t) result
(** Commit one operation, returning the new version.  [?expect] is the
    optimistic version check: if another session committed since, the
    result is an [Error.Conflict] naming the winners and nothing is
    applied.  The application itself runs under {!Esm_core.Atomic.run} —
    a failing update rolls back and appends nothing.  A crashed store
    ({!version} behind {!head_version}) refuses commits until
    {!recover}. *)

val crash : ('a, 'b, 'da, 'db) t -> unit
(** Simulate a crash: volatile state resets to the latest snapshot; the
    oplog survives.  Commits are refused until {!recover}. *)

val recover : ('a, 'b, 'da, 'db) t -> unit
(** Recovery by replay: fold the oplog suffix after the snapshot back
    into the state.  Degradable failures (injected faults) are absorbed
    by retrying under
    {!Esm_core.Chaos.protected} — every replayed entry committed
    successfully once, so recovery reproduces the pre-crash state. *)

(** {1 Followers}

    A follower is a detached replica of a store's entangled state, fed
    entry-by-entry from a peer's oplog — the receiving half of gossip
    ({!Shard}).  It shares the bx code but owns its state and version;
    it never commits, so it needs no oplog of its own. *)

type ('a, 'b, 'da, 'db) follower

val follower : ('a, 'b, 'da, 'db) t -> ('a, 'b, 'da, 'db) follower
(** A replica forked at the store's current state and version.  Shards
    fork followers of their peers at group construction (version 0), so
    the follower's high-water mark is exactly what it has replayed. *)

val follower_version : ('a, 'b, 'da, 'db) follower -> int
val follower_view_a : ('a, 'b, 'da, 'db) follower -> 'a
val follower_view_b : ('a, 'b, 'da, 'db) follower -> 'b

val follower_apply :
  ('a, 'b, 'da, 'db) follower -> ('a, 'b, 'da, 'db) op Oplog.entry -> unit
(** Replay one gossiped entry; it must be at exactly
    [follower_version + 1] (the gossip loop feeds a dense suffix).
    Degradable faults retry under {!Esm_core.Chaos.protected}, like
    {!recover} — every gossiped entry committed once at its home
    shard. *)

val follower_resync :
  ('a, 'b, 'da, 'db) follower -> version:int -> 'a -> unit
(** Restart the replica from a snapshot's A view at [version] — the
    answer to a [`Resync] from {!read_since} when the follower's
    high-water mark fell below the peer's compaction horizon.  A
    no-op unless [version] is ahead of the replica. *)
