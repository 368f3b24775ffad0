(** The soak: one seeded workload generator driven against one of four
    targets and judged by {!History.check}, plus the crash-recovery
    checker (see [docs/SYNC.md], "Soak").  This is what
    [esm_syncd --soak], [--check-dir] and [--connect] run.

    The substrate is the employees table behind the lens
    [employees | where dept = "Engineering" | select id, name, dept],
    48 rows, snapshot every 8 commits, persisted under
    [Fsync_every 8].  The targets:

    - one store, sessions committing through {!Session.submit_rebase};
    - a {!Shard} group ([shards > 0]), commits routed by
      {!Shard.submit}, ownership [id mod shards];
    - either of those behind one {!Transport.Chaos_net} per store
      ([net]), sessions pinned round-robin, through
      {!Transport.Remote_session};
    - a [--listen] daemon over TCP ({!connect}).

    Each op, a random session reads its view, commits a burst of one
    to four adds and removes drawn from it, re-polls, and a random
    bystander polls; the target's tick then runs gossip, compaction or
    crash/recover.  Draws come from [Random.State.make [| seed |]].

    The target-only checks: crash + recover reproduces the pre-crash
    views (in-process stores, every [max 5 (ops/8)] ops); a batched
    burst equals its deltas committed one at a time (one store);
    gossip quiesces and every shard reconstructs the same whole
    (groups); a persisted [compact] run's logs retain nothing at or
    below the horizon, at most 8 entries, and reopen to the pre-close
    head.  In-process targets must also record session-poll cache
    hits. *)

(** {1 The employees store} *)

val default_store : ?dir:string -> seed:int -> size:int -> unit -> Wire.rstore
(** The employees store, persisted to [dir] when given. *)

(** {1 The soak} *)

type config = {
  seed : int;
  ops : int;
  sessions : int;
  shards : int;  (** 0: one store *)
  gossip_every : int;  (** ops between gossip rounds *)
  compact : bool;  (** compact every store every [max 10 (ops/8)] ops *)
  net : bool;  (** through a chaos network per store *)
  dir : string option;  (** persist the stores here *)
}

val default : config
(** Seed 42, 200 ops, 4 sessions, one in-process store, gossip every
    25 ops, no compaction, in memory. *)

val run : ?quiet:bool -> config -> int
(** Drive the workload and print a summary, one [VIOLATION: ...] line
    per failed check and, unless [quiet], the summary; 0 when every
    check holds, 1 otherwise. *)

val check : ?wrap:((unit -> unit) -> unit) -> config -> string -> int
(** [check cfg dir]: the recovery half of a killed [run] into [dir].
    Rerun the identical soak (inside [wrap], which installs the same
    chaos schedule) into [dir.oracle], recording every committed
    version's views per store; then reopen each store of [dir] outside
    chaos — every recovered (version, views) must appear in that
    history.  0 when every store matches, 1 otherwise. *)

val connect : seed:int -> ops:int -> sessions:int -> Unix.sockaddr -> int
(** The TCP target: bind [sessions] pid-unique sessions at a
    [--listen] daemon that other processes may share, drive the
    workload with full retry and in-doubt resolution, and check the
    history as {e shared}: every final pull must reach the head the
    first session reads at the end.  0 clean, 1 on a failed bind or a
    violation. *)
