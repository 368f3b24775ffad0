(** Process-wide hit/miss counters for the memoization layer.

    Every cache in the incremental stack reports to a named counter
    ("session.poll", "store.view", "query.plan", ...), so the soak driver and the bench harness can
    assert the caches are actually exercised rather than silently
    bypassed.  Counters are plain mutable state — cheap, not
    thread-safe, and resettable for tests. *)

val hit : string -> unit
(** Record a cache hit on the named counter. *)

val miss : string -> unit
(** Record a cache miss (a full recomputation) on the named counter. *)

val backdate : string -> unit
(** Record a backdating event: a recomputation whose result was
    structurally identical to the cached value, so downstream was not
    dirtied.  Counted separately from hits and misses (a backdate
    always rides on a miss of the same counter). *)

val counts : string -> int * int
(** [(hits, misses)] of the named counter ([0, 0] if never touched). *)

val backdates : string -> int
val all : unit -> (string * (int * int * int)) list
(** Every touched counter, sorted by name:
    [(name, (hits, misses, backdates))]. *)

val reset : unit -> unit
(** Zero every counter (tests and bench isolation). *)
