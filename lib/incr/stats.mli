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

val counts : string -> int * int
(** [(hits, misses)] of the named counter ([0, 0] if never touched). *)

val reset : unit -> unit
(** Zero every counter (tests and bench isolation). *)
