(** Deterministic, seed-keyed fault injection (see
    [docs/ROBUSTNESS.md]).

    A chaos instance raises injected {!Error.Fault}s at registered fault
    sites, with a schedule fully determined by (seed, site name, visit
    count) — the same seed replays the same faults on the same workload.
    Installation is scoped with {!with_chaos}; with no instance
    installed, every {!point} is a one-ref-read no-op. *)

type t

val make : ?rate:float -> seed:int -> unit -> t
(** A chaos instance firing at each fault site with probability [rate]
    (default [0.01]), decided deterministically from [seed].
    @raise Invalid_argument if [rate] is outside [[0, 1]]. *)

val with_chaos : t -> (unit -> 'a) -> 'a
(** Run the thunk with the instance installed; restores the previous
    instance (if any) afterwards, exceptions included. *)

val protected : (unit -> 'a) -> 'a
(** Run the thunk with injection suspended — the fallback oracles of the
    delta fast paths run under [protected] so recovery cannot itself be
    faulted.  Nests. *)

val active : unit -> t option
(** The installed instance, unless injection is suspended. *)

val at_sites : string list -> (unit -> 'a) -> 'a
(** Run the thunk with injection restricted to the listed sites, matched
    by exact name or prefix (["net."] enables every network site).
    Filtered-out sites neither fire nor advance their visit counters, so
    the schedule at the enabled sites is the same as it would be in an
    unfiltered run.  Scoped and restored like {!with_chaos}; composes
    with it in either order. *)

val point : string -> unit
(** A fault site.  No-op without an active instance; otherwise counts
    the visit and raises an injected {!Error.Fault} ({!Error.Bx_error})
    when the deterministic schedule says so. *)

val note_fallback : string -> unit
(** Record a delta→full fallback (called by [Rlens.put_delta] /
    [Mbx.fwd_delta] when degrading). *)

val injected : t -> int
(** Faults this instance has raised. *)

val fallbacks : t -> int
(** Fallbacks recorded while this instance was installed. *)

val fallbacks_total : unit -> int
(** Process-wide fallback count (degradations also happen without chaos
    installed, e.g. on a failed snapshot write). *)

val reset : t -> unit
(** Clear counters and the per-site visit state (replays the schedule
    from the start). *)

val wrap_lens : ('s, 'v) Esm_lens.Lens.t -> ('s, 'v) Esm_lens.Lens.t
(** Fault sites around [get]/[put], keyed by the lens name. *)

val wrap_bx : ('a, 'b, 's) Concrete.set_bx -> ('a, 'b, 's) Concrete.set_bx
(** Fault sites around all four operations, keyed by the bx name. *)
