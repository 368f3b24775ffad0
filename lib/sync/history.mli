(** Client-visible histories of a sync workload, and the one offline
    oracle over them (see [docs/SYNC.md], "Soak").

    A driver records what its clients saw — each submit, each submit's
    outcome, each pull and view result — and {!check} then judges the
    recorded history against the stores' final heads.  The checks are
    the system's client-facing claims, stated over observations rather
    than over per-driver counters (the approach of Elle, Kingsbury &
    Alvaro, VLDB 2020):

    - {b head = acked}: every store's head equals the commits acked at
      it — one more is a double-applied retry, one fewer a lost ack;
      no two submits are acked at the same version of one store;
    - {b exactly-once outcomes}: an in-doubt submit must be resolved,
      and a settled one is never settled again;
    - {b monotonic reads}: a session's reads of a store never go back
      in version;
    - {b convergence}: every session's final pull lands at its store's
      head. *)

type outcome =
  | Acked of int  (** committed at this version of the store *)
  | Rejected of string  (** definitely refused: nothing was applied *)
  | In_doubt
      (** failed transiently: applied once or not at all, unknown
          which — a later outcome for the same submit resolves it *)

type event =
  | Submit of { session : string; id : int; op : string }
      (** [id] is the envelope id: unique per session *)
  | Outcome of { session : string; id : int; store : int; outcome : outcome }
      (** one per store the submit touched; an [In_doubt] outcome may
          be followed by its resolution *)
  | Read of { session : string; store : int; kind : [ `Pull | `View ]; version : int }
  | Final of { session : string; store : int; version : (int, string) result }
      (** the session's last pull, after the workload *)

type t

val create : unit -> t
val record : t -> event -> unit

val events : t -> event list
(** Oldest first. *)

val check : ?shared:bool -> heads:int array -> event list -> string list
(** The violations of a history given each store's final head (store
    [j]'s at [heads.(j)]), sorted; [[]] when every claim holds.  With
    [shared] other clients, unrecorded, wrote to the same stores: a
    head may then exceed the acked count and a final pull the given
    head, but neither may fall short. *)

val summary : event list -> string
(** ["acked=A rejected=R in-doubt=D unresolved=U"], counted per store
    outcome. *)
