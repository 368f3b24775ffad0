(** The replicated store: any packed bx served behind a versioned
    append-only {!Oplog}, with transactional commits, optimistic version
    checks, periodic snapshots and crash recovery by replay.

    The paper's set-bx operations {e are} the session protocol — a
    client holding one view issues sets against shared hidden state —
    and the store is the piece that makes many such clients safe: every
    commit runs through {!Esm_core.Atomic.run}, so a failing update
    rolls back to the snapshot and appends {e nothing}; a stale
    [?expect] version is refused with a typed
    {!Esm_core.Error.Conflict}; and because states are immutable values,
    snapshots are free and recovery is a deterministic fold of the
    oplog suffix.

    Batched deltas close the ROADMAP "batch/transactional delta
    application" item: a burst of {!Esm_relational.Row_delta} edits (or
    {!Esm_modelbx.Diff} edits) coalesces into {e one} materialised view,
    one set through the bx — one index rebuild — and one oplog record,
    instead of one commit per edit.

    Chaos sites: ["sync.oplog.append"] (a commit aborts whole, keeping
    state and oplog agreeing), ["sync.store.replay"] (recovery absorbs
    the fault and replays anyway, retrying faulted entries under
    {!Esm_core.Chaos.protected} — each entry committed once already, so
    replay must not invent new failures), and ["sync.durable.write"]
    inside {!Durable_log} (an entry-write fault aborts the commit whole;
    a snapshot-write fault is absorbed — the log holds the full
    history).

    Persistence ([?persist] / {!reopen}) follows a write-ahead
    discipline: the entry record reaches the on-disk log {e before} the
    in-memory state and oplog advance, so after a process death the disk
    holds a (possibly longer, never divergent) prefix of the committed
    history and {!reopen} reconstructs a store at some committed
    version — never a partial commit. *)

open Esm_core
module Stats = Esm_incr.Stats

type ('a, 'b, 'da, 'db) op =
  | Set_a of 'a
  | Set_b of 'b
  | Batch_a of 'da list
      (** coalesce the burst into one A view, one set, one record *)
  | Batch_b of 'db list
  | Exec of ('a, 'b) Command.t

let op_kind = function
  | Set_a _ -> "set_a"
  | Set_b _ -> "set_b"
  | Batch_a _ -> "batch_a"
  | Batch_b _ -> "batch_b"
  | Exec _ -> "exec"

(** How operations and A views serialise for the durable log: payloads
    are opaque strings at the {!Durable_log} framing layer, so a store
    over any substrate persists once it has a codec
    ({!Wire.durable_op_codec} covers relational stores).  Snapshots
    store the {e A view}; reopening reconstructs the snapshot state as
    [set_a a init], which is exact whenever the A view determines the
    state — in particular for every lens-packed store, where the state
    {e is} the A side. *)
type ('a, 'b, 'da, 'db) op_codec = {
  encode_op : ('a, 'b, 'da, 'db) op -> string;
  decode_op : string -> ('a, 'b, 'da, 'db) op;
  encode_a : 'a -> string;
  decode_a : string -> 'a;
}

type ('a, 'b, 'da, 'db) persist = {
  dir : string;
  fsync : Durable_log.fsync_policy;
  codec : ('a, 'b, 'da, 'db) op_codec;
}

let persist ?(fsync = Durable_log.Fsync_every 8) ~(dir : string)
    (codec : ('a, 'b, 'da, 'db) op_codec) : ('a, 'b, 'da, 'db) persist =
  { dir; fsync; codec }

type ('a, 'b, 'da, 'db) t =
  | Store : {
      name : string;
      bx : ('a, 'b, 's) Concrete.set_bx;
      eq_state : 's -> 's -> bool;
      pedigree : Pedigree.t;
      apply_da : ('a -> 'da list -> 'a) option;
          (** materialise a burst of A-side deltas against the A view *)
      apply_db : ('b -> 'db list -> 'b) option;
      log : (('a, 'b, 'da, 'db) op, 's) Oplog.t;
      durable : (('a, 'b, 'da, 'db) op_codec * Durable_log.writer) option;
      mutable state : 's;
      mutable version : int;  (** the version [state] is at *)
      mutable view_cache_a : (int * 'a) option;
          (** last materialised A view, keyed by the version it was
              read at — sound because the state at a committed version
              is deterministic (replay reproduces it exactly) *)
      mutable view_cache_b : (int * 'b) option;
    }
      -> ('a, 'b, 'da, 'db) t

let of_packed ?(name = "store") ?snapshot_every ?apply_da ?apply_db ?persist
    (Concrete.Packed repr : ('a, 'b) Concrete.packed) :
    ('a, 'b, 'da, 'db) t =
  let durable =
    match persist with
    | None -> None
    | Some { dir; fsync; codec } ->
        Some (codec, Durable_log.create ~dir ~fsync ())
  in
  Store
    {
      name;
      bx = repr.Concrete.bx;
      eq_state = repr.Concrete.eq_state;
      pedigree = Pedigree.Replicated repr.Concrete.pedigree;
      apply_da;
      apply_db;
      log = Oplog.create ?snapshot_every ~init:repr.Concrete.init ();
      durable;
      state = repr.Concrete.init;
      version = 0;
      view_cache_a = None;
      view_cache_b = None;
    }

let name (Store s) = s.name
let persisted (Store s) = Option.is_some s.durable

let flush (Store s) =
  match s.durable with None -> () | Some (_, w) -> Durable_log.sync w

let close (Store s) =
  match s.durable with None -> () | Some (_, w) -> Durable_log.close w

let pedigree (Store s) = s.pedigree
let version (Store s) = s.version
let head_version (Store s) = Oplog.head_version s.log
let view_a_uncached (Store s) = s.bx.Concrete.get_a s.state
let view_b_uncached (Store s) = s.bx.Concrete.get_b s.state

(* The memoized view-read path: a poll of an unchanged store returns
   the cached materialization in O(1).  The hit path trusts cached
   bookkeeping, so it passes through the ["incr.hash"] chaos gate — an
   injected fault bypasses the cache and rematerializes under
   [protected] (a corrupted cache costs work, never a stale view). *)
let view_cache_site = "incr.hash"

let cached_view (type v) ~(version : int) ~(read : unit -> (int * v) option)
    ~(write : (int * v) option -> unit) ~(materialise : unit -> v) : v =
  let recompute () =
    let v = materialise () in
    write (Some (version, v));
    v
  in
  match read () with
  | Some (at, v) when at = version -> (
      match Chaos.point view_cache_site with
      | () ->
          Stats.hit "store.view";
          v
      | exception exn when Error.degradable_exn exn ->
          Chaos.note_fallback view_cache_site;
          Stats.miss "store.view";
          Chaos.protected recompute)
  | _ ->
      Stats.miss "store.view";
      recompute ()

let view_a (Store s) =
  cached_view ~version:s.version
    ~read:(fun () -> s.view_cache_a)
    ~write:(fun c -> s.view_cache_a <- c)
    ~materialise:(fun () -> s.bx.Concrete.get_a s.state)

let view_b (Store s) =
  cached_view ~version:s.version
    ~read:(fun () -> s.view_cache_b)
    ~write:(fun c -> s.view_cache_b <- c)
    ~materialise:(fun () -> s.bx.Concrete.get_b s.state)
let entries_since (Store s) v = Oplog.entries_since s.log v

let read_since (Store s) v =
  match Oplog.read_since s.log v with
  | `Entries es -> `Entries es
  | `Resync (hv, st) -> `Resync (hv, s.bx.Concrete.get_a st)

let horizon (Store s) = Oplog.horizon s.log
let log_sessions (Store s) = Oplog.sessions s.log

(* The single-op state transition; raises bx errors, which the commit
   and replay paths turn into rollback / protected retry. *)
let apply_op :
    type s.
    bx:('a, 'b, s) Concrete.set_bx ->
    apply_da:('a -> 'da list -> 'a) option ->
    apply_db:('b -> 'db list -> 'b) option ->
    ('a, 'b, 'da, 'db) op ->
    s ->
    s =
 fun ~bx ~apply_da ~apply_db op st ->
  match op with
  | Set_a a -> bx.Concrete.set_a a st
  | Set_b b -> bx.Concrete.set_b b st
  | Batch_a ds -> (
      match apply_da with
      | None ->
          Error.raise_error Error.Other ~op:"commit"
            "store has no A-side delta applier (pass ~apply_da)"
      | Some f -> bx.Concrete.set_a (f (bx.Concrete.get_a st) ds) st)
  | Batch_b ds -> (
      match apply_db with
      | None ->
          Error.raise_error Error.Other ~op:"commit"
            "store has no B-side delta applier (pass ~apply_db)"
      | Some f -> bx.Concrete.set_b (f (bx.Concrete.get_b st) ds) st)
  | Exec c -> Command.exec bx c st

let commit ?expect ~(session : string) (Store s : ('a, 'b, 'da, 'db) t)
    (op : ('a, 'b, 'da, 'db) op) : (int, Error.t) result =
  if s.version <> Oplog.head_version s.log then
    Error
      (Error.v Error.Other ~op:"commit"
         (Printf.sprintf
            "store %s is at version %d with oplog head %d: crashed state, \
             recover before committing"
            s.name s.version (Oplog.head_version s.log)))
  else
    match expect with
    | Some v when v <> s.version ->
        (* the oplog is the conflict evidence: someone committed the
           versions between the session's base and the head *)
        let winners =
          Oplog.entries_since s.log v
          |> List.map (fun (e : _ Oplog.entry) -> e.Oplog.session)
          |> List.sort_uniq String.compare
        in
        Error
          (Error.v Error.Conflict ~op:"commit"
             (Printf.sprintf
                "session %s expected version %d but store %s is at %d \
                 (concurrent commits by: %s)"
                session v s.name s.version
                (String.concat ", " winners)))
    | _ -> (
        (* transactional apply: roll back to the snapshot (the input
           state — states are immutable) on any bx failure, including
           an injected fault at the append site; nothing is appended and
           the store is observably untouched *)
        let result, state' =
          Atomic.run
            (fun st ->
              let st =
                apply_op ~bx:s.bx ~apply_da:s.apply_da ~apply_db:s.apply_db
                  op st
              in
              Chaos.point "sync.oplog.append";
              ((), st))
            s.state
        in
        match result with
        | Error e -> Error e
        | Ok () -> (
            (* write-ahead: the durable entry record must reach the log
               before the in-memory commit becomes visible.  An append
               failure (an injected fault at [sync.durable.write], a
               non-serialisable op) aborts the commit whole — the file
               was restored to its pre-append length, nothing here
               mutated. *)
            let version = s.version + 1 in
            let persisted =
              match s.durable with
              | None -> Ok ()
              | Some (codec, w) -> (
                  match codec.encode_op op with
                  | exception exn when Error.is_bx_exn exn -> (
                      match Error.of_exn exn with
                      | Some e -> Error e
                      | None -> raise exn)
                  | payload ->
                      Durable_log.append_entry w ~version ~session ~payload)
            in
            match persisted with
            | Error e -> Error e
            | Ok () ->
                s.state <- state';
                let v' = Oplog.append s.log ~session op in
                assert (v' = version);
                s.version <- version;
                if Oplog.snapshot_due s.log then begin
                  Oplog.record_snapshot s.log version state';
                  (* a snapshot-write failure only lengthens future
                     replays — the log holds the full history, so it is
                     absorbed, not surfaced *)
                  match s.durable with
                  | None -> ()
                  | Some (codec, w) -> (
                      match
                        let payload =
                          codec.encode_a (s.bx.Concrete.get_a state')
                        in
                        Durable_log.write_snapshot w ~version ~payload
                      with
                      | Ok () -> ()
                      | Error _ -> Chaos.note_fallback "sync.durable.write"
                      | exception exn when Error.is_bx_exn exn ->
                          Chaos.note_fallback "sync.durable.write")
                end;
                Ok version))

(** Simulate a crash: the volatile state is lost; what survives is the
    oplog and its snapshots.  The store wakes up at the most recent
    snapshot with the suffix still un-replayed (commits are refused
    until {!recover}). *)
let crash (Store s : ('a, 'b, 'da, 'db) t) : unit =
  let version, snap = Oplog.latest_snapshot s.log in
  s.state <- snap;
  s.version <- version;
  (* volatile caches die with the process they model *)
  s.view_cache_a <- None;
  s.view_cache_b <- None

(* One replay step: [step] succeeded once already (as a commit, or as
   the state a snapshot records), so replay is deterministic — a
   degradable failure (an injected fault) is noted at
   ["sync.store.replay"] and the step retried under [protected];
   genuine programming errors still propagate. *)
let replay_step (step : unit -> 's) : 's =
  try step ()
  with exn when Error.degradable_exn exn ->
    Chaos.note_fallback "sync.store.replay";
    Chaos.protected step

(** Recovery by replay: fold the oplog suffix after the snapshot back
    into the state, one {!replay_step} per entry. *)
let recover (Store s : ('a, 'b, 'da, 'db) t) : unit =
  (try Chaos.point "sync.store.replay"
   with exn when Error.degradable_exn exn ->
     Chaos.note_fallback "sync.store.replay");
  List.iter
    (fun (e : _ Oplog.entry) ->
      s.state <-
        replay_step (fun () ->
            apply_op ~bx:s.bx ~apply_da:s.apply_da ~apply_db:s.apply_db
              e.Oplog.op s.state);
      s.version <- e.Oplog.version)
    (Oplog.entries_since s.log s.version)

(* Reconstruct a snapshot state from its recorded A view: [set_a a
   init], as a replay step.  Exact whenever the A view determines the
   state (every lens-packed store, where the state is the A side). *)
let s_of_snapshot :
    type s. bx:('a, 'b, s) Concrete.set_bx -> init:s -> 'a -> s =
 fun ~bx ~init a -> replay_step (fun () -> bx.Concrete.set_a a init)

(* ------------------------------------------------------------------ *)
(* Snapshot-anchored compaction                                        *)
(* ------------------------------------------------------------------ *)

(** Drop the oplog prefix at or below the latest snapshot.  On a
    persisted store the durable side moves first (write-ahead for
    truncation, mirroring the commit discipline): the snapshot at the
    anchor version is made durable, then [log.bin] is rewritten with a
    base record and the retained suffix — only after both succeed does
    the in-memory oplog drop its prefix.  A failure at any stage
    (injected chaos, non-serialisable [Exec] in the retained suffix)
    returns the typed error with nothing compacted. *)
let compact (Store s : ('a, 'b, 'da, 'db) t) : (int, Error.t) result =
  let v, snap = Oplog.latest_snapshot s.log in
  if v <= Oplog.horizon s.log then Ok 0
  else
    let durable_done =
      match s.durable with
      | None -> Ok ()
      | Some (codec, w) -> (
          match
            let payload = codec.encode_a (s.bx.Concrete.get_a snap) in
            Durable_log.write_snapshot w ~version:v ~payload
          with
          | Error e -> Error e
          | exception exn when Error.is_bx_exn exn -> (
              match Error.of_exn exn with
              | Some e -> Error e
              | None -> raise exn)
          | Ok () -> (
              match
                Oplog.entries_since s.log v
                |> List.map (fun (e : _ Oplog.entry) ->
                       ( e.Oplog.version,
                         e.Oplog.session,
                         codec.encode_op e.Oplog.op ))
              with
              | retained -> Durable_log.compact w ~horizon:v ~entries:retained
              | exception exn when Error.is_bx_exn exn -> (
                  match Error.of_exn exn with
                  | Some e -> Error e
                  | None -> raise exn)))
    in
    match durable_done with
    | Error e -> Error e
    | Ok () -> Ok (Oplog.compact s.log)

(* ------------------------------------------------------------------ *)
(* Followers: detached replicas fed by gossip                           *)
(* ------------------------------------------------------------------ *)

type ('a, 'b, 'da, 'db) follower =
  | Follower : {
      bx : ('a, 'b, 's) Concrete.set_bx;
      apply_da : ('a -> 'da list -> 'a) option;
      apply_db : ('b -> 'db list -> 'b) option;
      mutable state : 's;
      mutable version : int;
    }
      -> ('a, 'b, 'da, 'db) follower

let follower (Store s : ('a, 'b, 'da, 'db) t) : ('a, 'b, 'da, 'db) follower =
  Follower
    {
      bx = s.bx;
      apply_da = s.apply_da;
      apply_db = s.apply_db;
      state = s.state;
      version = s.version;
    }

let follower_version (Follower f) = f.version
let follower_view_a (Follower f) = f.bx.Concrete.get_a f.state
let follower_view_b (Follower f) = f.bx.Concrete.get_b f.state

let follower_apply (Follower f : ('a, 'b, 'da, 'db) follower)
    (e : ('a, 'b, 'da, 'db) op Oplog.entry) : unit =
  if e.Oplog.version <> f.version + 1 then
    Error.raise_error Error.Other ~op:"follower_apply"
      "entry version %d does not follow replica version %d" e.Oplog.version
      f.version
  else begin
    (* like {!recover}: every gossiped entry committed once at its home
       shard *)
    f.state <-
      replay_step (fun () ->
          apply_op ~bx:f.bx ~apply_da:f.apply_da ~apply_db:f.apply_db
            e.Oplog.op f.state);
    f.version <- e.Oplog.version
  end

let follower_resync (Follower f : ('a, 'b, 'da, 'db) follower)
    ~(version : int) (a : 'a) : unit =
  if version > f.version then begin
    f.state <- s_of_snapshot ~bx:f.bx ~init:f.state a;
    f.version <- version
  end

(** Reopen a persisted store from [dir]: the latest valid snapshot plus
    the validated log suffix, with a torn tail truncated before the
    writer resumes appending.  The packed bx supplies what the disk does
    not: the code, the initial state, the equality — the disk supplies
    the history. *)
let reopen ?(name = "store") ?snapshot_every ?apply_da ?apply_db
    ?(fsync = Durable_log.Fsync_every 8)
    ~(codec : ('a, 'b, 'da, 'db) op_codec) ~(dir : string)
    (Concrete.Packed repr : ('a, 'b) Concrete.packed) :
    (('a, 'b, 'da, 'db) t, Error.t) result =
  let detail exn =
    match Error.of_exn exn with
    | Some e -> Error.message e
    | None -> Printexc.to_string exn
  in
  (* the snapshot state a recorded A view stands for *)
  let seed_of payload =
    match
      s_of_snapshot ~bx:repr.Concrete.bx ~init:repr.Concrete.init
        (codec.decode_a payload)
    with
    | st -> Ok st
    | exception exn when Error.is_bx_exn exn -> Error (detail exn)
  in
  match Durable_log.load ~dir with
  | Error e -> Error e
  | Ok { Durable_log.entries; snapshot; valid_bytes; horizon; _ } -> (
      (* an undecodable op behind a valid checksum means the payload
         codec changed under the format version byte — corruption, not
         a torn tail *)
      match
        List.map
          (fun (re : Durable_log.raw_entry) ->
            (re.Durable_log.version, re.Durable_log.session,
             codec.decode_op re.Durable_log.payload))
          entries
      with
      | exception exn when Error.is_bx_exn exn ->
          Error
            (Error.v Error.Corrupt ~op:"reopen"
               ("undecodable entry payload: " ^ detail exn))
      | decoded -> (
          (* where the oplog restarts.  A full-history log (horizon 0)
             replays from the snapshot state when one is usable
             (present, decodable, not ahead of a truncated log) and the
             initial state otherwise — a missing or broken snapshot only
             lengthens replay.  A compacted log (horizon > 0) has {e no}
             path back to the initial state: a usable snapshot at a
             version >= horizon is mandatory, and its absence is
             [Corrupt], not a silent full replay that would resurrect a
             pre-compaction state. *)
          let seeded =
            if horizon > 0 then
              match snapshot with
              | None ->
                  Error
                    (Error.v Error.Corrupt ~op:"reopen"
                       (Printf.sprintf
                          "log compacted below version %d but snapshot.bin \
                           is missing or invalid: below retained horizon, \
                           cannot recover"
                          horizon))
              | Some (sv, _) when sv < horizon ->
                  Error
                    (Error.v Error.Corrupt ~op:"reopen"
                       (Printf.sprintf
                          "log compacted below version %d but the snapshot \
                           is at older version %d: below retained horizon, \
                           cannot recover"
                          horizon sv))
              | Some (sv, payload) -> (
                  match seed_of payload with
                  | Ok st -> Ok (sv, sv, st)
                  | Error detail ->
                      Error
                        (Error.v Error.Corrupt ~op:"reopen"
                           (Printf.sprintf
                              "log compacted below version %d and the \
                               snapshot payload is undecodable (%s): below \
                               retained horizon, cannot recover"
                              horizon detail)))
            else
              let head =
                match List.rev decoded with (v, _, _) :: _ -> v | [] -> 0
              in
              match snapshot with
              | Some (v, payload) when v > 0 && v <= head -> (
                  match seed_of payload with
                  | Ok st -> Ok (0, v, st)
                  | Error _ ->
                      Chaos.note_fallback "sync.store.replay";
                      Ok (0, 0, repr.Concrete.init))
              | _ -> Ok (0, 0, repr.Concrete.init)
          in
          match seeded with
          | Error e -> Error e
          | Ok (oplog_horizon, start, state0) -> (
          let log =
            if oplog_horizon > 0 then
              (* the seed snapshot [(start, state0)] doubles as the
                 in-memory horizon: entries at or below it are already
                 reflected in the snapshot state *)
              Oplog.create ?snapshot_every ~horizon:oplog_horizon
                ~init:state0 ()
            else Oplog.create ?snapshot_every ~init:repr.Concrete.init ()
          in
          List.iter
            (fun (v, session, op) ->
              if v > oplog_horizon then begin
                let v' = Oplog.append log ~session op in
                if v' <> v then
                  (* unreachable: [Durable_log.load] validated density *)
                  Error.raise_error Error.Corrupt ~op:"reopen"
                    "log entries are not dense at version %d" v
              end)
            decoded;
          if oplog_horizon = 0 && start > 0 then
            Oplog.record_snapshot log start state0;
          let writer = Durable_log.open_append ~dir ~fsync ~valid:valid_bytes in
          let store =
            Store
              {
                name;
                bx = repr.Concrete.bx;
                eq_state = repr.Concrete.eq_state;
                pedigree = Pedigree.Replicated repr.Concrete.pedigree;
                apply_da;
                apply_db;
                log;
                durable = Some (codec, writer);
                state = state0;
                version = start;
                view_cache_a = None;
                view_cache_b = None;
              }
          in
          match recover store with
          | () -> Ok store
          | exception exn when Error.is_bx_exn exn ->
              Durable_log.close writer;
              Error
                (Error.v Error.Corrupt ~op:"reopen"
                   ("replay failed: " ^ detail exn)))))
