(** The employees store builder, one seeded workload generator, four
    targets it drives, and the recovery checker — the soak half of
    [esm_syncd].  Every target is judged by {!History.check}; the
    checks only one target can make stay its own hooks. *)

open Esm_core
open Esm_relational
module R = Transport.Remote_session

(* ------------------------------------------------------------------ *)
(* The employees store                                                 *)
(* ------------------------------------------------------------------ *)

let eng_lens =
  Query.lens_of_string ~schema:Workload.employees_schema ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let codec =
  let schema_b =
    Table.schema (Esm_lens.Lens.get eng_lens (Workload.employees ~seed:1 ~size:1))
  in
  Wire.durable_op_codec ~schema_a:Workload.employees_schema ~schema_b

(* Row ownership for [shards > 0]: id mod shards, on the first column
   of both the A rows and the B view rows. *)
let shard_of_row ~shards (row : Row.t) : int =
  match Row.to_list row with
  | Value.Int id :: _ -> ((id mod shards) + shards) mod shards
  | _ -> 0

(* [shards = 0] is one store in [dir]; otherwise store [i] of a group
   lives in [dir/shard-i] and starts from its partition of the seed
   table, so the union of the partitions is the one-store init. *)
let store_dir ~shards dir i =
  if shards = 0 then dir else Filename.concat dir (Printf.sprintf "shard-%d" i)

let packed ~shards ~seed ~size i =
  let init = Workload.employees ~seed ~size in
  let init =
    if shards = 0 then init
    else
      Table.of_rows Workload.employees_schema
        (List.filter (fun r -> shard_of_row ~shards r = i) (Table.rows init))
  in
  Concrete.packed_of_lens ~vwb:false ~init ~eq_state:Table.equal eng_lens

let store_name ~shards i =
  if shards = 0 then "employees" else Printf.sprintf "employees-%d" i

let make_store ?dir ~shards ~seed ~size i : Wire.rstore =
  let persist =
    Option.map
      (fun d ->
        Store.persist ~fsync:(Durable_log.Fsync_every 8)
          ~dir:(store_dir ~shards d i) codec)
      dir
  in
  Store.of_packed ~name:(store_name ~shards i) ~snapshot_every:8
    ~apply_da:Row_delta.apply_all ~apply_db:Row_delta.apply_all ?persist
    (packed ~shards ~seed ~size i)

let reopen ~shards ~seed ~size dir i =
  Store.reopen ~name:(store_name ~shards i) ~snapshot_every:8
    ~apply_da:Row_delta.apply_all ~apply_db:Row_delta.apply_all ~codec
    ~dir:(store_dir ~shards dir i)
    (packed ~shards ~seed ~size i)

let default_store ?dir ~seed ~size () = make_store ?dir ~shards:0 ~seed ~size 0

(* One store is a group of one: every op routes to it, and gossip has
   no edges. *)
let shard_group ?dir ~seed ~size ~shards () : Shard.Relational.rt =
  let route =
    if shards = 0 then fun op -> [ (0, op) ]
    else Shard.Relational.route_op ~shards ~shard_of_row:(shard_of_row ~shards)
  in
  Shard.make
    ~stores:(Array.init (max 1 shards) (make_store ?dir ~shards ~seed ~size))
    ~route ()

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)
(* ------------------------------------------------------------------ *)

type config = {
  seed : int;
  ops : int;
  sessions : int;
  shards : int;
  gossip_every : int;
  compact : bool;
  net : bool;
  dir : string option;
}

let default =
  {
    seed = 42;
    ops = 200;
    sessions = 4;
    shards = 0;
    gossip_every = 25;
    compact = false;
    net = false;
    dir = None;
  }

let size = 48

(* What the generator drives.  Sessions are (name, side, home store);
   [submit] returns the envelope id and one outcome per store touched;
   [settle] ends the workload (the network heals) and returns every
   store's head; [finish] runs the target's own final checks and
   releases it. *)
type target = {
  label : string;
  shared : bool;  (** other, unrecorded clients write to the stores *)
  sessions : (string * Session.side * int) array;
  fresh_id : int -> int;
  view : int -> (int * Row.t list, Error.t) result;
  submit : int -> Row_delta.t list -> int * (int * History.outcome) list;
  resolve : int -> History.outcome;
  pull : int -> (int, Error.t) result;
  tick : int -> unit;
  settle : unit -> int array;
  finish : unit -> unit;
  report : unit -> string list;
}

type log = { mutable violations : string list }

let fail log fmt =
  Printf.ksprintf (fun s -> log.violations <- s :: log.violations) fmt

let side_of k = if k mod 2 = 0 then `A else `B

(* Fresh ids stay in the home store's residue class, so a session's
   adds land at its home shard; removals may touch any shard. *)
let fresh_ids ~shards =
  let c = ref 0 in
  fun home ->
    incr c;
    ((100_000 + !c) * max 1 shards) + home

let gossip_line (g : Shard.Relational.rt) =
  let s = Shard.stats g in
  Printf.sprintf "gossip: rounds=%d shipped=%d resyncs=%d skipped-edges=%d"
    s.Shard.rounds s.Shard.shipped s.Shard.resyncs s.Shard.skipped_edges

let converge log (g : Shard.Relational.rt) =
  Chaos.protected (fun () ->
      if not (Shard.gossip_until_quiescent ~max_rounds:(8 * Shard.shards g) g)
      then fail log "gossip did not quiesce on a fault-free net";
      if not (Shard.Relational.converged g) then
        fail log "shards did not converge to the same entangled whole")

(* The in-process target: sessions commit straight to the stores — one
   store through [Session.submit_rebase], a shard group through
   [Shard.submit].  Its hooks: crash/recover equality per tick,
   compaction, gossip, the batching oracle (one store), cross-shard
   convergence, and the on-disk audit of a persisted compacting run.
   [views] records every committed version's views per store — the
   recovery checker's oracle. *)
let local log cfg views : target =
  let g = shard_group ?dir:cfg.dir ~seed:cfg.seed ~size ~shards:cfg.shards () in
  let n = Shard.shards g in
  let stores = Array.init n (Shard.store g) in
  let record j =
    let st = stores.(j) in
    Hashtbl.replace views.(j) (Store.version st) (Store.view_a st, Store.view_b st)
  in
  Array.iteri (fun j _ -> record j) stores;
  let sessions =
    Array.init cfg.sessions (fun k ->
        Session.bind stores.(k mod n) ~name:(Printf.sprintf "s%d" (k + 1))
          ~side:(side_of k))
  in
  let seq = ref 0 in
  let recoveries = ref 0 and compactions = ref 0 and absorbed = ref 0 in
  let crash_every = max 5 (cfg.ops / 8) and compact_every = max 10 (cfg.ops / 8) in
  let submit k ds =
    let sess = sessions.(k) in
    let op =
      match Session.side sess with
      | `A -> Store.Batch_a ds
      | `B -> Store.Batch_b ds
    in
    let outcome (j, r) =
      match r with
      | Ok v ->
          record j;
          (j, History.Acked v)
      | Error e ->
          (* submit_rebase pulled to head first: a conflict means the
             optimistic check is broken; any other failure rolled back *)
          if cfg.shards = 0 && e.Error.kind = Error.Conflict then
            fail log "%s: conflict after rebase: %s" (Session.name sess)
              (Error.message e);
          (j, History.Rejected (Error.message e))
    in
    incr seq;
    ( !seq,
      List.map outcome
        (if cfg.shards = 0 then
           [ (0, Result.map fst (Session.submit_rebase sess op)) ]
         else Shard.submit g ~session:(Session.name sess) op) )
  in
  let view k =
    let j = k mod n in
    let t =
      match side_of k with
      | `A -> Shard.Relational.full_view_a g j
      | `B -> Shard.Relational.full_view_b g j
    in
    Ok (Store.version stores.(j), Table.rows t)
  in
  let pull k =
    ignore (Session.pull sessions.(k));
    Ok (Session.base sessions.(k))
  in
  let crash_recover i j st =
    let va = Store.view_a st and vb = Store.view_b st and v = Store.version st in
    Store.crash st;
    Store.recover st;
    incr recoveries;
    if Store.version st <> v then
      fail log "op %d store %d: recovery stopped at %d, expected %d" i j
        (Store.version st) v;
    if not (Table.equal (Store.view_a st) va) then
      fail log "op %d store %d: recovered A view differs from pre-crash" i j;
    if not (Table.equal (Store.view_b st) vb) then
      fail log "op %d store %d: recovered B view differs from pre-crash" i j
  in
  let tick i =
    if cfg.shards > 0 && i mod cfg.gossip_every = 0 then Shard.gossip_round g;
    if cfg.compact && i mod compact_every = 0 then
      Array.iteri
        (fun j -> function
          | Ok 0 -> ()
          | Ok _ ->
              incr compactions;
              if Store.horizon stores.(j) = 0 then
                fail log "op %d store %d: compaction dropped entries, horizon 0"
                  i j
          | Error _ ->
              (* an injected fault mid-compaction: the full log is still
                 intact (write-ahead ordering), try again later *)
              incr absorbed)
        (Shard.compact g);
    if i mod crash_every = 0 then Array.iteri (crash_recover i) stores
  in
  (* batching: the oplog replayed with every burst split into
     one-at-a-time delta commits lands on the same views *)
  let batching_oracle () =
    let oracle = make_store ~shards:0 ~seed:cfg.seed ~size 0 in
    let commit session op =
      match Store.commit ~session oracle op with
      | Ok _ -> ()
      | Error e -> fail log "oracle replay commit failed: %s" (Error.message e)
    in
    List.iter
      (fun (e : _ Oplog.entry) ->
        match e.Oplog.op with
        | Store.Batch_a ds ->
            List.iter (fun d -> commit e.Oplog.session (Store.Batch_a [ d ])) ds
        | Store.Batch_b ds ->
            List.iter (fun d -> commit e.Oplog.session (Store.Batch_b [ d ])) ds
        | op -> commit e.Oplog.session op)
      (Store.entries_since stores.(0) 0);
    if not (Table.equal (Store.view_a oracle) (Store.view_a stores.(0))) then
      fail log "batched A view differs from one-at-a-time oracle";
    if not (Table.equal (Store.view_b oracle) (Store.view_b stores.(0))) then
      fail log "batched B view differs from one-at-a-time oracle"
  in
  (* on disk, after a persisted compacting run: nothing retained at or
     below the horizon, the suffix bounded by the snapshot cadence, and
     a reopen that reaches the exact pre-close head *)
  let audit d j (v, va, vb) =
    (match Durable_log.load ~dir:(store_dir ~shards:cfg.shards d j) with
    | Error e -> fail log "store %d: post-soak load failed: %s" j (Error.message e)
    | Ok rc ->
        let hz = rc.Durable_log.horizon in
        if v >= 8 && hz = 0 then
          fail log "store %d: head %d but horizon still 0 after --compact" j v;
        List.iter
          (fun (e : Durable_log.raw_entry) ->
            if e.Durable_log.version <= hz then
              fail log "store %d: retained entry %d at or below horizon %d" j
                e.Durable_log.version hz)
          rc.Durable_log.entries;
        let retained = List.length rc.Durable_log.entries in
        if retained > 8 then
          fail log
            "store %d: %d entries retained — log not bounded by the snapshot \
             cadence"
            j retained;
        match rc.Durable_log.snapshot with
        | Some (sv, _) when sv >= hz -> ()
        | Some (sv, _) -> fail log "store %d: snapshot %d below horizon %d" j sv hz
        | None -> fail log "store %d: no snapshot behind horizon %d" j hz);
    match
      Chaos.protected (fun () ->
          reopen ~shards:cfg.shards ~seed:cfg.seed ~size d j)
    with
    | Error e -> fail log "store %d: reopen failed: %s" j (Error.message e)
    | Ok st ->
        if Store.version st <> v then
          fail log "store %d: reopened at %d, pre-close head was %d" j
            (Store.version st) v;
        if not (Table.equal (Store.view_a st) va) then
          fail log "store %d: reopened A view differs from pre-close" j;
        if not (Table.equal (Store.view_b st) vb) then
          fail log "store %d: reopened B view differs from pre-close" j;
        Store.close st
  in
  let finish () =
    if cfg.shards = 0 then Chaos.protected batching_oracle else converge log g;
    (* a last fault-free compaction, so the audit sees the tightest
       horizon the protocol can justify *)
    if cfg.compact then
      Chaos.protected (fun () ->
          Array.iteri
            (fun j -> function
              | Ok _ -> ()
              | Error e ->
                  fail log "store %d: fault-free compaction failed: %s" j
                    (Error.message e))
            (Shard.compact g));
    let pre =
      Array.map (fun st -> (Store.version st, Store.view_a st, Store.view_b st)) stores
    in
    Array.iter Store.close stores;
    match cfg.dir with
    | Some d when cfg.compact -> Array.iteri (audit d) pre
    | _ -> ()
  in
  {
    label = (if cfg.shards = 0 then "soak" else "shard-soak");
    shared = false;
    sessions =
      Array.mapi (fun k s -> (Session.name s, Session.side s, k mod n)) sessions;
    fresh_id = fresh_ids ~shards:cfg.shards;
    view;
    submit;
    resolve = (fun _ -> History.In_doubt);
    pull;
    tick;
    settle = (fun () -> Shard.heads g);
    finish;
    report =
      (fun () ->
        Printf.sprintf "recoveries=%d compactions=%d(+%d absorbed)" !recoveries
          !compactions !absorbed
        :: (if cfg.shards > 0 then [ gossip_line g ] else []));
  }

(* Remote sessions, each homed at one store: the shape shared by the
   chaos-net and TCP targets.  A transient submit failure is in doubt;
   [resolve] heals the network and resends the same envelope id, which
   the server's dedup window answers truthfully. *)
let remote ~label ~shared ~heal ~fresh_id ~tick ~settle ~finish ~report
    (sessions : (R.t * int) array) : target =
  let s k = fst sessions.(k) in
  {
    label;
    shared;
    sessions = Array.map (fun (r, home) -> (R.name r, R.side r, home)) sessions;
    fresh_id;
    view = (fun k -> R.view (s k));
    submit =
      (fun k ds ->
        let outcome =
          match R.submit (s k) (`Batch ds) with
          | Ok v -> History.Acked v
          | Error e when Error.is_transient e -> History.In_doubt
          | Error e -> History.Rejected (Error.message e)
        in
        (R.last_id (s k), [ (snd sessions.(k), outcome) ]));
    resolve =
      (fun k ->
        heal ();
        match Chaos.protected (fun () -> R.resolve (s k)) with
        | Ok (Wire.Resp_ok v) -> History.Acked v
        | Ok r -> History.Rejected (Wire.render_response r)
        | Error _ -> History.In_doubt);
    pull = (fun k -> Result.map fst (R.pull (s k)));
    tick;
    settle;
    finish;
    report;
  }

let bind_all n bind =
  let rec go acc k =
    if k = n then Ok (Array.of_list (List.rev acc))
    else
      match bind k with
      | Ok s -> go ((s, k) :: acc) (k + 1)
      | Error e ->
          List.iter (fun (s, _) -> R.close s) acc;
          Error (k, e)
  in
  go [] 0

(* The chaos-net target: one deterministic chaos network per store in
   front of the real server core, sessions pinned round-robin, gossip
   interleaved with the faulty traffic; its hook is cross-shard
   convergence once the nets heal. *)
let chaos_net log cfg : target =
  let g = shard_group ?dir:cfg.dir ~seed:cfg.seed ~size ~shards:cfg.shards () in
  let n = Shard.shards g in
  let nets =
    Array.init n (fun j -> Transport.Chaos_net.create (Wire.serve (Shard.store g j)))
  in
  let policy =
    {
      (Retry.default ~seed:cfg.seed ()) with
      Retry.max_attempts = 8;
      base_delay = 0.02;
      attempt_timeout = 0.5;
      deadline = 60.0;
    }
  in
  (* bind on a quiet net: the interesting chaos is on the data ops *)
  let sessions =
    match
      Chaos.protected (fun () ->
          bind_all cfg.sessions (fun k ->
              let net = nets.(k mod n) in
              R.bind ~policy ~clock:(Transport.Chaos_net.clock net)
                (Transport.Chaos_net.endpoint net)
                ~name:(Printf.sprintf "n%d" (k + 1))
                ~side:(side_of k)))
    with
    | Ok ss -> Array.map (fun (s, k) -> (s, k mod n)) ss
    | Error (k, e) -> failwith (Printf.sprintf "bind n%d: %s" (k + 1) (Error.message e))
  in
  let heal () = Array.iter Transport.Chaos_net.drain nets in
  let sum f = Array.fold_left (fun a net -> a + f net) 0 nets in
  let netc f = sum (fun net -> f (Transport.Chaos_net.stats net)) in
  let core f = sum (fun net -> f (Transport.Core.stats (Transport.Chaos_net.core net))) in
  remote
    ~label:(if cfg.shards = 0 then "net-soak" else "shard-net-soak")
    ~shared:false ~heal ~fresh_id:(fresh_ids ~shards:cfg.shards)
    ~tick:(fun i ->
      if cfg.shards > 0 && i mod cfg.gossip_every = 0 then Shard.gossip_round g)
    ~settle:(fun () ->
      heal ();
      Shard.heads g)
    ~finish:(fun () -> if cfg.shards > 0 then converge log g)
    ~report:(fun () ->
      Transport.Chaos_net.(
        Printf.sprintf
          "net: dropped=%d duped=%d reordered=%d truncated=%d delayed=%d \
           halfopen=%d"
          (netc (fun s -> s.dropped)) (netc (fun s -> s.duped))
          (netc (fun s -> s.reordered)) (netc (fun s -> s.truncated))
          (netc (fun s -> s.delayed)) (netc (fun s -> s.half_opened)))
      :: Transport.Core.(
           Printf.sprintf
             "core: requests=%d executed=%d dedup-hits=%d stale=%d overloads=%d"
             (core (fun s -> s.requests)) (core (fun s -> s.executed))
             (core (fun s -> s.dedup_hits)) (core (fun s -> s.stale))
             (core (fun s -> s.overloads)))
      :: (if cfg.shards > 0 then [ gossip_line g ] else []))
    sessions

(* ------------------------------------------------------------------ *)
(* The generator and the driver                                        *)
(* ------------------------------------------------------------------ *)

(* One seeded stream for every target: per op, a random session reads
   its view (the removal pool), commits a burst of one to four adds
   and removes on its side, re-polls, and a random bystander polls. *)
let generate ~seed ~ops h (t : target) =
  let rng = Random.State.make [| seed |] in
  let int = Random.State.int rng in
  let pick l = List.nth l (int (List.length l)) in
  let n = Array.length t.sessions in
  let pools = Array.make n [] in
  let read k kind = function
    | Ok version ->
        let session, _, store = t.sessions.(k) in
        History.record h (History.Read { session; store; kind; version })
    | Error _ -> ()
  in
  let new_row k =
    let _, side, home = t.sessions.(k) in
    let id = t.fresh_id home in
    let name = pick [ "nu"; "xi"; "pi"; "rho" ] ^ string_of_int id in
    Row.of_list
      (match side with
      | `A ->
          [
            Value.Int id;
            Value.Str name;
            Value.Str (pick [ "Engineering"; "Sales"; "Ops" ]);
            Value.Int (40_000 + (500 * int 100));
            Value.Str (name ^ "@example.com");
          ]
      (* view rows must satisfy the lens predicate to be puttable *)
      | `B -> [ Value.Int id; Value.Str name; Value.Str "Engineering" ])
  in
  for i = 1 to ops do
    let k = int n in
    let session, _, _ = t.sessions.(k) in
    let v = t.view k in
    (match v with Ok (_, rows) -> pools.(k) <- rows | Error _ -> ());
    read k `View (Result.map fst v);
    let deltas =
      List.init (1 + int 4) (fun _ ->
          if pools.(k) = [] || int 3 = 0 then Row_delta.Add (new_row k)
          else Row_delta.Remove (pick pools.(k)))
    in
    let id, outcomes = t.submit k deltas in
    History.record h
      (History.Submit
         { session; id; op = Wire.render_request (Wire.Batch deltas) });
    List.iter
      (fun (store, outcome) ->
        History.record h (History.Outcome { session; id; store; outcome });
        if outcome = History.In_doubt then
          History.record h
            (History.Outcome { session; id; store; outcome = t.resolve k }))
      outcomes;
    (* the session that just synced re-polls (the "nothing changed"
       case that must short-circuit); a bystander polls too *)
    read k `Pull (t.pull k);
    let b = int n in
    read b `Pull (t.pull b);
    t.tick i
  done

let drive ?(quiet = false) log ~seed ~ops (t : target) : int =
  let h = History.create () in
  let polls () = fst (Esm_incr.Stats.counts "session.poll") in
  let polls0 = polls () in
  generate ~seed ~ops h t;
  let heads = t.settle () in
  Chaos.protected (fun () ->
      Array.iteri
        (fun k (session, _, store) ->
          History.record h
            (History.Final
               { session; store; version = Result.map_error Error.message (t.pull k) }))
        t.sessions);
  let events = History.events h in
  let poll_hits = polls () - polls0 in
  if (not t.shared) && poll_hits = 0 then
    fail log
      "the soak recorded zero session.poll cache hits (the memoized poll \
       path was bypassed)";
  t.finish ();
  if not quiet then begin
    Printf.printf "%s: seed=%d ops=%d sessions=%d %s heads=[%s]\n" t.label seed
      ops (Array.length t.sessions) (History.summary events)
      (String.concat ";" (Array.to_list (Array.map string_of_int heads)));
    List.iter print_endline (t.report ());
    if not t.shared then begin
      let ph, pm = Esm_incr.Stats.counts "session.poll" in
      let vh, vm = Esm_incr.Stats.counts "store.view" in
      let rate h m = if h + m = 0 then 0.0 else 100.0 *. float h /. float (h + m) in
      Printf.printf
        "poll: hits=%d misses=%d hit-rate=%.1f%%  store-view: hits=%d \
         misses=%d hit-rate=%.1f%%\n"
        ph pm (rate ph pm) vh vm (rate vh vm)
    end
  end;
  match History.check ~shared:t.shared ~heads events @ List.rev log.violations with
  | [] ->
      if not quiet then Printf.printf "%s: all invariants hold\n" t.label;
      0
  | vs ->
      List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) vs;
      1

let run_recorded ?quiet cfg =
  let log = { violations = [] } in
  let views = Array.init (max 1 cfg.shards) (fun _ -> Hashtbl.create 64) in
  let t = if cfg.net then chaos_net log cfg else local log cfg views in
  (drive ?quiet log ~seed:cfg.seed ~ops:cfg.ops t, views)

let run ?quiet cfg = fst (run_recorded ?quiet cfg)

(* ------------------------------------------------------------------ *)
(* The recovery checker                                                *)
(* ------------------------------------------------------------------ *)

(* Rerun the identical soak uncrashed into [dir.oracle] (chaos visits
   are counted per site, and the rerun persists too, so its commit
   sequence is the killed run's), then reopen every killed store
   outside chaos: each recovered (version, views) must appear in the
   rerun's per-version history.  A from-zero replay would not do — a
   compaction drops the prefix it would need. *)
let check ?(wrap = fun f -> f ()) cfg dir : int =
  let scratch = dir ^ ".oracle" in
  rm_rf scratch;
  let rerun = ref (1, [||]) in
  wrap (fun () ->
      rerun := run_recorded ~quiet:true { cfg with dir = Some scratch });
  match !rerun with
  | code, _ when code <> 0 ->
      print_endline "check: oracle rerun violated soak invariants";
      1
  | _, views ->
      let log = { violations = [] } in
      Array.iteri
        (fun j history ->
          let d = store_dir ~shards:cfg.shards dir j in
          match reopen ~shards:cfg.shards ~seed:cfg.seed ~size dir j with
          | Error e -> fail log "store %d: reopen of %s failed: %s" j d (Error.message e)
          | Ok st ->
              let h = Store.version st in
              (match Hashtbl.find_opt history h with
              | None ->
                  fail log "store %d: recovered head %d never committed in the oracle"
                    j h
              | Some (va, vb) ->
                  if not (Table.equal (Store.view_a st) va) then
                    fail log "store %d: recovered A view diverges from the oracle at %d"
                      j h;
                  if not (Table.equal (Store.view_b st) vb) then
                    fail log "store %d: recovered B view diverges from the oracle at %d"
                      j h);
              Printf.printf "check: store=%d dir=%s recovered=%d\n" j d h;
              Store.close st)
        views;
      (match List.rev log.violations with
      | [] -> print_endline "check: every recovered store matches the oracle history"
      | vs -> List.iter (fun v -> Printf.printf "VIOLATION: %s\n" v) vs);
      if log.violations = [] then 0 else 1

(* ------------------------------------------------------------------ *)
(* The TCP target                                                      *)
(* ------------------------------------------------------------------ *)

(* Real sockets against a [--listen] daemon that other client processes
   may share: session names and row ids are pid-unique, and the head is
   what the first session reads at the end — every final pull must
   reach it (the history is [shared]). *)
let connect ~seed ~ops ~sessions:n addr : int =
  let pid = Unix.getpid () in
  let policy = { (Retry.default ~seed ()) with Retry.attempt_timeout = 5.0 } in
  match
    bind_all n (fun k ->
        R.bind ~policy (R.tcp_endpoint addr)
          ~name:(Printf.sprintf "c%d-%d" pid (k + 1))
          ~side:(side_of k))
  with
  | Error (k, e) ->
      Printf.eprintf "connect: bind of session %d failed: %s\n" (k + 1)
        (Error.message e);
      1
  | Ok ss ->
      let log = { violations = [] } in
      let c = ref (pid * 1_000_000) in
      let settle () =
        match R.pull (fst ss.(0)) with
        | Ok (v, _) -> [| v |]
        | Error e ->
            fail log "connect: could not read the head: %s" (Error.message e);
            [| 0 |]
      in
      let finish () =
        Array.iter
          (fun (s, _) ->
            ignore (R.bye s);
            R.close s)
          ss
      in
      drive log ~seed ~ops
        (remote
           ~label:(Printf.sprintf "connect[%d]" pid)
           ~shared:true ~heal:ignore
           ~fresh_id:(fun _ -> incr c; !c)
           ~tick:ignore ~settle ~finish
           ~report:(fun () -> [])
           (Array.map (fun (s, _) -> (s, 0)) ss))
