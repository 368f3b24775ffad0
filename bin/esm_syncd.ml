(* esm_syncd: the sync engine driver — a daemon serving concurrent
   sessions against a replicated relational store (Esm_sync over the
   employees where|select lens), its client, a script replayer, and the
   soak that checks the engine's claims.

   Modes:

     esm_syncd --listen ADDR [--dir D]
       A real daemon: serve the store over length-framed wire messages
       on a Unix-domain ("unix:PATH") or TCP ("HOST:PORT", ":PORT")
       socket, multiplexing every connection over one select loop.
       SIGTERM/SIGINT request a clean drain: stop accepting, flush
       queued responses, print the transport stats, exit 0.

     esm_syncd --script FILE
       Replay a wire-protocol script: each non-empty, non-# line is
       "@<session> <request>" in the grammar of Esm_sync.Wire; lines
       are processed in order (the script IS the schedule, so runs are
       reproducible), and each request/response pair is printed.
       Exit 2 on malformed script lines.  A FILE ending in .esmql is
       instead parsed as an ESMQL script (see docs/QUERY.md), compiled
       through the law-level gate and executed against the default
       store; exit 2 on a parse/compile rejection, 1 on a failed step.

     esm_syncd --soak [--shards N [--gossip-every K] [--compact]]
              [--chaos-net] [--seed N] [--ops N] [--sessions N]
              [--dir D [--kill-at N]]
     esm_syncd --connect ADDR [--seed N] [--ops N] [--sessions N]
       One seeded workload generator (Esm_sync.Soak) driven against a
       target: one store, a group of N gossiping shards (--shards),
       either of them behind a deterministic chaos network per store
       (--chaos-net), or a --listen daemon over TCP (--connect, whose
       session names and row ids are pid-unique so several processes
       can share one server).  Every run records what its clients saw
       and checks it with Esm_sync.History: each store's head equals
       the commits acked at it, no in-doubt submit stays unresolved, no
       session reads back in version, and every session's final pull
       reaches its store's head.  The in-process targets add their own
       checks: crash+recover = the uncrashed views, a batched burst =
       its deltas one at a time, nonzero session-poll cache hits,
       cross-shard convergence after gossip quiesces, and with
       --compact --dir an on-disk audit of the compacted logs.  Exit 1
       on any violation.  --dir persists the stores (D/log.bin, or
       D/shard-i/ per shard); --kill-at N hard-exits (status 130, no
       flushing, mid-record when N lands there) after the Nth durable
       write tick, compaction stages included.

     esm_syncd --check-dir D [--seed N] [--ops N] [--sessions N]
              [--shards N [--compact]]
       The recovery half: rerun the identical soak (same seed, same
       CHAOS_SEED schedule — chaos visits are counted per site, so the
       uncrashed rerun performs the same commit sequence) into
       D.oracle, recording every committed version's views, then reopen
       each killed store in D outside chaos: its (version, views) must
       appear in that history.  Exit 1 on any divergence or on
       unrecoverable corruption.

   All modes honour CHAOS_SEED (and optional CHAOS_RATE): fault
   injection at the sync and net chaos sites plus the library-wide
   ones, with the injection/fallback counts reported. *)

open Esm_core
open Esm_sync

(* ------------------------------------------------------------------ *)
(* Script mode                                                         *)
(* ------------------------------------------------------------------ *)

(* An .esmql script runs through the query front-end against the same
   default employees store the wire scripts exercise: parse, gate
   (strict unless the script says otherwise), execute on the store
   backend.  Parse/compile rejections exit 2 like malformed wire
   lines; a failed execution step exits 1. *)
let run_esmql_script (path : string) : int =
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let bases =
    [
      {
        Esm_ql.Check.bname = "employees";
        bschema = Esm_relational.Workload.employees_schema;
        bkey = [ "id" ];
        binit = Esm_relational.Workload.employees ~seed:11 ~size:24;
      };
    ]
  in
  match Esm_ql.Parser.parse (read_file path) with
  | Error e ->
      Printf.printf "!! %s\n" (Esm_core.Error.message e);
      2
  | Ok script -> (
      match Esm_ql.Check.compile ~bases script with
      | Error e ->
          Printf.printf "!! %s\n" (Esm_core.Error.message e);
          2
      | Ok compiled ->
          let trace = Esm_ql.Exec.run ~kind:Esm_ql.Backend.Store compiled in
          Format.printf "%a@." Esm_ql.Exec.pp trace;
          if trace.Esm_ql.Exec.ok then 0 else 1)

let run_script (path : string) : int =
  if Filename.check_suffix path ".esmql" then run_esmql_script path
  else
  let srv = Wire.serve (Soak.default_store ~seed:11 ~size:24 ()) in
  let ic = open_in path in
  let bad = ref false in
  (try
     let lineno = ref 0 in
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then
         if line.[0] <> '@' then (
           Printf.printf "!! line %d: expected '@<session> <request>'\n"
             !lineno;
           bad := true)
         else
           let body = String.sub line 1 (String.length line - 1) in
           let session, req =
             match String.index_opt body ' ' with
             | None -> (body, "")
             | Some i ->
                 ( String.sub body 0 i,
                   String.trim
                     (String.sub body (i + 1) (String.length body - i - 1)) )
           in
           Printf.printf "@%s> %s\n" session req;
           match Wire.handle_line srv ~session req with
           | resp -> Printf.printf "@%s< %s\n" session resp
           | exception Error.Bx_error e when e.Error.kind = Error.Parse ->
               Printf.printf "!! line %d: %s\n" !lineno (Error.message e);
               bad := true
     done
   with End_of_file -> close_in ic);
  if !bad then 2 else 0

(* ------------------------------------------------------------------ *)
(* Chaos from the environment                                          *)
(* ------------------------------------------------------------------ *)

let with_env_chaos (f : unit -> 'a) : 'a =
  match Sys.getenv_opt "CHAOS_SEED" with
  | None -> f ()
  | Some s ->
      let seed =
        match int_of_string_opt s with
        | Some n -> n
        | None ->
            prerr_endline "esm_syncd: CHAOS_SEED must be an integer";
            exit 2
      in
      let rate =
        match Sys.getenv_opt "CHAOS_RATE" with
        | Some r -> float_of_string r
        | None -> 0.05
      in
      let c = Chaos.make ~rate ~seed () in
      let out = Chaos.with_chaos c f in
      Printf.printf "chaos: seed=%d rate=%g injected=%d fallbacks=%d\n" seed
        rate (Chaos.injected c) (Chaos.fallbacks c);
      out

(* ------------------------------------------------------------------ *)
(* Listen mode: the real daemon                                        *)
(* ------------------------------------------------------------------ *)

let run_listen ?dir (addr_s : string) : int =
  match Transport.addr_of_string addr_s with
  | Error e ->
      Printf.eprintf "esm_syncd: %s\n" (Error.message e);
      2
  | Ok addr ->
      let store = Soak.default_store ?dir ~seed:11 ~size:48 () in
      let srv = Transport.Server.listen addr (Wire.serve store) in
      Printf.printf "esm_syncd: listening on %s\n%!"
        (Transport.string_of_addr (Transport.Server.addr srv));
      let stop _ = Transport.Server.request_shutdown srv in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
      Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
      Transport.Server.run srv;
      let st = Transport.Core.stats (Transport.Server.core srv) in
      Printf.printf
        "esm_syncd: drained and stopped (requests=%d executed=%d \
         dedup-hits=%d stale=%d overloads=%d reaped=%d head=%d)\n%!"
        st.Transport.Core.requests st.executed st.dedup_hits st.stale
        st.overloads st.reaped (Store.version store);
      Store.close store;
      0

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let script = ref "" in
  let do_soak = ref false in
  let seed = ref 42 in
  let ops = ref 200 in
  let sessions = ref 4 in
  let dir = ref "" in
  let kill_at = ref 0 in
  let check_dir = ref "" in
  let listen = ref "" in
  let connect = ref "" in
  let chaos_net = ref false in
  let shards = ref 0 in
  let gossip_every = ref 25 in
  let do_compact = ref false in
  let specs =
    [
      ( "--listen",
        Arg.Set_string listen,
        "ADDR serve the store on unix:PATH, HOST:PORT or :PORT" );
      ( "--connect",
        Arg.Set_string connect,
        "ADDR drive remote sessions against a --listen daemon" );
      ( "--chaos-net",
        Arg.Set chaos_net,
        " with --soak: run the workload through the chaos network" );
      ("--script", Arg.Set_string script, "FILE replay a wire-protocol script");
      ("--soak", Arg.Set do_soak, " run the random multi-session soak");
      ("--seed", Arg.Set_int seed, "N soak workload seed (default 42)");
      ("--ops", Arg.Set_int ops, "N soak operation count (default 200)");
      ( "--sessions",
        Arg.Set_int sessions,
        "N soak session count (default 4)" );
      ( "--dir",
        Arg.Set_string dir,
        "D persist the soak store's oplog to directory D" );
      ( "--kill-at",
        Arg.Set_int kill_at,
        "N hard-exit (status 130) after the Nth durable write syscall" );
      ( "--check-dir",
        Arg.Set_string check_dir,
        "D reopen a killed log in D and diff against an uncrashed rerun" );
      ( "--shards",
        Arg.Set_int shards,
        "N partition the soak store across N gossiping shards" );
      ( "--gossip-every",
        Arg.Set_int gossip_every,
        "K run one anti-entropy gossip round every K ops (default 25)" );
      ( "--compact",
        Arg.Set do_compact,
        " with --shards: periodically compact each shard's oplog to its \
         latest durable snapshot" );
    ]
  in
  let usage =
    "esm_syncd (--listen ADDR | --connect ADDR | --script FILE | --soak \
     [--chaos-net] [--shards N] | --check-dir D) [options]"
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !shards < 0 || !gossip_every <= 0 then (
    prerr_endline "esm_syncd: --shards must be >= 0, --gossip-every >= 1";
    exit 2);
  if !do_compact && !shards = 0 then (
    prerr_endline "esm_syncd: --compact requires --shards";
    exit 2);
  let cfg =
    {
      Soak.seed = !seed;
      ops = !ops;
      sessions = !sessions;
      shards = !shards;
      gossip_every = !gossip_every;
      compact = !do_compact;
      net = !chaos_net;
      dir = (if !dir = "" then None else Some !dir);
    }
  in
  let code =
    if !listen <> "" then run_listen ?dir:cfg.dir !listen
    else if !connect <> "" then
      match Transport.addr_of_string !connect with
      | Error e ->
          Printf.eprintf "esm_syncd: %s\n" (Error.message e);
          2
      | Ok addr -> Soak.connect ~seed:!seed ~ops:!ops ~sessions:!sessions addr
    else if !script <> "" then with_env_chaos (fun () -> run_script !script)
    else if !check_dir <> "" then Soak.check ~wrap:with_env_chaos cfg !check_dir
    else if !do_soak then begin
      if !kill_at > 0 then begin
        if cfg.dir = None then (
          prerr_endline "esm_syncd: --kill-at requires --dir";
          exit 2);
        Durable_log.set_kill_at (Some !kill_at)
      end;
      with_env_chaos (fun () -> Soak.run cfg)
    end
    else (
      prerr_endline usage;
      2)
  in
  exit code
