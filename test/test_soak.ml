(** Soak suite: the history oracle on hand-built histories, the one
    soak driver on every in-process target under a fixed chaos seed,
    and the kill/check recovery cycle (see [docs/SYNC.md], "Soak"). *)

open Esm_core
open Esm_sync

let test = Alcotest.test_case

(* ------------------------------------------------------------------ *)
(* History.check on hand-built histories                               *)
(* ------------------------------------------------------------------ *)

let submit session id = History.Submit { session; id; op = "batch" }

let outcome session id outcome =
  History.Outcome { session; id; store = 0; outcome }

let read session version =
  History.Read { session; store = 0; kind = `Pull; version }

let final session version =
  History.Final { session; store = 0; version = Ok version }

(* Two sessions, three acked commits, a resolved in-doubt one. *)
let clean =
  [
    submit "a" 1;
    outcome "a" 1 (History.Acked 1);
    read "a" 1;
    submit "b" 1;
    outcome "b" 1 History.In_doubt;
    outcome "b" 1 (History.Acked 2);
    read "b" 2;
    submit "a" 2;
    outcome "a" 2 (History.Rejected "fault");
    submit "a" 3;
    outcome "a" 3 (History.Acked 3);
    read "a" 3;
    final "a" 3;
    final "b" 3;
  ]

let flags name ?(heads = [| 3 |]) events =
  test name `Quick (fun () ->
      if History.check ~heads events = [] then
        Alcotest.failf "%s: not flagged" name)

let drop_first p l =
  let rec go = function
    | [] -> []
    | x :: xs -> if p x then xs else x :: go xs
  in
  go l

let history_tests =
  [
    test "a clean history passes" `Quick (fun () ->
        Alcotest.(check (list string))
          "violations" [] (History.check ~heads:[| 3 |] clean));
    flags "a dropped ack is flagged"
      (drop_first (( = ) (outcome "a" 3 (History.Acked 3))) clean);
    flags "a doubled ack is flagged"
      (clean @ [ outcome "a" 3 (History.Acked 3) ]);
    (* the head is 2 without b's commit, so the unsettled in-doubt
       submit is the only fault left *)
    flags "an unresolved in-doubt submit is flagged" ~heads:[| 2 |]
      (drop_first (( = ) (outcome "b" 1 (History.Acked 2))) clean
      |> List.map (function
           | History.Final { session; _ } -> final session 2
           | History.Read { session = "a"; version = 3; _ } -> read "a" 2
           | History.Outcome { session = "a"; id = 3; _ } ->
               outcome "a" 3 (History.Acked 2)
           | e -> e));
    flags "a regressing read is flagged" (clean @ [ read "b" 1 ]);
    flags "an unconverged session is flagged"
      (List.map
         (function History.Final { session = "b"; _ } -> final "b" 2 | e -> e)
         clean);
    test "shared stores allow unrecorded commits, not missing ones" `Quick
      (fun () ->
        Alcotest.(check (list string))
          "a head past the acks" []
          (History.check ~shared:true ~heads:[| 3 |]
             (List.filter
                (function
                  | History.Outcome { session = "a"; id = 1; _ }
                  | History.Submit { session = "a"; id = 1; _ } ->
                      false
                  | _ -> true)
                clean));
        if History.check ~shared:true ~heads:[| 4 |] clean = [] then
          Alcotest.fail "a final pull behind the head passed");
  ]

(* ------------------------------------------------------------------ *)
(* The driver on every in-process target                               *)
(* ------------------------------------------------------------------ *)

let chaos_seed = 42

let with_chaos ?(rate = 0.05) f =
  Chaos.with_chaos (Chaos.make ~rate ~seed:chaos_seed ()) f

let tmp_count = ref 0

let tmp_dir () =
  incr tmp_count;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "esm-soak-%d-%d" (Unix.getpid ()) !tmp_count)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then (
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path

let cfg = { Soak.default with ops = 60 }

let clean_run name ?rate c =
  test name `Quick (fun () ->
      Alcotest.(check int) "exit" 0 (with_chaos ?rate (fun () -> Soak.run ~quiet:true c)))

let driver_tests =
  [
    clean_run "one store exits clean" cfg;
    test "three compacting shards, persisted, exit clean" `Quick (fun () ->
        let d = tmp_dir () in
        Fun.protect
          ~finally:(fun () -> rm_rf d)
          (fun () ->
            Alcotest.(check int) "exit" 0
              (with_chaos (fun () ->
                   Soak.run ~quiet:true
                     { cfg with shards = 3; compact = true; gossip_every = 10; dir = Some d }))));
    clean_run "one store through the chaos net exits clean" ~rate:0.12
      { cfg with net = true; sessions = 6 };
    clean_run "three shards through chaos nets exit clean" ~rate:0.12
      { cfg with net = true; sessions = 6; shards = 3; gossip_every = 10 };
  ]

(* ------------------------------------------------------------------ *)
(* Kill, then check against the uncrashed rerun                        *)
(* ------------------------------------------------------------------ *)

exception Killed

let kill_check name c kill_at =
  test name `Quick (fun () ->
      let d = tmp_dir () in
      let c = { c with Soak.dir = Some d } in
      Fun.protect
        ~finally:(fun () ->
          Durable_log.set_kill_at None;
          rm_rf d;
          rm_rf (d ^ ".oracle"))
        (fun () ->
          Durable_log.set_kill_at ~exit:(fun () -> raise Killed) (Some kill_at);
          (match with_chaos (fun () -> Soak.run ~quiet:true c) with
          | _ -> Alcotest.fail "the soak finished before the kill"
          | exception Killed -> ());
          Durable_log.set_kill_at None;
          Alcotest.(check int)
            "check" 0
            (Soak.check ~wrap:(fun f -> with_chaos f) c d)))

let kill_tests =
  [
    kill_check "a killed one-store soak recovers to an oracle version" cfg 41;
    kill_check "a killed compacting sharded soak recovers per shard"
      { cfg with shards = 3; compact = true } 80;
  ]

let suite = history_tests @ driver_tests @ kill_tests
