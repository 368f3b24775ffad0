(** Transport suite: the real-network layer end to end.

    - {!Esm_sync.Transport.Frame}: length-framed codec roundtrips under
      arbitrary chunking; mutated and truncated byte streams produce
      typed errors, never exceptions, and poison the reader;
    - {!Esm_sync.Transport.Envelope}: request-id envelopes roundtrip;
      arbitrary garbage parses to typed errors;
    - {!Esm_sync.Retry}: bounded attempts, deterministic jitter, overall
      deadline — all against a manual clock, so no test ever waits;
    - {!Esm_core.Error}: [Unix_error] classification into
      transient/permanent transport errors;
    - {!Esm_sync.Transport.Core}: the dedup window (replay answered from
      cache, stale ids refused, both without re-execution), overload
      shedding that leaves dedup untouched, idle-session reaping, and
      a [get] served from the rendered-view memo equal to a fresh
      render;
    - {!Esm_sync.Transport.Chaos_net}: scripted half-open/duplicate
      scenarios and a deterministic mini-soak per fixed seed asserting
      the no-lost/no-duplicated-commit accounting and convergence;
    - {!Esm_sync.Transport.Server}: a real Unix-domain socket server
      driven single-threaded through the endpoint's pump hook,
      including shutdown drain. *)

open Esm_core
open Esm_sync
open Esm_sync.Transport
module Rel = Esm_relational

let check = Alcotest.check
let test = Alcotest.test_case

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

let eng_lens =
  Rel.Query.lens_of_string ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let make_store ?(seed = 11) ?(size = 24) () : Wire.rstore =
  Store.of_packed ~name:"employees" ~snapshot_every:8
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
    (Concrete.packed_of_lens ~vwb:false
       ~init:(Rel.Workload.employees ~seed ~size)
       ~eq_state:Rel.Table.equal eng_lens)

let view_row i name =
  Rel.Row.of_list
    [ Rel.Value.Int i; Rel.Value.Str name; Rel.Value.Str "Engineering" ]

let base_row i name dept salary =
  Rel.Row.of_list
    [
      Rel.Value.Int i;
      Rel.Value.Str name;
      Rel.Value.Str dept;
      Rel.Value.Int salary;
      Rel.Value.Str (name ^ "@example.com");
    ]

let is_error = function Error _ -> true | Ok _ -> false

let error_kind = function
  | Error (e : Error.t) -> Error.kind_name e.Error.kind
  | Ok _ -> "ok"

(* ------------------------------------------------------------------ *)
(* Frame: codec roundtrip + hardening                                  *)
(* ------------------------------------------------------------------ *)

(* Feed [bytes] to a reader in chunks cut at [cuts] and collect every
   decoded payload. *)
let decode_chunked (bytes : string) (cuts : int list) : string list =
  let r = Frame.reader () in
  let n = String.length bytes in
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts) in
  let cuts = List.filter (fun c -> c > 0 && c < n) cuts @ [ n ] in
  let out = ref [] in
  let pos = ref 0 in
  List.iter
    (fun c ->
      Frame.push r (String.sub bytes !pos (c - !pos));
      pos := c;
      let rec drain () =
        match Frame.next r with
        | Ok (Some p) ->
            out := p :: !out;
            drain ()
        | Ok None -> ()
        | Error e -> Alcotest.failf "unexpected frame error: %s" (Error.message e)
      in
      drain ())
    cuts;
  (match Frame.eof r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected eof error: %s" (Error.message e));
  List.rev !out

let gen_payload : string QCheck.Gen.t =
  QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 64))

let frame_property_tests =
  [
    QCheck.Test.make ~count:300
      ~name:"frame decode . encode = id under arbitrary chunking"
      (QCheck.make
         QCheck.Gen.(
           pair
             (list_size (int_bound 5) gen_payload)
             (list_size (int_bound 8) (int_bound 500))))
      (fun (payloads, cuts) ->
        let bytes = String.concat "" (List.map Frame.encode payloads) in
        decode_chunked bytes cuts = payloads);
    QCheck.Test.make ~count:300
      ~name:"truncated frames: typed eof error, no decoded garbage"
      (QCheck.make
         QCheck.Gen.(pair gen_payload (int_range 1 4)))
      (fun (payload, cut) ->
        let bytes = Frame.encode (payload ^ "tail") in
        let keep = String.length bytes - cut in
        let r = Frame.reader () in
        Frame.push r (String.sub bytes 0 keep);
        (* the torn frame must never come out *)
        (match Frame.next r with
        | Ok None -> ()
        | Ok (Some _) -> QCheck.Test.fail_report "decoded a torn frame"
        | Error _ -> QCheck.Test.fail_report "torn tail is not an error yet");
        match Frame.eof r with
        | Error e -> e.Error.kind = Error.Transport `Transient
        | Ok () -> QCheck.Test.fail_report "eof accepted a torn frame");
  ]

let frame_unit_tests =
  [
    test "mangled length header poisons the reader" `Quick (fun () ->
        let r = Frame.reader () in
        (* a header claiming a frame far beyond max_payload *)
        Frame.push r "\xff\xff\xff\xff then some bytes";
        (match Frame.next r with
        | Error e ->
            check Alcotest.string "kind" "transport.permanent"
              (Error.kind_name e.Error.kind)
        | Ok _ -> Alcotest.fail "oversized header accepted");
        (* poisoned: pushing a valid frame afterwards cannot resync *)
        Frame.push r (Frame.encode "valid");
        check Alcotest.bool "still poisoned" true (is_error (Frame.next r));
        check Alcotest.bool "eof also fails" true (is_error (Frame.eof r)));
    test "reader compacts its consumed prefix" `Quick (fun () ->
        let r = Frame.reader () in
        for _ = 1 to 100 do
          Frame.push r (Frame.encode (String.make 200 'x'));
          match Frame.next r with
          | Ok (Some _) -> ()
          | _ -> Alcotest.fail "frame lost"
        done;
        check Alcotest.int "nothing buffered" 0 (Frame.buffered r));
    test "encode refuses oversized payloads" `Quick (fun () ->
        match Frame.encode (String.make (Frame.max_payload + 1) 'x') with
        | _ -> Alcotest.fail "oversized payload encoded"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Envelope: roundtrip + garbage never raises                          *)
(* ------------------------------------------------------------------ *)

let envelope_property_tests =
  [
    QCheck.Test.make ~count:300 ~name:"request envelope roundtrips"
      (QCheck.make
         QCheck.Gen.(
           triple (int_bound 1_000_000)
             (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
             (string_size ~gen:(oneofl [ 'a'; ' '; '@'; '7' ]) (int_range 1 12))))
      (fun (id, session, body) ->
        let body = String.trim body in
        QCheck.assume (body <> "");
        match Envelope.(parse_req (render_req { id; session; body })) with
        | Ok r -> r = { Envelope.id; session; body }
        | Error _ -> false);
    QCheck.Test.make ~count:300 ~name:"response envelope roundtrips"
      (QCheck.make
         QCheck.Gen.(
           pair (int_bound 1_000_000)
             (string_size ~gen:(oneofl [ 'o'; 'k'; ' '; '4' ]) (int_range 1 12))))
      (fun (rid, body) ->
        let body = String.trim body in
        QCheck.assume (body <> "");
        match Envelope.(parse_resp (render_resp { rid; body })) with
        | Ok r -> r = { Envelope.rid; body }
        | Error _ -> false);
    QCheck.Test.make ~count:500
      ~name:"garbage envelopes parse to typed errors, never exceptions"
      (QCheck.make
         QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 40)))
      (fun s ->
        (match Envelope.parse_req s with Ok _ | Error _ -> true)
        && match Envelope.parse_resp s with Ok _ | Error _ -> true);
  ]

(* ------------------------------------------------------------------ *)
(* Wire-codec hardening: mutated frames through the whole decode path  *)
(* ------------------------------------------------------------------ *)

(* A well-formed request envelope frame, with one byte of the payload
   mutated: decoding through Frame + Envelope + Wire.parse_request must
   end in Ok or a typed bx error — any other exception fails. *)
let wire_mutation_tests =
  [
    QCheck.Test.make ~count:500
      ~name:"mutated request frames decode to typed errors only"
      (QCheck.make
         QCheck.Gen.(
           triple (int_bound 1000) (int_bound 10_000) (int_bound 255)))
      (fun (id, at, byte) ->
        let body =
          Wire.render_request (Wire.Batch [ Rel.Row_delta.Add (view_row 9 "q") ])
        in
        let payload =
          Envelope.render_req { Envelope.id; session = "s"; body }
        in
        let p = Bytes.of_string payload in
        Bytes.set p (at mod Bytes.length p) (Char.chr byte);
        let payload = Bytes.to_string p in
        let r = Frame.reader () in
        Frame.push r (Frame.encode payload);
        match Frame.next r with
        | Ok (Some got) -> (
            got = payload
            &&
            match Envelope.parse_req got with
            | Error _ -> true
            | Ok { body; _ } -> (
                match Wire.parse_request body with
                | _ -> true
                | exception exn -> Error.is_bx_exn exn))
        | Ok None | Error _ -> QCheck.Test.fail_report "whole frame lost");
  ]

(* ------------------------------------------------------------------ *)
(* Retry: bounded backoff against the fake clock                       *)
(* ------------------------------------------------------------------ *)

let transient e = Error.is_transient e

let retry_tests =
  [
    test "bounded attempts, jittered exponential waits" `Quick (fun () ->
        let policy =
          { (Retry.default ~seed:7 ()) with Retry.max_attempts = 4 }
        in
        let clock = Retry.manual_clock () in
        let calls = ref 0 in
        let r =
          Retry.run ~policy ~clock ~key:"k" ~retryable:transient
            (fun ~attempt ->
              incr calls;
              check Alcotest.int "attempts count up" !calls attempt;
              Error (Error.v (Error.Transport `Transient) ~op:"t" "down"))
        in
        check Alcotest.int "exactly max_attempts calls" 4 !calls;
        check Alcotest.string "last error surfaces" "transport.transient"
          (error_kind r);
        let expect =
          List.fold_left
            (fun acc a -> acc +. Retry.delay policy ~key:"k" ~attempt:a)
            0.0 [ 1; 2; 3 ]
        in
        check (Alcotest.float 1e-9) "slept the jittered schedule" expect
          (clock.Retry.now ()));
    test "jitter is deterministic per (seed, key, attempt)" `Quick (fun () ->
        let p = Retry.default ~seed:chaos_seed () in
        for attempt = 1 to 6 do
          check (Alcotest.float 0.0) "same delay twice"
            (Retry.delay p ~key:"s1" ~attempt)
            (Retry.delay p ~key:"s1" ~attempt)
        done;
        (* distinct keys de-synchronise: not every delay can coincide *)
        let same =
          List.for_all
            (fun attempt ->
              Retry.delay p ~key:"s1" ~attempt
              = Retry.delay p ~key:"s2" ~attempt)
            [ 1; 2; 3; 4; 5; 6 ]
        in
        check Alcotest.bool "keys jitter apart" false same;
        (* and the factor stays inside [1-j, 1+j] of the raw backoff *)
        List.iter
          (fun attempt ->
            let raw =
              Float.min
                (p.Retry.base_delay
                *. (p.Retry.multiplier ** float_of_int (attempt - 1)))
                p.Retry.max_delay
            in
            let d = Retry.delay p ~key:"s1" ~attempt in
            check Alcotest.bool "within jitter band" true
              (d >= raw *. (1.0 -. p.Retry.jitter)
              && d <= raw *. (1.0 +. p.Retry.jitter)))
          [ 1; 2; 3; 4; 5; 6 ]);
    test "overall deadline surfaces as Error.Timeout" `Quick (fun () ->
        let policy =
          {
            (Retry.default ~seed:1 ()) with
            Retry.max_attempts = 1000;
            deadline = 0.5;
          }
        in
        let clock = Retry.manual_clock () in
        let calls = ref 0 in
        let r =
          Retry.run ~policy ~clock ~key:"k" ~retryable:transient
            (fun ~attempt:_ ->
              incr calls;
              Error (Error.v Error.Overload ~op:"t" "shed"))
        in
        check Alcotest.string "timeout kind" "timeout" (error_kind r);
        check Alcotest.bool "stopped well before 1000 attempts" true
          (!calls < 1000);
        check Alcotest.bool "clock stayed within the deadline" true
          (clock.Retry.now () <= 0.5));
    test "non-retryable errors fail fast" `Quick (fun () ->
        let clock = Retry.manual_clock () in
        let calls = ref 0 in
        let r =
          Retry.run
            ~policy:(Retry.default ())
            ~clock ~key:"k" ~retryable:transient
            (fun ~attempt:_ ->
              incr calls;
              Error (Error.v Error.Shape ~op:"t" "bad view"))
        in
        check Alcotest.int "one attempt" 1 !calls;
        check Alcotest.string "original error" "shape" (error_kind r);
        check (Alcotest.float 0.0) "no sleeping" 0.0 (clock.Retry.now ()));
    test "success stops retrying" `Quick (fun () ->
        let clock = Retry.manual_clock () in
        let r =
          Retry.run
            ~policy:(Retry.default ())
            ~clock ~key:"k" ~retryable:transient
            (fun ~attempt ->
              if attempt < 3 then
                Error (Error.v Error.Timeout ~op:"t" "slow")
              else Ok attempt)
        in
        check Alcotest.bool "third attempt wins" true (r = Ok 3));
  ]

(* ------------------------------------------------------------------ *)
(* Unix_error classification                                           *)
(* ------------------------------------------------------------------ *)

let classify_tests =
  [
    test "Unix_error classifies into Transport transient/permanent" `Quick
      (fun () ->
        let kind_of e =
          match Error.of_exn (Unix.Unix_error (e, "connect", "peer")) with
          | Some err -> Error.kind_name err.Error.kind
          | None -> "unclassified"
        in
        List.iter
          (fun e ->
            check Alcotest.string "transient" "transport.transient" (kind_of e))
          [
            Unix.ECONNRESET;
            Unix.ECONNREFUSED;
            Unix.EPIPE;
            Unix.ETIMEDOUT;
            Unix.EAGAIN;
            Unix.EINTR;
            Unix.ENETDOWN;
          ];
        List.iter
          (fun e ->
            check Alcotest.string "permanent" "transport.permanent" (kind_of e))
          [ Unix.ENOENT; Unix.EACCES; Unix.EBADF; Unix.EINVAL ]);
    test "transient/retryable split drives the idempotency contract" `Quick
      (fun () ->
        let t flag = Error.v (Error.Transport flag) ~op:"t" "x" in
        (* transient: outcome unknown, retry under the SAME envelope id *)
        check Alcotest.bool "transient is transient" true
          (Error.is_transient (t `Transient));
        check Alcotest.bool "timeout is transient" true
          (Error.is_transient (Error.v Error.Timeout ~op:"t" "x"));
        check Alcotest.bool "overload is transient" true
          (Error.is_transient (Error.v Error.Overload ~op:"t" "x"));
        (* retryable-but-not-transient: definitely rolled back, retry
           under a FRESH id *)
        let conflict = Error.v Error.Conflict ~op:"t" "x" in
        check Alcotest.bool "conflict retries" true (Error.retryable conflict);
        check Alcotest.bool "conflict is not transient" false
          (Error.is_transient conflict);
        (* permanent transport errors do not retry at all *)
        check Alcotest.bool "permanent fails fast" false
          (Error.retryable (t `Permanent)));
  ]

(* ------------------------------------------------------------------ *)
(* Core: the dedup window, overload shedding, reaping                  *)
(* ------------------------------------------------------------------ *)

let send (core : Core.t) ?(pending = 0) ?(now = 0.0) ~id ~session body =
  let payload =
    Envelope.render_req { Envelope.id; session; body }
  in
  match Envelope.parse_resp (Core.handle_payload core ~now ~pending payload) with
  | Ok { rid; body } ->
      check Alcotest.int "response echoes the request id" id rid;
      Wire.parse_response body
  | Error e -> Alcotest.failf "bad response envelope: %s" (Error.message e)

let hello core ~session ~side =
  match
    send core ~id:1 ~session (Wire.render_request (Wire.Hello (session, side)))
  with
  | Wire.Resp_ok _ -> ()
  | r -> Alcotest.failf "hello failed: %s" (Wire.render_response r)

let core_tests =
  [
    test "replayed ids answer from cache without re-execution" `Quick
      (fun () ->
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        hello core ~session:"s1" ~side:`B;
        let body =
          Wire.render_request (Wire.Batch [ Rel.Row_delta.Add (view_row 900 "nu") ])
        in
        let v0 = Store.version store in
        let first = send core ~id:2 ~session:"s1" body in
        check Alcotest.int "commit applied" (v0 + 1) (Store.version store);
        let executed = (Core.stats core).Core.executed in
        (* the retransmit: same id, byte-identical answer, no execution *)
        let again = send core ~id:2 ~session:"s1" body in
        check Alcotest.bool "cached answer is identical" true (first = again);
        check Alcotest.int "no re-execution" executed
          (Core.stats core).Core.executed;
        check Alcotest.int "exactly one commit" (v0 + 1) (Store.version store);
        check Alcotest.int "dedup hit counted" 1
          (Core.stats core).Core.dedup_hits;
        (* a THIRD copy still dedups — the window is not one-shot *)
        ignore (send core ~id:2 ~session:"s1" body);
        check Alcotest.int "still one commit" (v0 + 1) (Store.version store));
    test "stale ids are refused, not executed" `Quick (fun () ->
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        hello core ~session:"s1" ~side:`B;
        let commit i id =
          send core ~id ~session:"s1"
            (Wire.render_request
               (Wire.Batch [ Rel.Row_delta.Add (view_row i "nu") ]))
        in
        ignore (commit 901 2);
        ignore (commit 902 3);
        let v = Store.version store in
        (* a floating duplicate of id 2 arrives after id 3 committed *)
        match commit 903 2 with
        | Wire.Resp_error (Error.Transport `Permanent, _) ->
            check Alcotest.int "nothing applied" v (Store.version store);
            check Alcotest.int "stale counted" 1 (Core.stats core).Core.stale
        | r -> Alcotest.failf "expected stale refusal, got %s"
                 (Wire.render_response r));
    test "dedup windows are per session" `Quick (fun () ->
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        hello core ~session:"s1" ~side:`B;
        hello core ~session:"s2" ~side:`B;
        (* both sessions use id 2 independently *)
        let r1 =
          send core ~id:2 ~session:"s1"
            (Wire.render_request
               (Wire.Batch [ Rel.Row_delta.Add (view_row 910 "nu") ]))
        in
        let r2 =
          send core ~id:2 ~session:"s2"
            (Wire.render_request
               (Wire.Batch [ Rel.Row_delta.Add (view_row 911 "xi") ]))
        in
        (match (r1, r2) with
        | Wire.Resp_ok a, Wire.Resp_ok b ->
            check Alcotest.bool "both executed" true (a <> b)
        | _ -> Alcotest.fail "a session's id leaked into another window"));
    test "overload sheds unexecuted and leaves dedup intact" `Quick
      (fun () ->
        let store = make_store () in
        let core = Core.create ~max_pending:4 (Wire.serve store) in
        hello core ~session:"s1" ~side:`B;
        let body =
          Wire.render_request (Wire.Batch [ Rel.Row_delta.Add (view_row 920 "nu") ])
        in
        let v = Store.version store in
        (match send core ~pending:5 ~id:2 ~session:"s1" body with
        | Wire.Resp_error (Error.Overload, _) -> ()
        | r -> Alcotest.failf "expected overload, got %s" (Wire.render_response r));
        check Alcotest.int "shed, not executed" v (Store.version store);
        check Alcotest.int "overload counted" 1
          (Core.stats core).Core.overloads;
        (* the retry, same id, quieter moment: executes normally *)
        (match send core ~pending:0 ~id:2 ~session:"s1" body with
        | Wire.Resp_ok _ -> ()
        | r -> Alcotest.failf "retry after shed failed: %s"
                 (Wire.render_response r));
        check Alcotest.int "retry applied once" (v + 1) (Store.version store));
    test "the reaper drops idle sessions and their windows" `Quick (fun () ->
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        hello core ~session:"fresh" ~side:`A;
        Core.touch core ~session:"fresh" ~now:100.0;
        hello core ~session:"idle" ~side:`B;
        Core.touch core ~session:"idle" ~now:10.0;
        let reaped = Core.reap core ~now:100.0 ~idle_timeout:30.0 in
        check (Alcotest.list Alcotest.string) "idle reaped" [ "idle" ] reaped;
        check (Alcotest.list Alcotest.string) "binding dropped" [ "fresh" ]
          (Wire.session_names (Core.wire core));
        check Alcotest.int "reap counted" 1 (Core.stats core).Core.reaped;
        (* the reaped session's window is gone: its old id executes anew *)
        hello core ~session:"idle" ~side:`B;
        match
          send core ~id:2 ~session:"idle"
            (Wire.render_request
               (Wire.Batch [ Rel.Row_delta.Add (view_row 930 "nu") ]))
        with
        | Wire.Resp_ok _ -> ()
        | r -> Alcotest.failf "post-reap id refused: %s" (Wire.render_response r));
    test "garbage request envelopes answer on id 0" `Quick (fun () ->
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        match
          Envelope.parse_resp
            (Core.handle_payload core ~now:0.0 ~pending:0 "not an envelope")
        with
        | Ok { rid; body } -> (
            check Alcotest.int "id 0" 0 rid;
            match Wire.parse_response body with
            | Wire.Resp_error (Error.Parse, _) -> ()
            | r -> Alcotest.failf "expected parse error, got %s"
                     (Wire.render_response r))
        | Error e -> Alcotest.failf "unparseable: %s" (Error.message e));
    test "a memoized get serves the frame of a fresh render" `Quick (fun () ->
        (* Wire.handle_line renders a view table's rows once and serves
           later gets of the same table from that text; every get must
           still answer what rendering the store's view afresh gives *)
        let store = make_store () in
        let core = Core.create (Wire.serve store) in
        let ids = Hashtbl.create 4 in
        let request session body =
          let id =
            1 + Option.value ~default:0 (Hashtbl.find_opt ids session)
          in
          Hashtbl.replace ids session id;
          ( id,
            Core.handle_payload core ~now:0.0 ~pending:0
              (Envelope.render_req { Envelope.id; session; body }) )
        in
        let send session req = ignore (request session (Wire.render_request req)) in
        let get what session =
          let rid, got = request session "get" in
          let view =
            if session.[0] = 'a' then Store.view_a store
            else Store.view_b store
          in
          let want =
            Envelope.render_resp
              {
                rid;
                body =
                  Wire.render_response
                    (Wire.Resp_view (Store.version store, Rel.Table.rows view));
              }
          in
          check Alcotest.string what want got
        in
        let gets what = List.iter (get what) [ "a1"; "b1"; "b1"; "a1" ] in
        let add_a i =
          send "a1"
            (Wire.Batch
               [ Rel.Row_delta.Add (base_row i "zed" "Engineering" 70_000) ])
        in
        let add_b i =
          send "b1" (Wire.Batch [ Rel.Row_delta.Add (view_row i "yu") ])
        in
        send "a1" (Wire.Hello ("a1", `A));
        send "b1" (Wire.Hello ("b1", `B));
        gets "fresh";
        add_a 960;
        gets "after an A-side commit";
        add_b 961;
        gets "after a B-side commit";
        for i = 0 to 9 do
          if i mod 2 = 0 then add_a (970 + i) else add_b (970 + i);
          get "interleaved" "b1";
          get "interleaved" "a1"
        done;
        send "a1" Wire.Crash;
        gets "after crash";
        send "b1" Wire.Recover;
        gets "after recover";
        check Alcotest.int "recovered to the head" 12 (Store.version store);
        (* incr.hash faults make the store rematerialise its views, so
           the memo sees new tables *)
        let chaos = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        Chaos.with_chaos chaos (fun () ->
            Chaos.at_sites [ "incr.hash" ] (fun () ->
                gets "under incr.hash faults";
                add_b 990;
                gets "under incr.hash faults, after a commit"));
        check Alcotest.bool "incr.hash faults fired" true
          (Chaos.injected chaos > 0);
        gets "after the faults");
  ]

(* ------------------------------------------------------------------ *)
(* addr parsing                                                        *)
(* ------------------------------------------------------------------ *)

let addr_tests =
  [
    test "addr_of_string grammar" `Quick (fun () ->
        (match addr_of_string "unix:/tmp/x.sock" with
        | Ok (Unix.ADDR_UNIX p) -> check Alcotest.string "path" "/tmp/x.sock" p
        | _ -> Alcotest.fail "unix: not parsed");
        (match addr_of_string "127.0.0.1:7000" with
        | Ok (Unix.ADDR_INET (ip, port)) ->
            check Alcotest.string "ip" "127.0.0.1" (Unix.string_of_inet_addr ip);
            check Alcotest.int "port" 7000 port
        | _ -> Alcotest.fail "host:port not parsed");
        (match addr_of_string ":7001" with
        | Ok (Unix.ADDR_INET (ip, 7001)) ->
            check Alcotest.string "loopback" "127.0.0.1"
              (Unix.string_of_inet_addr ip)
        | _ -> Alcotest.fail ":port not parsed");
        List.iter
          (fun s ->
            check Alcotest.bool s true (is_error (addr_of_string s)))
          [ "nonsense"; "host:"; "host:notaport"; "" ];
        match addr_of_string "unix:/tmp/y.sock" with
        | Ok a -> check Alcotest.string "roundtrip" "unix:/tmp/y.sock"
                    (string_of_addr a)
        | Error _ -> Alcotest.fail "roundtrip failed");
  ]

(* ------------------------------------------------------------------ *)
(* Chaos_net: scripted idempotency + the deterministic mini-soak       *)
(* ------------------------------------------------------------------ *)

let chaos_net_tests =
  [
    test "submit retried across a perfect in-process net" `Quick (fun () ->
        (* no chaos installed: the shim must behave as a perfect network *)
        let store = make_store () in
        let net = Chaos_net.create (Wire.serve store) in
        let clock = Chaos_net.clock net in
        match
          Remote_session.bind ~clock (Chaos_net.endpoint net) ~name:"c1"
            ~side:`B
        with
        | Error e -> Alcotest.failf "bind failed: %s" (Error.message e)
        | Ok s -> (
            (match
               Remote_session.submit s
                 (`Batch [ Rel.Row_delta.Add (view_row 940 "nu") ])
             with
            | Ok v -> check Alcotest.int "committed" (Store.version store) v
            | Error e -> Alcotest.failf "submit failed: %s" (Error.message e));
            (match Remote_session.view s with
            | Ok (_, rows) ->
                check Alcotest.bool "row visible" true
                  (List.exists (fun r -> Rel.Row.equal r (view_row 940 "nu")) rows)
            | Error e -> Alcotest.failf "view failed: %s" (Error.message e));
            match Remote_session.ping s with
            | Ok () -> ()
            | Error e -> Alcotest.failf "ping failed: %s" (Error.message e)));
    test "duplicate submit after a half-open connection applies once"
      `Quick (fun () ->
        (* The scripted half-open: responses vanish, so the client's
           submit times out in doubt; the resend of the SAME id after
           reconnecting must be answered from the dedup cache. *)
        let store = make_store () in
        let net = Chaos_net.create (Wire.serve store) in
        let clock = Chaos_net.clock net in
        let chaos = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        let policy =
          {
            (Retry.default ~seed:chaos_seed ()) with
            Retry.max_attempts = 2;
            attempt_timeout = 0.2;
            base_delay = 0.01;
          }
        in
        let s =
          match
            Remote_session.bind ~policy ~clock (Chaos_net.endpoint net)
              ~name:"c1" ~side:`B
          with
          | Ok s -> s
          | Error e -> Alcotest.failf "bind failed: %s" (Error.message e)
        in
        let v0 = Store.version store in
        (* only net.halfopen fires inside this window *)
        let result =
          Chaos.with_chaos chaos (fun () ->
              Chaos.at_sites [ "net.halfopen" ] (fun () ->
                  Remote_session.submit s
                    (`Batch [ Rel.Row_delta.Add (view_row 950 "nu") ])))
        in
        check Alcotest.bool "submit failed transiently" true
          (match result with
          | Error e -> Error.is_transient e
          | Ok _ -> false);
        (* the request DID reach the server: the commit is in doubt *)
        Chaos_net.drain net;
        check Alcotest.int "applied exactly once server-side" (v0 + 1)
          (Store.version store);
        (* settle: resend the same id on a healed net — cached answer *)
        (match Remote_session.resolve s with
        | Ok (Wire.Resp_ok v) -> check Alcotest.int "acked version" (v0 + 1) v
        | Ok r -> Alcotest.failf "unexpected resolve: %s" (Wire.render_response r)
        | Error e -> Alcotest.failf "resolve failed: %s" (Error.message e));
        check Alcotest.int "still exactly once" (v0 + 1) (Store.version store);
        check Alcotest.bool "the duplicate hit the dedup cache" true
          ((Core.stats (Chaos_net.core net)).Core.dedup_hits >= 1));
  ]

(* The mini-soak: a remote-session workload through the chaos net under
   a fixed seed.  Asserts the transport's headline properties exactly:
   every acked commit is in the oplog once (head = acked), and after
   the net heals every session converges to the head. *)
let chaos_soak_case seed =
  test (Printf.sprintf "chaos-net soak converges (seed %d)" seed) `Slow
    (fun () ->
      let store = make_store ~size:32 () in
      let net = Chaos_net.create (Wire.serve store) in
      let clock = Chaos_net.clock net in
      let policy =
        {
          (Retry.default ~seed ()) with
          Retry.max_attempts = 8;
          base_delay = 0.02;
          attempt_timeout = 0.5;
          deadline = 60.0;
        }
      in
      let chaos = Chaos.make ~rate:0.12 ~seed () in
      let sessions =
        List.init 4 (fun i ->
            let side = if i mod 2 = 0 then `A else `B in
            match
              Remote_session.bind ~policy ~clock (Chaos_net.endpoint net)
                ~name:(Printf.sprintf "m%d" (i + 1))
                ~side
            with
            | Ok s -> s
            | Error e -> Alcotest.failf "bind failed: %s" (Error.message e))
      in
      let r = Rel.Workload.rng ~seed in
      let fresh = ref 0 in
      let acked = ref 0 and rejected = ref 0 in
      Chaos.with_chaos chaos (fun () ->
          Chaos.at_sites
            [
              "net.drop";
              "net.dup";
              "net.reorder";
              "net.truncate";
              "net.delay";
              "net.halfopen";
            ]
            (fun () ->
              for _ = 1 to 60 do
                let s =
                  List.nth sessions (Rel.Workload.int r (List.length sessions))
                in
                incr fresh;
                let row =
                  match Remote_session.side s with
                  | `A ->
                      base_row (5000 + !fresh)
                        ("nu" ^ string_of_int !fresh)
                        "Engineering" 50_000
                  | `B ->
                      view_row (5000 + !fresh) ("nu" ^ string_of_int !fresh)
                in
                match Remote_session.submit s (`Batch [ Rel.Row_delta.Add row ]) with
                | Ok _ -> incr acked
                | Error e when Error.is_transient e -> (
                    (* settle the in-doubt commit on a healed net *)
                    Chaos_net.drain net;
                    match
                      Chaos.protected (fun () -> Remote_session.resolve s)
                    with
                    | Ok (Wire.Resp_ok _) -> incr acked
                    | Ok _ -> incr rejected
                    | Error e ->
                        Alcotest.failf "unresolvable in-doubt commit: %s"
                          (Error.message e))
                | Error _ -> incr rejected
              done));
      Chaos_net.drain net;
      (* no lost, no duplicated: one oplog entry per acked commit *)
      check Alcotest.int "head = acked commits" !acked (Store.version store);
      (* convergence on the healed net *)
      Chaos.protected (fun () ->
          List.iter
            (fun s ->
              match Remote_session.pull s with
              | Ok (v, _) ->
                  check Alcotest.int
                    (Remote_session.name s ^ " at head")
                    (Store.version store) v
              | Error e ->
                  Alcotest.failf "%s final pull failed: %s"
                    (Remote_session.name s) (Error.message e))
            sessions);
      (* the sites really fired: a soak that never hurt anything would
         prove nothing *)
      let st = Chaos_net.stats net in
      check Alcotest.bool "faults were injected" true
        (st.Chaos_net.dropped + st.duped + st.truncated + st.delayed
         + st.half_opened + st.reordered
        > 0))

let chaos_soak_tests = [ chaos_soak_case 1; chaos_soak_case chaos_seed ]

(* ------------------------------------------------------------------ *)
(* The real socket server, driven single-threaded via the pump hook    *)
(* ------------------------------------------------------------------ *)

let with_unix_server (f : Server.t -> Unix.sockaddr -> unit) : unit =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "esm-test-%d.sock" (Unix.getpid ()))
  in
  let store = make_store () in
  let srv =
    Server.listen
      ~config:{ Server.default_config with idle_timeout = 5.0 }
      (Unix.ADDR_UNIX path) (Wire.serve store)
  in
  Fun.protect
    ~finally:(fun () ->
      Server.close srv;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f srv (Server.addr srv))

let server_tests =
  [
    test "unix-domain server: bind, submit, pull, bye" `Quick (fun () ->
        with_unix_server (fun srv addr ->
            let pump () = Server.step srv ~timeout:0.0 in
            let ep = Remote_session.tcp_endpoint ~pump addr in
            match Remote_session.bind ep ~name:"u1" ~side:`B with
            | Error e -> Alcotest.failf "bind failed: %s" (Error.message e)
            | Ok s ->
                check Alcotest.int "one connection" 1 (Server.conn_count srv);
                (match
                   Remote_session.submit s
                     (`Batch [ Rel.Row_delta.Add (view_row 960 "nu") ])
                 with
                | Ok v -> check Alcotest.bool "version advanced" true (v > 0)
                | Error e -> Alcotest.failf "submit failed: %s" (Error.message e));
                (match Remote_session.pull s with
                | Ok (v, _) ->
                    check Alcotest.int "pulled to head" v (Remote_session.base s)
                | Error e -> Alcotest.failf "pull failed: %s" (Error.message e));
                (match Remote_session.bye s with
                | Ok () -> ()
                | Error e -> Alcotest.failf "bye failed: %s" (Error.message e));
                Remote_session.close s));
    test "several sessions multiplex over one server" `Quick (fun () ->
        with_unix_server (fun srv addr ->
            let pump () = Server.step srv ~timeout:0.0 in
            let sessions =
              List.init 8 (fun i ->
                  let ep = Remote_session.tcp_endpoint ~pump addr in
                  let side = if i mod 2 = 0 then `A else `B in
                  match
                    Remote_session.bind ep
                      ~name:(Printf.sprintf "mux%d" (i + 1))
                      ~side
                  with
                  | Ok s -> s
                  | Error e -> Alcotest.failf "bind failed: %s" (Error.message e))
            in
            check Alcotest.int "eight connections" 8 (Server.conn_count srv);
            List.iteri
              (fun i s ->
                let row =
                  match Remote_session.side s with
                  | `A -> base_row (6000 + i) "mux" "Engineering" 51_000
                  | `B -> view_row (6000 + i) "mux"
                in
                match Remote_session.submit s (`Batch [ Rel.Row_delta.Add row ]) with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "submit failed: %s" (Error.message e))
              sessions;
            let head =
              Store.version (Wire.store (Core.wire (Server.core srv)))
            in
            check Alcotest.int "all commits landed" 8 head;
            List.iter
              (fun s ->
                match Remote_session.pull s with
                | Ok (v, _) -> check Alcotest.int "converged" head v
                | Error e -> Alcotest.failf "pull failed: %s" (Error.message e))
              sessions;
            List.iter Remote_session.close sessions));
    test "shutdown drains queued responses, then run returns" `Quick
      (fun () ->
        with_unix_server (fun srv addr ->
            let pump () = Server.step srv ~timeout:0.0 in
            let ep = Remote_session.tcp_endpoint ~pump addr in
            (match Remote_session.bind ep ~name:"d1" ~side:`B with
            | Ok s ->
                (match
                   Remote_session.submit s
                     (`Batch [ Rel.Row_delta.Add (view_row 970 "nu") ])
                 with
                | Ok _ -> ()
                | Error e -> Alcotest.failf "submit failed: %s" (Error.message e));
                Remote_session.close s
            | Error e -> Alcotest.failf "bind failed: %s" (Error.message e));
            Server.request_shutdown srv;
            check Alcotest.bool "shutting down" true (Server.shutting_down srv);
            (* single-threaded: run must drain and return promptly *)
            Server.run srv;
            check Alcotest.int "all connections closed" 0
              (Server.conn_count srv)));
  ]

let suite =
  frame_unit_tests @ retry_tests @ classify_tests @ core_tests @ addr_tests
  @ chaos_net_tests @ chaos_soak_tests @ server_tests
  @ Helpers.q
      (frame_property_tests @ envelope_property_tests @ wire_mutation_tests)
