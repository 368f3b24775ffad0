(* The benchmark harness's own arithmetic: the tail rule, self times,
   open-loop latency accounting, and what counts as a failed request;
   and the git sha its provenance line records. *)

open Esm_perfbench
open Esm_sync

let feq = Alcotest.float 1e-9

(* 1.0, 2.0, ..., n *)
let ramp n = Array.init n (fun i -> float (i + 1))

let test_tail_p99 () =
  match Tail.tail (ramp 2000) with
  | None -> Alcotest.fail "no tail"
  | Some t ->
      Alcotest.check feq "p99 value" 1980. t.value;
      Alcotest.check feq "percentile" 99. t.pct;
      Alcotest.(check int) "beyond" 20 t.beyond

let test_tail_fallback () =
  (* p99 of 500 samples has only 5 beyond: fall back to the highest
     percentile with 10 beyond *)
  match Tail.tail (ramp 500) with
  | None -> Alcotest.fail "no tail"
  | Some t ->
      Alcotest.check feq "value" 490. t.value;
      Alcotest.check feq "percentile" 98. t.pct;
      Alcotest.(check int) "beyond" 10 t.beyond

let test_tail_exact_boundary () =
  (* 1000 samples: p99 is rank 990, exactly 10 beyond *)
  match Tail.tail (ramp 1000) with
  | None -> Alcotest.fail "no tail"
  | Some t ->
      Alcotest.check feq "value" 990. t.value;
      Alcotest.(check int) "beyond" 10 t.beyond

let test_tail_too_few () =
  Alcotest.(check bool) "10 samples have no tail" true (Tail.tail (ramp 10) = None);
  Alcotest.check feq "median" 50. (Tail.quantile (ramp 100) 0.5)

let test_covered () =
  (* overlapping children count once; parts outside the parent do not *)
  Alcotest.check feq "union clipped" 50.
    (Span.covered ~lo:0. ~hi:100. [ (10., 30.); (20., 50.); (90., 120.) ]);
  Alcotest.check feq "self" 50.
    (Span.self_time ~start:0. ~stop:100. [ (10., 30.); (20., 50.); (90., 120.) ]);
  Alcotest.check feq "no children" 7. (Span.self_time ~start:3. ~stop:10. [])

let test_self_times () =
  let sp name parent start stop = { Span.name; trace = 0; parent; start; stop } in
  let t =
    {
      Span.buf =
        [|
          sp "request" (-1) 0. 100.;
          sp "store.commit" 0 10. 60.;
          sp "durable.append" 1 20. 50.;
          sp "wire.render" 0 70. 80.;
          (* a sibling timed beside its parent covers none of it *)
          sp "bx.put" 0 100. 130.;
        |];
      len = 5;
    }
  in
  let self = Span.self_times t in
  Alcotest.(check (array feq)) "self times" [| 40.; 20.; 30.; 10.; 30. |] self

(* One session, a request due every 1000 us, 100 us of service; with
   [stall] the server does nothing between 5000 and 25000 us. *)
let simulate ~stall n =
  let sched = Openloop.create 1 in
  let lat = Array.make n nan in
  let finish t =
    (if stall && t >= 5_000. && t < 25_000. then 25_000. else t) +. 100.
  in
  let inflight = ref None in
  let send (i, due) now = inflight := Some (i, due, finish now) in
  let complete () =
    match !inflight with
    | None -> ()
    | Some (i, due, f) ->
        lat.(i) <- Openloop.latency ~due ~finished:f ~ok:true;
        inflight := None;
        Option.iter (fun r -> send r f) (Openloop.complete sched 0)
  in
  for i = 0 to n - 1 do
    let due = float (i * 1000) in
    while match !inflight with Some (_, _, f) -> f <= due | None -> false do
      complete ()
    done;
    Option.iter (fun r -> send r due) (Openloop.arrive sched 0 (i, due))
  done;
  while !inflight <> None do
    complete ()
  done;
  lat

let test_stall () =
  let calm = simulate ~stall:false 40 in
  Array.iter (Alcotest.check feq "calm latency" 100.) calm;
  let lat = simulate ~stall:true 40 in
  Alcotest.check feq "in flight at the stall" 20_100. lat.(5);
  (* due after the stall began: waits for its session, then is served in
     100 us — yet its latency from the due time is 19.2 ms *)
  Alcotest.check feq "due during the stall" 19_200. lat.(6);
  Alcotest.check feq "the queue drains" 2_100. lat.(25);
  Alcotest.check feq "back to calm" 100. lat.(28);
  Alcotest.(check bool) "failed is infinite" true
    (Openloop.latency ~due:0. ~finished:1. ~ok:false = infinity)

let test_outcomes () =
  let failed kind resp = Result.is_error (Openloop.outcome kind resp) in
  let open Openloop in
  Alcotest.(check bool) "ok commit" false (failed Commit (Some (Wire.Resp_ok 3)));
  Alcotest.(check bool) "ok pull" false (failed Pull (Some (Wire.Resp_update (3, 0))));
  Alcotest.(check bool) "ok view" false (failed View (Some (Wire.Resp_view (3, []))));
  Alcotest.(check bool) "overload" true
    (failed Commit (Some (Wire.Resp_error (Esm_core.Error.Overload, "shed"))));
  Alcotest.(check bool) "error" true
    (failed Pull (Some (Wire.Resp_error (Esm_core.Error.Other, "boom"))));
  Alcotest.(check bool) "conflict" true (failed Commit (Some (Wire.Resp_conflict (2, "x"))));
  Alcotest.(check bool) "timeout" true (failed View None);
  Alcotest.(check bool) "wrong shape" true (failed Commit (Some (Wire.Resp_update (3, 0))));
  Alcotest.(check string) "overload named" "overload"
    (match outcome Commit (Some (Wire.Resp_error (Esm_core.Error.Overload, ""))) with
    | Error m -> m
    | Ok () -> "ok")

(* HEAD's sha from a loose ref, else from packed-refs, else "unknown" *)
let test_git_sha () =
  let dir = Filename.temp_dir "perfbench" "" in
  let write p s = Out_channel.with_open_bin (Filename.concat dir p) (fun oc -> output_string oc s) in
  Sys.mkdir (Filename.concat dir ".git") 0o755;
  Sys.mkdir (Filename.concat dir ".git/refs") 0o755;
  Sys.mkdir (Filename.concat dir ".git/refs/heads") 0o755;
  write ".git/HEAD" "ref: refs/heads/main\n";
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      Bench.rm_rf dir)
    (fun () ->
      Alcotest.(check string) "in neither" "unknown" (Bench.git_sha ());
      write ".git/packed-refs"
        "# pack-refs with: peeled fully-peeled sorted\n\
         1111111111111111111111111111111111111111 refs/heads/dev\n\
         2222222222222222222222222222222222222222 refs/heads/main\n";
      Alcotest.(check string) "packed" "2222222222222222222222222222222222222222" (Bench.git_sha ());
      write ".git/refs/heads/main" "3333333333333333333333333333333333333333\n";
      Alcotest.(check string) "loose wins" "3333333333333333333333333333333333333333"
        (Bench.git_sha ()))

let () =
  Alcotest.run "perfbench"
    [
      ( "tail",
        [
          Alcotest.test_case "p99 with 10 beyond" `Quick test_tail_p99;
          Alcotest.test_case "fallback percentile" `Quick test_tail_fallback;
          Alcotest.test_case "exact boundary" `Quick test_tail_exact_boundary;
          Alcotest.test_case "too few samples" `Quick test_tail_too_few;
        ] );
      ( "spans",
        [
          Alcotest.test_case "covered and self" `Quick test_covered;
          Alcotest.test_case "self times" `Quick test_self_times;
        ] );
      ( "open loop",
        [
          Alcotest.test_case "stall inflates later latency" `Quick test_stall;
          Alcotest.test_case "failures" `Quick test_outcomes;
        ] );
      ("provenance", [ Alcotest.test_case "git sha" `Quick test_git_sha ]);
    ]
