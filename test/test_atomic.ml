(** Chaos suite: the robustness layer end to end.

    - {!Esm_core.Error}: classification of every legacy bx exception
      into the typed taxonomy;
    - {!Esm_core.Atomic}: all-or-nothing sets — any failure (genuine
      shape error or injected fault) rolls the state back to the
      pre-call snapshot, and a later fault-free put on it is unaffected;
    - {!Esm_core.Chaos}: deterministic seed-keyed fault injection;
    - delta-path graceful degradation: under injected faults
      [Rlens.put_delta] and [Mbx.fwd_delta] still agree with the full
      put/fwd oracle by falling back, and a fault while a key index is
      built leaves no partial index behind.

    The chaos seed is taken from the [CHAOS_SEED] environment variable
    when set (the CI chaos job runs the suite under several fixed
    seeds); each property case derives its own instance seed from it so
    one run explores many fault schedules. *)

open Esm_core
module Rel = Esm_relational
module Lens = Esm_lens.Lens
module Mbx = Esm_modelbx.Mbx
module Model = Esm_modelbx.Model

let check = Alcotest.check
let test = Alcotest.test_case

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

(* A fresh per-case chaos instance: same base seed, distinct fault
   schedule per case. *)
let next_case = ref 0

let case_chaos ~rate () =
  incr next_case;
  Chaos.make ~rate ~seed:(chaos_seed + (1000 * !next_case)) ()

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

let kind_of_exn e =
  match Error.of_exn e with Some err -> Some err.Error.kind | None -> None

let error_tests =
  [
    test "legacy exceptions classify into the taxonomy" `Quick (fun () ->
        let cases =
          [
            (Rel.Table.Table_error "of_rows: bad row", Error.Table);
            (Rel.Schema.Schema_error "no column x", Error.Schema);
            (Model.Model_error "duplicate object id 3", Error.Model);
            ( Esm_modelbx.Metamodel.Metamodel_error "unknown class C",
              Error.Metamodel );
            (Lens.Shape_error "select lens: bad view", Error.Shape);
            (Rel.Query.Parse_error "expected ')'", Error.Parse);
          ]
        in
        List.iter
          (fun (exn, kind) ->
            check Alcotest.bool
              (Printexc.to_string exn)
              true
              (kind_of_exn exn = Some kind))
          cases);
    test "non-bx exceptions are not classified" `Quick (fun () ->
        check Alcotest.bool "Failure" true (kind_of_exn (Failure "x") = None);
        check Alcotest.bool "Invalid_argument" true
          (kind_of_exn (Invalid_argument "x") = None));
    test "raising through the rerouted errorf stays catchable" `Quick
      (fun () ->
        (* compatibility: the legacy constructors still match *)
        match Rel.Table.of_rows Rel.Workload.employees_schema
                [ Rel.Row.of_list [ Rel.Value.Int 1 ] ]
        with
        | _ -> Alcotest.fail "expected Table_error"
        | exception Rel.Table.Table_error _ -> ());
    test "of_message recovers the operation name" `Quick (fun () ->
        let e = Error.of_message Error.Table "of_rows: row [1] bad" in
        check Alcotest.string "op" "of_rows" e.Error.op;
        check Alcotest.string "detail" "row [1] bad" e.Error.detail;
        (* prefixes containing spaces are not operation names *)
        let e2 = Error.of_message Error.Shape "select lens: view bad" in
        check Alcotest.string "no op" "" e2.Error.op);
    test "degradable = fault or index" `Quick (fun () ->
        let mk kind = Error.v kind ~op:"t" "d" in
        check Alcotest.bool "fault" true (Error.is_degradable (mk Error.Fault));
        check Alcotest.bool "index" true (Error.is_degradable (mk Error.Index));
        check Alcotest.bool "shape" false
          (Error.is_degradable (mk Error.Shape));
        check Alcotest.bool "table" false
          (Error.is_degradable (mk Error.Table)));
  ]

(* ------------------------------------------------------------------ *)
(* Chaos determinism                                                   *)
(* ------------------------------------------------------------------ *)

let count_injected ~seed ~rate n =
  let c = Chaos.make ~rate ~seed () in
  Chaos.with_chaos c (fun () ->
      for _ = 1 to n do
        try Chaos.point "site" with Error.Bx_error _ -> ()
      done);
  Chaos.injected c

let chaos_tests =
  [
    test "same seed, same fault schedule" `Quick (fun () ->
        let a = count_injected ~seed:chaos_seed ~rate:0.05 500 in
        let b = count_injected ~seed:chaos_seed ~rate:0.05 500 in
        check Alcotest.int "replay" a b;
        check Alcotest.bool "some faults at 5% over 500 visits" true (a > 0));
    test "rate 1.0 always fires, rate 0.0 never" `Quick (fun () ->
        check Alcotest.int "all" 500
          (count_injected ~seed:chaos_seed ~rate:1.0 500);
        check Alcotest.int "none" 0
          (count_injected ~seed:chaos_seed ~rate:0.0 500));
    test "no instance installed: points are no-ops" `Quick (fun () ->
        Chaos.point "site" (* must not raise *));
    test "protected suppresses injection and restores it" `Quick (fun () ->
        let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        Chaos.with_chaos c (fun () ->
            Chaos.protected (fun () -> Chaos.point "site");
            check Alcotest.int "suppressed" 0 (Chaos.injected c);
            match Chaos.point "site" with
            | () -> Alcotest.fail "expected an injected fault"
            | exception Error.Bx_error e ->
                check Alcotest.bool "fault kind" true (Error.is_fault e)));
    test "injected faults carry the site as op" `Quick (fun () ->
        let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        Chaos.with_chaos c (fun () ->
            match Chaos.point "table.key_index" with
            | () -> Alcotest.fail "expected an injected fault"
            | exception Error.Bx_error e ->
                check Alcotest.string "op" "table.key_index" e.Error.op));
  ]

(* ------------------------------------------------------------------ *)
(* Atomic: unit behaviour                                              *)
(* ------------------------------------------------------------------ *)

let account_lens : (int * string, string) Lens.t =
  Lens.v ~name:"snd"
    ~get:(fun (_, s) -> s)
    ~put:(fun (n, _) s ->
      if String.length s > 8 then Lens.shape_errorf "name too long: %s" s;
      (n, s))
    ()

let atomic_tests =
  [
    test "run: success threads the new state" `Quick (fun () ->
        let m s = (s + 1, s * 2) in
        match Atomic.run m 10 with
        | Ok 11, 20 -> ()
        | _ -> Alcotest.fail "expected (Ok 11, 20)");
    test "run: a bx failure rolls back to the snapshot" `Quick (fun () ->
        let m _ = Lens.shape_errorf "boom: mid-update" in
        match Atomic.run m 10 with
        | Error e, 10 ->
            check Alcotest.bool "shape" true (e.Error.kind = Error.Shape)
        | _ -> Alcotest.fail "expected rollback to 10");
    test "run: non-bx exceptions propagate" `Quick (fun () ->
        match Atomic.run (fun _ -> failwith "programming error") 0 with
        | _ -> Alcotest.fail "expected Failure to escape"
        | exception Failure _ -> ());
    test "set_b: in-domain commits, out-of-domain reports" `Quick (fun () ->
        let bx = Concrete.of_lens account_lens in
        (match Atomic.set_b bx "ada" (1, "x") with
        | Ok (1, "ada") -> ()
        | _ -> Alcotest.fail "expected commit");
        match Atomic.set_b bx "far-too-long-name" (1, "x") with
        | Error e -> check Alcotest.bool "shape" true (e.Error.kind = Error.Shape)
        | Ok _ -> Alcotest.fail "expected a shape error");
    test "harden: failing sets become no-ops" `Quick (fun () ->
        let bx = Atomic.harden (Concrete.of_lens account_lens) in
        check Alcotest.bool "name wrapped" true
          (bx.Concrete.name = "atomic(of_lens snd)");
        let s = (1, "x") in
        check Alcotest.bool "commit" true
          (bx.Concrete.set_b "ada" s = (1, "ada"));
        check Alcotest.bool "rollback" true
          (bx.Concrete.set_b "far-too-long-name" s = s));
    test "harden_packed records the Atomic pedigree" `Quick (fun () ->
        let p =
          Atomic.harden_packed
            (Concrete.packed_of_lens ~vwb:true ~init:(1, "x")
               ~eq_state:(fun (a, b) (c, d) -> a = c && String.equal b d)
               account_lens)
        in
        match Concrete.pedigree p with
        | Pedigree.Atomic (Pedigree.Of_lens { vwb = true; _ }) -> ()
        | ped ->
            Alcotest.failf "unexpected pedigree %s" (Pedigree.to_string ped));
    test "exec_command rolls back the whole command" `Quick (fun () ->
        let bx = Concrete.of_lens account_lens in
        let cmd =
          Command.(Seq (Set_b "ok", Set_b "far-too-long-name"))
        in
        match Atomic.exec_command bx cmd (1, "x") with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "expected the command to fail");
  ]

(* ------------------------------------------------------------------ *)
(* Relational chaos properties                                         *)
(* ------------------------------------------------------------------ *)

let schema = Rel.Workload.employees_schema
let key = [ "id" ]

let eng_view_lens : (Rel.Table.t, Rel.Table.t) Lens.t =
  Rel.Query.lens_of_string ~schema ~key
    {|employees | where dept = "Engineering" | select id, name, dept|}

let eng_select_lens : (Rel.Table.t, Rel.Table.t) Lens.t =
  Rel.Query.lens_of_string ~schema ~key
    {|employees | where dept = "Engineering"|}

let gen_source : Rel.Table.t QCheck.arbitrary =
  QCheck.make ~print:Rel.Table.to_string
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* size = int_bound 25 in
      return (Rel.Workload.employees ~seed ~size))

let gen_source_and_view : (Rel.Table.t * Rel.Table.t) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (s, v) ->
      Rel.Table.to_string s ^ "\nview:\n" ^ Rel.Table.to_string v)
    QCheck.Gen.(
      let* sseed = int_bound 10_000 in
      let* ssize = int_bound 25 in
      let* vseed = int_bound 10_000 in
      let* vsize = int_bound 20 in
      return
        ( Rel.Workload.employees ~seed:sseed ~size:ssize,
          Rel.Workload.engineering_view ~seed:vseed ~size:vsize ))

(* (a) through [atomic], an injected fault leaves the state equal to the
   snapshot and the update replayable; without a fault the
   transactional run equals the fault-free oracle. *)
let atomic_rollback_prop (source, view) =
  let bx = Concrete.of_lens eng_view_lens in
  let oracle = Lens.put eng_view_lens source view in
  let c = case_chaos ~rate:0.05 () in
  let result = Chaos.with_chaos c (fun () -> Atomic.set_b bx view source) in
  match result with
  | Ok s' -> Rel.Table.equal s' oracle
  | Error e ->
      Error.is_fault e
      && Rel.Table.equal (Lens.put eng_view_lens source view) oracle

(* The fault-free outcome of a put: [None] when it raises a bx error. *)
let put_outcome lens source view =
  match Lens.put lens source view with
  | t -> Some t
  | exception e when Error.is_bx_exn e -> None

(* Every Shape_error raised under chaos leaves the state equal to the
   pre-call snapshot through [atomic]: a fault-free put on it behaves as
   on a fresh copy of its rows.  The view deliberately violates the
   selection predicate, so the fault-free outcome is itself a shape
   error. *)
let atomic_shape_error_prop (source, bad_view) =
  let bx = Concrete.of_lens eng_select_lens in
  let c = case_chaos ~rate:0.05 () in
  let result =
    Chaos.with_chaos c (fun () -> Atomic.set_b bx bad_view source)
  in
  match result with
  | Ok s' ->
      (* all bad rows happened to be filtered out is impossible here:
         put either raises or commits the union — accept only when the
         view really was in-domain *)
      Rel.Table.equal s'
        (Lens.put eng_select_lens source bad_view)
  | Error e ->
      (e.Error.kind = Error.Shape || Error.is_fault e)
      && Option.equal Rel.Table.equal
           (put_outcome eng_select_lens source bad_view)
           (put_outcome eng_select_lens
              (Rel.Table.of_rows (Rel.Table.schema source)
                 (Rel.Table.rows source))
              bad_view)

(* (b) delta-path fallback: under injected faults, [put_delta] equals
   the full put oracle (computed fault-free). *)
let fresh_source_row i =
  Rel.Row.of_list
    [
      Rel.Value.Int (10_000 + i);
      Rel.Value.Str ("fresh" ^ string_of_int i);
      Rel.Value.Str "Engineering";
      Rel.Value.Int 42_000;
      Rel.Value.Str "fresh@x";
    ]

let fresh_view_row i =
  Rel.Row.of_list
    [
      Rel.Value.Int (10_000 + i);
      Rel.Value.Str ("fresh" ^ string_of_int i);
      Rel.Value.Str "Engineering";
    ]

let gen_deltas ~(make_add : int -> Rel.Row.t) (view : Rel.Table.t) :
    Rel.Row_delta.t list QCheck.Gen.t =
  QCheck.Gen.(
    let rows = Rel.Table.rows view in
    let n = List.length rows in
    let* ops = list_size (int_bound 6) (int_bound 2) in
    return
      (List.mapi
         (fun i -> function
           | 0 -> Rel.Row_delta.Add (make_add i)
           | 1 ->
               if n = 0 then Rel.Row_delta.Add (make_add (900 + i))
               else Rel.Row_delta.Remove (List.nth rows (i mod n))
           | _ -> Rel.Row_delta.Remove (make_add (500 + i)))
         ops))

let gen_delta_case ~make_add (dl : Rel.Rlens.dlens) :
    (Rel.Table.t * Rel.Row_delta.t list) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (t, ds) ->
      Rel.Table.to_string t
      ^ "\ndeltas: "
      ^ String.concat "; " (List.map Rel.Row_delta.to_string ds))
    QCheck.Gen.(
      let* source = QCheck.gen gen_source in
      let* deltas = gen_deltas ~make_add (Lens.get dl.Rel.Rlens.lens source) in
      return (source, deltas))

let delta_fallback_prop (dl : Rel.Rlens.dlens) (source, deltas) =
  let oracle =
    let view = Lens.get dl.Rel.Rlens.lens source in
    Lens.put dl.Rel.Rlens.lens source (Rel.Row_delta.apply_all view deltas)
  in
  let c = case_chaos ~rate:0.25 () in
  let incremental =
    Chaos.with_chaos c (fun () -> Rel.Rlens.put_delta dl source deltas)
  in
  Rel.Table.equal incremental oracle

let dl_where : Rel.Rlens.dlens =
  Rel.Query.dlens_of_string ~schema ~key
    {|employees | where dept = "Engineering"|}

let dl_pipeline : Rel.Rlens.dlens =
  Rel.Query.dlens_of_string ~schema ~key
    {|employees | where dept = "Engineering" | select id, name, dept|}

let relational_chaos_tests =
  [
    QCheck.Test.make ~count:300
      ~name:"atomic set_b under chaos: commit equals oracle, faults roll back"
      gen_source_and_view atomic_rollback_prop;
    QCheck.Test.make ~count:150
      ~name:"shape errors under chaos roll back to a reusable snapshot"
      (QCheck.pair gen_source gen_source)
      atomic_shape_error_prop;
    QCheck.Test.make ~count:150
      ~name:"put_delta under chaos equals the full put oracle (where)"
      (gen_delta_case ~make_add:fresh_source_row dl_where)
      (delta_fallback_prop dl_where);
    QCheck.Test.make ~count:150
      ~name:"put_delta under chaos equals the full put oracle (where|select)"
      (gen_delta_case ~make_add:fresh_view_row dl_pipeline)
      (delta_fallback_prop dl_pipeline);
  ]

(* A fault at [table.key_index] fires before the index is built, so the
   table memoizes nothing: [put_delta] falls back to the full put, and a
   later fault-free [put_delta] on the same source builds a complete
   index.  The project-only pipeline consults the source's own index;
   under [dcompose] the project stage consults the index of the
   memoized intermediate table instead. *)
let dl_project : Rel.Rlens.dlens =
  Rel.Query.dlens_of_string ~schema ~key {|employees | select id, name, dept|}

let key_index_fault_tests =
  List.map
    (fun (label, (dl : Rel.Rlens.dlens)) ->
      test
        ("a table.key_index fault leaves no partial index memoized ("
       ^ label ^ ")")
        `Quick (fun () ->
          let source = Rel.Workload.employees ~seed:5 ~size:12 in
          (* rename an existing view row: its dropped columns must be
             restored from the old row through the key index *)
          let old_row =
            match Rel.Table.rows (Lens.get dl.lens source) with
            | r :: _ -> r
            | [] -> Alcotest.fail "empty view"
          in
          let new_row = Array.copy old_row in
          new_row.(1) <- Rel.Value.Str "renamed";
          let deltas =
            [ Rel.Row_delta.Remove old_row; Rel.Row_delta.Add new_row ]
          in
          let full_put =
            let fresh = Rel.Table.of_rows schema (Rel.Table.rows source) in
            let view = Lens.get dl.lens fresh in
            Lens.put dl.lens fresh (Rel.Row_delta.apply_all view deltas)
          in
          let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
          let before = Chaos.fallbacks_total () in
          let faulted =
            Chaos.with_chaos c (fun () ->
                Chaos.at_sites [ "table.key_index" ] (fun () ->
                    Rel.Rlens.put_delta dl source deltas))
          in
          check Alcotest.bool "fault fired" true (Chaos.injected c > 0);
          check Alcotest.bool "fallback recorded" true
            (Chaos.fallbacks_total () > before);
          check Helpers.table "faulted put_delta = full put" full_put faulted;
          check Helpers.table "fault-free put_delta = full put" full_put
            (Rel.Rlens.put_delta dl source deltas)))
    [ ("select", dl_project); ("where|select", dl_pipeline) ]

(* The same two guarantees on the table itself: a faulted build
   memoizes nothing, so the next build is complete; a completed build is
   memoized, so a later lookup on that key visits no chaos point. *)
let lookup_agrees lookup key t =
  Rel.Table.for_all
    (fun r ->
      match lookup (Rel.Table.key_of_row key r) with
      | Some r' -> Rel.Row.equal r r'
      | None -> false)
    t

let key_index_memo_tests =
  let id_key = [ Rel.Schema.index schema "id" ] in
  let under_faults c f =
    Chaos.with_chaos c (fun () -> Chaos.at_sites [ "table.key_index" ] f)
  in
  [
    test "a faulted key_index build is retried in full" `Quick (fun () ->
        let t = Rel.Workload.employees ~seed:9 ~size:10 in
        let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        (match under_faults c (fun () -> Rel.Table.key_index t id_key) with
        | (_ : Rel.Value.t list -> Rel.Row.t option) ->
            Alcotest.fail "no fault injected"
        | exception e when Error.is_bx_exn e -> ());
        check Alcotest.bool "fault fired" true (Chaos.injected c > 0);
        check Alcotest.bool "rebuilt lookup is complete" true
          (lookup_agrees (Rel.Table.key_index t id_key) id_key t));
    test "a built key_index is memoized past the chaos point" `Quick
      (fun () ->
        let t = Rel.Workload.employees ~seed:9 ~size:10 in
        let _warm = Rel.Table.key_index t id_key in
        let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        let lookup = under_faults c (fun () -> Rel.Table.key_index t id_key) in
        check Alcotest.int "no fault on a memo hit" 0 (Chaos.injected c);
        check Alcotest.bool "memoized lookup is complete" true
          (lookup_agrees lookup id_key t));
  ]

(* The served store's B-side commit runs [put_delta] behind
   [Query.lens_of_string]: a fault injected in the project stage's
   translate must degrade that commit to the full put, not fail it. *)
let served_fallback_tests =
  [
    test "a faulted served Batch_b commit lands on the full put" `Quick
      (fun () ->
        let init = Rel.Workload.employees ~seed:21 ~size:40 in
        let store : Esm_sync.Wire.rstore =
          Esm_sync.Store.of_packed ~name:"employees"
            ~apply_db:Rel.Row_delta.apply_all
            (Concrete.packed_of_lens ~vwb:false ~init
               ~eq_state:Rel.Table.equal eng_view_lens)
        in
        let view = Esm_sync.Store.view_b store in
        let deltas =
          [
            Rel.Row_delta.Remove (List.hd (Rel.Table.rows view));
            Rel.Row_delta.Add (fresh_view_row 7);
          ]
        in
        let oracle =
          Lens.put dl_pipeline.Rel.Rlens.lens init
            (Rel.Row_delta.apply_all view deltas)
        in
        let c = Chaos.make ~rate:1.0 ~seed:chaos_seed () in
        let before = Chaos.fallbacks_total () in
        let result =
          Chaos.with_chaos c (fun () ->
              Chaos.at_sites [ "rlens.dproject.translate" ] (fun () ->
                  Esm_sync.Store.commit ~session:"s" store
                    (Esm_sync.Store.Batch_b deltas)))
        in
        (match result with
        | Ok v -> check Alcotest.int "committed" 1 v
        | Error e -> Alcotest.failf "commit failed: %s" (Error.message e));
        check Alcotest.bool "the fault fired" true (Chaos.injected c > 0);
        check Alcotest.bool "fallback recorded" true
          (Chaos.fallbacks_total () > before);
        check Helpers.table "committed state = full put" oracle
          (Esm_sync.Store.view_a store));
  ]

(* ------------------------------------------------------------------ *)
(* MDE chaos properties                                                *)
(* ------------------------------------------------------------------ *)

(* Reuse the class<->table spec and generators of the modelbx suite
   (same test executable). *)
let spec = Test_modelbx.spec

let mde_atomic_prop (left, other) =
  (* start from a consistent pair, then transactionally replace the
     whole left model with an unrelated one *)
  let right0 = Mbx.fwd spec left other in
  let bx = Concrete.of_algebraic (Mbx.to_algbx spec) in
  let s0 = (left, right0) in
  let a2, b2 = bx.Concrete.set_a other s0 in
  let c = case_chaos ~rate:0.05 () in
  match Chaos.with_chaos c (fun () -> Atomic.set_a bx other s0) with
  | Ok (a1, b1) -> Model.equal a1 a2 && Model.equal b1 b2
  | Error e -> Error.is_fault e

let mde_delta_fallback_prop (old_left, left, right) =
  let oracle = Mbx.fwd spec left right in
  let c = case_chaos ~rate:0.25 () in
  let incremental =
    Chaos.with_chaos c (fun () -> Mbx.fwd_delta spec ~old_left left right)
  in
  Model.equal incremental oracle

let mde_chaos_tests =
  [
    QCheck.Test.make ~count:150
      ~name:"MDE atomic set_a under chaos: commit equals oracle, faults roll \
             back"
      Test_modelbx.gen_pair mde_atomic_prop;
    QCheck.Test.make ~count:150
      ~name:"fwd_delta under chaos equals the full fwd oracle"
      Test_modelbx.gen_delta_case mde_delta_fallback_prop;
  ]

(* ------------------------------------------------------------------ *)

let suite =
  error_tests @ chaos_tests @ atomic_tests
  @ Helpers.q (relational_chaos_tests @ mde_chaos_tests)
  @ key_index_fault_tests @ key_index_memo_tests @ served_fallback_tests
