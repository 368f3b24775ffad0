(** The served view lens: [Query.lens_of_string] puts by delta
    ({!Esm_relational.Rlens.lens_of_dlens}), so the stores the daemon
    and the load benchmark serve no longer run the full relational put.
    These tests check that lens independently of the store code paths
    that use it:

    - a differential: one seeded stream of commits driven into a store
      on the served lens and a store on the full-put reference (a cold
      compile of the same query, so no memo is shared), compared at
      every version and again after reopening both from disk;
    - the served put against the full put on arbitrary views, both
      sides of the long-edit-script fallback;
    - law-level parity: {!Esm_analysis.Law_infer} and {!Certify} rate a
      store packed on the served lens as on the full put. *)

open Esm_core
module Rel = Esm_relational
module Lens = Esm_lens.Lens
module Store = Esm_sync.Store
module Wire = Esm_sync.Wire

let check = Alcotest.check
let test = Alcotest.test_case
let schema = Rel.Workload.employees_schema
let query = {|employees | where dept = "Engineering" | select id, name, dept|}
let served = Rel.Query.lens_of_string ~schema ~key:[ "id" ] query

let reference =
  (Rel.Query.to_dlens_uncached ~schema ~key:[ "id" ] (Rel.Query.parse query))
    .Rel.Rlens.lens

let schema_b =
  Rel.Table.schema (Lens.get served (Rel.Workload.employees ~seed:1 ~size:1))

let codec = Wire.durable_op_codec ~schema_a:schema ~schema_b

let packed lens init =
  Concrete.packed_of_lens ~vwb:false ~init ~eq_state:Rel.Table.equal lens

let tmp_count = ref 0

let with_tmp_dirs (f : string -> string -> 'a) : 'a =
  incr tmp_count;
  let dir tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "esm-served-%d-%d-%s" (Unix.getpid ()) !tmp_count tag)
  in
  let rm d =
    if Sys.file_exists d then begin
      Array.iter (fun n -> Sys.remove (Filename.concat d n)) (Sys.readdir d);
      Sys.rmdir d
    end
  in
  let a = dir "served" and b = dir "reference" in
  Fun.protect
    ~finally:(fun () -> rm a; rm b)
    (fun () -> f a b)

let base_row id dept =
  Rel.Row.of_list
    [
      Rel.Value.Int id;
      Rel.Value.Str ("a" ^ string_of_int id);
      Rel.Value.Str dept;
      Rel.Value.Int 50_000;
      Rel.Value.Str "a@example.com";
    ]

let view_row ?(dept = "Engineering") id =
  Rel.Row.of_list
    [
      Rel.Value.Int id;
      Rel.Value.Str ("b" ^ string_of_int id);
      Rel.Value.Str dept;
    ]

(* The stream: A-side and B-side delta bursts, with three Set_b's at
   fixed points -- one that replaces a single view row (a two-entry
   script: the delta path), a whole-view one and a half-view one (both
   scripts longer than a sixth of the source: the full-put fallback) --
   and one B-side add that violates the predicate. *)
type op = (Rel.Table.t, Rel.Table.t, Rel.Row_delta.t, Rel.Row_delta.t) Store.op
type step = Commit of op | Refused of op

let stream_step r ~fresh ~step (view_a : Rel.Table.t) (view_b : Rel.Table.t) =
  let next () =
    incr fresh;
    !fresh
  in
  let pick xs = List.nth xs (Random.State.int r (List.length xs)) in
  let burst make_add rows =
    List.init
      (1 + Random.State.int r 3)
      (fun _ ->
        if rows <> [] && Random.State.bool r then
          Rel.Row_delta.Remove (pick rows)
        else Rel.Row_delta.Add (make_add (next ())))
  in
  match step with
  | 20 ->
      Commit
        (Store.Set_b
           (Rel.Table.of_rows schema_b
              (List.init (Rel.Table.cardinality view_b + 2) (fun _ ->
                   view_row (next ())))))
  | 30 ->
      Commit
        (Store.Set_b
           (Rel.Table.of_rows schema_b
              (view_row (next ()) :: List.tl (Rel.Table.rows view_b))))
  | 40 ->
      let rows = Rel.Table.rows view_b in
      let kept = List.filteri (fun i _ -> i mod 2 = 0) rows in
      Commit
        (Store.Set_b
           (Rel.Table.of_rows schema_b
              (kept
              @ List.init
                  (List.length rows - List.length kept)
                  (fun _ -> view_row (next ())))))
  | 50 ->
      Refused
        (Store.Batch_b
           [ Rel.Row_delta.Add (view_row ~dept:"Sales" (next ())) ])
  | _ when Random.State.bool r ->
      Commit
        (Store.Batch_a
           (burst
              (fun id -> base_row id (pick [ "Engineering"; "Sales"; "Ops" ]))
              (Rel.Table.rows view_a)))
  | _ -> Commit (Store.Batch_b (burst view_row (Rel.Table.rows view_b)))

let same_views msg (s1 : Wire.rstore) (s2 : Wire.rstore) =
  check Helpers.table (msg ^ ": A views") (Store.view_a s2) (Store.view_a s1);
  check Helpers.table (msg ^ ": B views") (Store.view_b s2) (Store.view_b s1)

let differential () =
  with_tmp_dirs (fun dir_served dir_reference ->
      let init = Rel.Workload.employees ~seed:5 ~size:48 in
      let make lens dir =
        Store.of_packed ~name:"employees" ~snapshot_every:8
          ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
          ~persist:
            (Store.persist ~fsync:Esm_sync.Durable_log.Fsync_never ~dir codec)
          (packed lens init)
      in
      let s1 : Wire.rstore = make served dir_served
      and s2 : Wire.rstore = make reference dir_reference in
      let r = Random.State.make [| 17 |] and fresh = ref 100_000 in
      for step = 1 to 80 do
        let msg = Printf.sprintf "step %d" step in
        let view_a = Store.view_a s1 and view_b = Store.view_b s1 in
        match stream_step r ~fresh ~step view_a view_b with
        | Commit op ->
            let v1 = Store.commit ~session:"s" s1 op
            and v2 = Store.commit ~session:"s" s2 op in
            (match (v1, v2) with
            | Ok v1, Ok v2 -> check Alcotest.int (msg ^ ": versions") v2 v1
            | Error e, _ | _, Error e ->
                Alcotest.failf "%s: commit failed: %s" msg (Error.message e));
            same_views msg s1 s2
        | Refused op ->
            let before = Store.view_a s1 and v = Store.version s1 in
            List.iter
              (fun (name, s) ->
                match Store.commit ~session:"s" s op with
                | Ok _ ->
                    Alcotest.failf "%s: %s store accepted the add" msg name
                | Error e ->
                    check Alcotest.bool
                      (msg ^ ": " ^ name ^ " shape error")
                      true (e.Error.kind = Error.Shape);
                    check Alcotest.int (msg ^ ": " ^ name ^ " version") v
                      (Store.version s))
              [ ("served", s1); ("reference", s2) ];
            check Helpers.table (msg ^ ": untouched") before (Store.view_a s1);
            same_views msg s1 s2
      done;
      let head = Store.version s1 and last_a = Store.view_a s1 in
      Store.close s1;
      Store.close s2;
      let reopen lens dir =
        match
          Store.reopen ~name:"employees" ~snapshot_every:8
            ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
            ~codec ~dir (packed lens init)
        with
        | Ok s -> s
        | Error e -> Alcotest.failf "reopen: %s" (Error.message e)
      in
      let r1 : Wire.rstore = reopen served dir_served
      and r2 : Wire.rstore = reopen reference dir_reference in
      check Alcotest.int "reopened at head" head (Store.version r1);
      check Alcotest.int "reference reopened at head" head (Store.version r2);
      check Helpers.table "replay reproduces the head" last_a (Store.view_a r1);
      same_views "after reopen" r1 r2;
      Store.close r1;
      Store.close r2)

(* The served put against the full put on arbitrary views: the views
   range from empty to larger than the current one, and half of them
   add at most two rows, so both the delta path and the long-script
   fallback run; a put either lands on the same table on both or is
   refused by both. *)
let gen_source_and_view : (Rel.Table.t * Rel.Table.t) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (s, v) ->
      Rel.Table.to_string s ^ "\nview:\n" ^ Rel.Table.to_string v)
    QCheck.Gen.(
      let* sseed = int_bound 10_000 in
      let* ssize = int_bound 40 in
      let* vseed = int_bound 10_000 in
      let* vsize = oneof [ int_bound 2; int_bound 40 ] in
      let* keep = int_bound 3 in
      let source = Rel.Workload.employees ~seed:sseed ~size:ssize in
      let other = Rel.Workload.engineering_view ~seed:vseed ~size:vsize in
      (* keep some of the current view so that small edits occur too *)
      let current =
        List.filteri
          (fun i _ -> i mod 4 >= keep)
          (Rel.Table.rows (Lens.get served source))
      in
      return
        (source, Rel.Table.union other (Rel.Table.of_rows schema_b current)))

let outcome lens s v =
  match Lens.put lens s v with
  | t -> Ok t
  | exception Lens.Shape_error _ -> Error ()

let put_parity (s, v) =
  match (outcome served s v, outcome reference s v) with
  | Ok a, Ok b -> Rel.Table.equal a b
  | Error (), Error () -> true
  | _ -> false

(* Law-level parity: the statically inferred level and every sampled
   Certify verdict are the same for a store packed on the served lens
   as for one packed on the full put. *)
let law_parity () =
  let init = Rel.Workload.employees ~seed:3 ~size:12 in
  let values_a =
    [ init; Rel.Workload.employees ~seed:8 ~size:9; Rel.Table.empty schema ]
  in
  let values_b =
    [
      Lens.get served init;
      Rel.Workload.engineering_view ~seed:4 ~size:10;
      Rel.Table.empty schema_b;
    ]
  in
  let certify lens =
    Certify.certify ~values_a ~values_b ~eq_a:Rel.Table.equal
      ~eq_b:Rel.Table.equal ~show_a:Rel.Table.to_string
      ~show_b:Rel.Table.to_string (packed lens init)
  in
  let verdicts r =
    List.map (fun v -> (v.Certify.law, v.Certify.holds)) r.Certify.verdicts
  in
  let level = Alcotest.testable Esm_analysis.Law_infer.pp ( = ) in
  check level "inferred level" `Set_bx
    (Esm_analysis.Law_infer.of_packed (packed served init));
  check level "inferred level = full put's"
    (Esm_analysis.Law_infer.of_packed (packed reference init))
    (Esm_analysis.Law_infer.of_packed (packed served init));
  let r_served = certify served and r_reference = certify reference in
  check
    Alcotest.(list (pair string bool))
    "certify verdicts" (verdicts r_reference) (verdicts r_served);
  check Alcotest.bool "well-behaved" true (Certify.well_behaved r_served);
  check Alcotest.bool "observed level = full put's" true
    (Certify.observed_level r_served = Certify.observed_level r_reference)

let suite =
  [
    test "served and full-put stores agree on one stream, and after reopen"
      `Quick differential;
    test "a view of the wrong schema is a shape error, as on the full put"
      `Quick (fun () ->
        let source = Rel.Workload.employees ~seed:2 ~size:10 in
        List.iter
          (fun (name, lens) ->
            match Lens.put lens source source with
            | _ -> Alcotest.failf "%s: put accepted a source-shaped view" name
            | exception Lens.Shape_error _ -> ())
          [ ("served", served); ("reference", reference) ]);
    test "law levels: served lens rates as the full put" `Quick law_parity;
  ]
  @ Helpers.q
      [
        QCheck.Test.make ~count:300
          ~name:"served put = full put on any view (delta path and fallback)"
          gen_source_and_view put_parity;
      ]
