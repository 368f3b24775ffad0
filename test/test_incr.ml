(** Incremental recomputation suite: the caches wired through the hot
    paths (see [docs/PERFORMANCE.md]).

    - {!Esm_relational.Query.to_dlens}: the plan cache is transparent —
      a memo hit carries exactly the pedigree (and inferred law level)
      of a cold compile, for every catalog entry with a plan;
    - {!Esm_relational.Rlens.last_of} and the {!Esm_sync.Store} /
      {!Esm_sync.Session} caches: memoized reads/polls equal the
      unmemoized reference on randomized edit scripts, including the
      net-zero case and across crash/recover;
    - chaos at the store's ["incr.hash"] view-cache gate: a
      fault-injected cache hit degrades to a full recomputation — extra
      misses, never a stale value.

    Like the chaos suite, the base seed comes from [CHAOS_SEED] when
    set, and each property case derives its own instance seed. *)

open Esm_core
open Esm_sync
module Rel = Esm_relational
module Incr = Esm_incr
module Cat = Esm_analysis.Catalog
module Law = Esm_analysis.Law_infer

let check = Alcotest.check
let test = Alcotest.test_case

let chaos_seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( try int_of_string s with _ -> 42)
  | None -> 42

let next_case = ref 0

let case_chaos ~rate () =
  incr next_case;
  Chaos.make ~rate ~seed:(chaos_seed + (1000 * !next_case)) ()

let base_row i name dept =
  Rel.Row.of_list
    [
      Rel.Value.Int i;
      Rel.Value.Str name;
      Rel.Value.Str dept;
      Rel.Value.Int 50_000;
      Rel.Value.Str (name ^ "@example.com");
    ]

(* ------------------------------------------------------------------ *)
(* Plan cache: memoization and law-level parity                        *)
(* ------------------------------------------------------------------ *)

let eng_query_src =
  {|employees | where dept = "Engineering" | select id, name, dept|}

let plan_cache_tests =
  [
    test "to_dlens memoizes: a repeated compile is the same plan" `Quick
      (fun () ->
        Rel.Query.clear_plan_cache ();
        Incr.Stats.reset ();
        let q = Rel.Query.parse eng_query_src in
        let dl1 =
          Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema
            ~key:[ "id" ] q
        in
        let dl2 =
          Rel.Query.to_dlens ~schema:Rel.Workload.employees_schema
            ~key:[ "id" ] q
        in
        check Alcotest.bool "physically shared" true (dl1 == dl2);
        check
          Alcotest.(pair int int)
          "one miss then one hit" (1, 1)
          (Incr.Stats.counts "query.plan"));
    test "law-level parity: every catalog plan's cache hit = cold compile"
      `Quick (fun () ->
        let checked = ref 0 in
        List.iter
          (fun (Cat.Entry sc) ->
            match sc.Cat.plan with
            | None -> ()
            | Some p ->
                incr checked;
                let compile f =
                  f ~schema:p.Cat.plan_schema ~key:p.Cat.plan_key
                    p.Cat.plan_query
                in
                match compile Rel.Query.to_dlens_uncached with
                | cold ->
                    (* warm the cache, then take the guaranteed hit *)
                    ignore (compile Rel.Query.to_dlens);
                    let hot = compile Rel.Query.to_dlens in
                    check Alcotest.string
                      (sc.Cat.label ^ ": inferred level")
                      (Law.to_string (Law.level cold.Rel.Rlens.pedigree))
                      (Law.to_string (Law.level hot.Rel.Rlens.pedigree));
                    check Alcotest.string
                      (sc.Cat.label ^ ": rationale")
                      (Law.explain cold.Rel.Rlens.pedigree)
                      (Law.explain hot.Rel.Rlens.pedigree)
                | exception Rel.Query.Not_updatable _ -> (
                    (* parity of failure: the cached path must reject
                       the very same shapes the cold compiler does *)
                    match compile Rel.Query.to_dlens with
                    | _ ->
                        Alcotest.failf "%s: cached compile accepted a plan %s"
                          sc.Cat.label "the cold compiler rejects"
                    | exception Rel.Query.Not_updatable _ -> ()))
          (Cat.all ());
        check Alcotest.bool "catalog has plans to check" true (!checked > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Rlens.last_of                                                       *)
(* ------------------------------------------------------------------ *)

let eng_dlens () =
  Rel.Query.to_dlens_uncached ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ]
    (Rel.Query.parse eng_query_src)

let rlens_memo_tests =
  [
    test "last_of hits on an unchanged source and matches the oracle"
      `Quick (fun () ->
        let dl = eng_dlens () in
        let get = Rel.Rlens.last_of (Esm_lens.Lens.get dl.Rel.Rlens.lens) in
        let src = Rel.Workload.employees ~seed:3 ~size:20 in
        let v1 = get src in
        let v2 = get src in
        check Alcotest.bool "physically shared" true (v1 == v2);
        check Alcotest.bool "oracle" true
          (Rel.Table.equal v1 (Esm_lens.Lens.get dl.Rel.Rlens.lens src)));
    test "an edited source misses and rematerializes" `Quick (fun () ->
        let dl = eng_dlens () in
        let get = Rel.Rlens.last_of (Esm_lens.Lens.get dl.Rel.Rlens.lens) in
        let src = Rel.Workload.employees ~seed:3 ~size:20 in
        ignore (get src);
        let src' = Rel.Table.insert src (base_row 777 "nova" "Engineering") in
        let v = get src' in
        check Alcotest.bool "fresh view" true
          (Rel.Table.equal v (Esm_lens.Lens.get dl.Rel.Rlens.lens src')));
  ]

(* ------------------------------------------------------------------ *)
(* Store / Session: memoized reads equal the unmemoized reference      *)
(* ------------------------------------------------------------------ *)

let eng_lens =
  Rel.Query.lens_of_string ~schema:Rel.Workload.employees_schema
    ~key:[ "id" ] eng_query_src

let make_store ?(seed = 11) ?(size = 20) () =
  Store.of_packed ~name:"employees" ~snapshot_every:4
    ~apply_da:Rel.Row_delta.apply_all ~apply_db:Rel.Row_delta.apply_all
    (Concrete.packed_of_lens ~vwb:false
       ~init:(Rel.Workload.employees ~seed ~size)
       ~eq_state:Rel.Table.equal eng_lens)

let view_row i name =
  Rel.Row.of_list
    [ Rel.Value.Int i; Rel.Value.Str name; Rel.Value.Str "Engineering" ]

type sop =
  | Add_row of int
  | Remove_existing of int
  | Net_zero of int
  | Poll
  | Crash_recover

let sop_to_string = function
  | Add_row i -> Printf.sprintf "Add_row %d" i
  | Remove_existing i -> Printf.sprintf "Remove_existing %d" i
  | Net_zero i -> Printf.sprintf "Net_zero %d" i
  | Poll -> "Poll"
  | Crash_recover -> "Crash_recover"

let gen_sop =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> Add_row i) (int_bound 1000));
        (3, map (fun i -> Remove_existing i) (int_bound 50));
        (2, map (fun i -> Net_zero i) (int_bound 1000));
        (3, return Poll);
        (1, return Crash_recover);
      ])

let arb_script =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map sop_to_string ops))
    QCheck.Gen.(list_size (int_range 5 25) gen_sop)

(* Run a script against one store, comparing every memoized read with
   its uncached reference after every operation. *)
let memo_store_prop script =
  let store = make_store () in
  let sess = Session.bind store ~name:"watcher" ~side:`B in
  let fresh = ref 100_000 in
  let ok = ref true in
  let views_agree () =
    ok :=
      !ok
      && Rel.Table.equal (Store.view_a store) (Store.view_a_uncached store)
      && Rel.Table.equal (Store.view_b store) (Store.view_b_uncached store)
  in
  List.iter
    (fun op ->
      (match op with
      | Add_row i ->
          incr fresh;
          let r = view_row !fresh (Printf.sprintf "w%d" i) in
          ignore
            (Store.commit ~session:"editor" store
               (Store.Batch_b [ Rel.Row_delta.Add r ]))
      | Remove_existing i -> (
          match Rel.Table.rows (Store.view_b store) with
          | [] -> ()
          | rows ->
              let r = List.nth rows (i mod List.length rows) in
              ignore
                (Store.commit ~session:"editor" store
                   (Store.Batch_b [ Rel.Row_delta.Remove r ])))
      | Net_zero i ->
          incr fresh;
          let r = view_row !fresh (Printf.sprintf "z%d" i) in
          let before = Store.view_b store in
          ignore
            (Store.commit ~session:"editor" store
               (Store.Batch_b Rel.Row_delta.[ Add r; Remove r ]));
          (* the round trip is a net no-op: the view must be unchanged *)
          ok := !ok && Rel.Table.equal before (Store.view_b store)
      | Poll ->
          let expected =
            List.length (Store.entries_since store (Session.base sess))
          in
          let pulled = List.length (Session.pull sess) in
          (* a second poll of the unchanged store must short-circuit *)
          ok := !ok && expected = pulled && Session.pull sess = []
      | Crash_recover ->
          Store.crash store;
          Store.recover store);
      views_agree ())
    script;
  !ok

let store_oracle_props =
  [
    QCheck.Test.make ~count:60
      ~name:"memoized store views and polls equal the uncached reference"
      arb_script memo_store_prop;
  ]

(* ------------------------------------------------------------------ *)
(* Chaos at incr.hash: degrade to recomputation, never staleness       *)
(* ------------------------------------------------------------------ *)

let chaos_tests =
  [
    test "store reads under chaos equal the protected oracle" `Quick
      (fun () ->
        let store = make_store ~seed:17 () in
        let sess = Session.bind store ~name:"watcher" ~side:`B in
        let c = case_chaos ~rate:0.2 () in
        Chaos.with_chaos c (fun () ->
            for i = 1 to 25 do
              (* commits may fail whole under injected faults — that is
                 their transactional contract, reads must stay coherent *)
              ignore
                (Store.commit ~session:"editor" store
                   (Store.Batch_b
                      [ Rel.Row_delta.Add (view_row (200_000 + i) "c") ]));
              ignore (Session.pull sess);
              let vb = Store.view_b store in
              let va = Store.view_a store in
              let ob =
                Chaos.protected (fun () -> Store.view_b_uncached store)
              in
              let oa =
                Chaos.protected (fun () -> Store.view_a_uncached store)
              in
              check Alcotest.bool
                (Printf.sprintf "step %d" i)
                true
                (Rel.Table.equal vb ob && Rel.Table.equal va oa)
            done))
  ]

(* ------------------------------------------------------------------ *)

let suite =
  plan_cache_tests @ rlens_memo_tests @ chaos_tests
  @ Helpers.q store_oracle_props
