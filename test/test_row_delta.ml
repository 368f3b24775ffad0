(** Oracle tests for the incremental relational path: {!Rlens.put_delta}
    against the full [put], {!Dml.delta}/[through_delta] against
    [apply]/[through], {!Row_delta.diff} round trips, and the {!Table}
    index/merge primitives against list-based references. *)

open Esm_relational
open Esm_lens

let check = Alcotest.check
let test = Alcotest.test_case

let schema = Workload.employees_schema
let eng = Pred.(col "dept" = str "Engineering")

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let gen_table : Table.t QCheck.arbitrary =
  QCheck.make ~print:Table.to_string
    QCheck.Gen.(
      let* seed = int_bound 10_000 in
      let* size = int_bound 25 in
      return (Workload.employees ~seed ~size))

let gen_table_pair : (Table.t * Table.t) QCheck.arbitrary =
  QCheck.pair gen_table gen_table

(* A fresh employees row with a large id (absent from generated
   tables), in the given department. *)
let fresh_row ~id ~dept =
  Row.of_list
    [
      Value.Int (10_000 + id);
      Value.Str ("fresh" ^ string_of_int id);
      Value.Str dept;
      Value.Int 42_000;
      Value.Str "fresh@x";
    ]

(* View deltas against [view]: adds of fresh in-domain rows (built by
   [make_add]) and removes of present and absent view rows. *)
let gen_deltas ~(make_add : int -> Row.t) (view : Table.t) :
    Row_delta.t list QCheck.Gen.t =
  QCheck.Gen.(
    let rows = Table.rows view in
    let n = List.length rows in
    let* ops = list_size (int_bound 6) (int_bound 2) in
    let pick_remove i =
      if n = 0 then Row_delta.Add (make_add (900 + i))
      else Row_delta.Remove (List.nth rows (i mod n))
    in
    return
      (List.mapi
         (fun i -> function
           | 0 -> Row_delta.Add (make_add i)
           | 1 -> pick_remove i
           | _ ->
               (* removing an absent row must be a no-op on both paths *)
               Row_delta.Remove (make_add (500 + i)))
         ops))

(* Source table plus deltas against the dlens's view of it. *)
let gen_source_and_deltas ~(make_add : int -> Row.t) (dl : Rlens.dlens) :
    (Table.t * Row_delta.t list) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (t, ds) ->
      Table.to_string t ^ "\ndeltas: "
      ^ String.concat "; " (List.map Row_delta.to_string ds))
    QCheck.Gen.(
      let* source = QCheck.gen gen_table in
      let* deltas = gen_deltas ~make_add (Lens.get dl.Rlens.lens source) in
      return (source, deltas))

(* The oracle: pushing deltas through [put_delta] lands on the same
   table as applying them to the view and running the full [put]. *)
let put_delta_oracle (dl : Rlens.dlens) (source, deltas) =
  let view = Lens.get dl.Rlens.lens source in
  let incremental = Rlens.put_delta dl source deltas in
  let full = Lens.put dl.Rlens.lens source (Row_delta.apply_all view deltas) in
  Table.equal incremental full

(* ------------------------------------------------------------------ *)
(* put_delta vs put                                                    *)
(* ------------------------------------------------------------------ *)

let dl_select = Rlens.dselect eng

let dl_project =
  Rlens.dproject ~keep:[ "id"; "name"; "dept" ] ~key:[ "id" ] schema

let dl_pipeline =
  Query.dlens_of_string ~schema ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept | rename name as who|}

let eng_add i = fresh_row ~id:i ~dept:"Engineering"

let put_delta_tests =
  [
    QCheck.Test.make ~count:250 ~name:"select: put_delta agrees with put"
      (gen_source_and_deltas ~make_add:eng_add dl_select)
      (put_delta_oracle dl_select);
    QCheck.Test.make ~count:250 ~name:"project: put_delta agrees with put"
      (gen_source_and_deltas
         ~make_add:(fun i ->
           Row.project schema [ "id"; "name"; "dept" ] (eng_add i))
         dl_project)
      (put_delta_oracle dl_project);
    QCheck.Test.make ~count:250
      ~name:"where|select|rename pipeline: put_delta agrees with put"
      (gen_source_and_deltas
         ~make_add:(fun i ->
           Row.project schema [ "id"; "name"; "dept" ] (eng_add i))
         dl_pipeline)
      (put_delta_oracle dl_pipeline);
    QCheck.Test.make ~count:250 ~name:"put_delta with no deltas is a no-op"
      gen_table
      (fun t -> Table.equal (Rlens.put_delta dl_pipeline t []) t);
  ]

let put_delta_unit_tests =
  [
    test "select put_delta rejects predicate-violating adds" `Quick (fun () ->
        let t = Workload.employees ~seed:1 ~size:5 in
        match
          Rlens.put_delta dl_select t
            [ Row_delta.Add (fresh_row ~id:1 ~dept:"Sales") ]
        with
        | _ -> Alcotest.fail "expected Shape_error"
        | exception Lens.Shape_error _ -> ());
    test "select put_delta drops removes outside the view" `Quick (fun () ->
        let t = Workload.employees ~seed:1 ~size:8 in
        let sales_row =
          List.find
            (fun r -> not (Pred.eval schema eng r))
            (Table.rows t)
        in
        let t' = Rlens.put_delta dl_select t [ Row_delta.Remove sales_row ] in
        check Helpers.table "source untouched" t t');
  ]

(* ------------------------------------------------------------------ *)
(* Dml.delta and through_delta                                         *)
(* ------------------------------------------------------------------ *)

let gen_stmt : Dml.t QCheck.Gen.t =
  QCheck.Gen.(
    let* k = int_bound 2 in
    match k with
    | 0 ->
        let* i = int_bound 30 in
        return (Dml.Insert (fresh_row ~id:i ~dept:"Engineering"))
    | 1 ->
        let* s = int_bound 120 in
        return (Dml.Delete Pred.(col "salary" < int (40_000 + (s * 500))))
    | _ ->
        let* s = int_bound 120 in
        return
          (Dml.Update
             ( Pred.(col "salary" < int (40_000 + (s * 500))),
               [ ("name", Pred.Lit (Value.Str "renamed")) ] )))

let gen_table_and_stmt : (Table.t * Dml.t) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (t, stmt) ->
      Table.to_string t ^ "\n" ^ Format.asprintf "%a" Dml.pp stmt)
    QCheck.Gen.(
      let* t = QCheck.gen gen_table in
      let* stmt = gen_stmt in
      return (t, stmt))

let dml_delta_tests =
  [
    QCheck.Test.make ~count:250 ~name:"Dml.delta reproduces Dml.apply"
      gen_table_and_stmt
      (fun (t, stmt) ->
        Table.equal (Dml.apply t stmt)
          (Row_delta.apply_all t (Dml.delta t stmt)));
    QCheck.Test.make ~count:250
      ~name:"through_delta agrees with through (select view)"
      gen_table_and_stmt
      (fun (t, stmt) ->
        Table.equal
          (Dml.through_delta dl_select stmt t)
          (Dml.through dl_select.Rlens.lens stmt t));
    QCheck.Test.make ~count:200 ~name:"swap update lands on the right set"
      gen_table
      (fun t ->
        (* permuting a column through delta application must not lose
           rows: removals precede additions *)
        let stmt =
          Dml.Update (Pred.Const true, [ ("salary", Pred.Lit (Value.Int 1)) ])
        in
        Table.equal (Dml.apply t stmt)
          (Row_delta.apply_all t (Dml.delta t stmt)));
  ]

(* ------------------------------------------------------------------ *)
(* Row_delta.diff                                                      *)
(* ------------------------------------------------------------------ *)

let diff_tests =
  [
    QCheck.Test.make ~count:250 ~name:"diff/apply_all round trip"
      gen_table_pair
      (fun (t1, t2) -> Table.equal (Row_delta.apply_all t1 (Row_delta.diff t1 t2)) t2);
    QCheck.Test.make ~count:200 ~name:"diff to self is empty" gen_table
      (fun t -> Row_delta.diff t t = []);
    QCheck.Test.make ~count:200 ~name:"diff size bounds the edit"
      gen_table_pair
      (fun (t1, t2) ->
        List.length (Row_delta.diff t1 t2)
        <= Table.cardinality t1 + Table.cardinality t2);
  ]

(* ------------------------------------------------------------------ *)
(* Table index and merge primitives vs list references                 *)
(* ------------------------------------------------------------------ *)

let rows_of t = Table.rows t
let mem_list rows r = List.exists (Row.equal r) rows

let table_primitive_tests =
  [
    QCheck.Test.make ~count:250 ~name:"mem agrees with a linear scan"
      gen_table_pair
      (fun (t1, t2) ->
        List.for_all
          (fun r -> Table.mem t1 r = mem_list (rows_of t1) r)
          (rows_of t2 @ rows_of t1));
    QCheck.Test.make ~count:250 ~name:"union/inter/diff agree with references"
      gen_table_pair
      (fun (t1, t2) ->
        let reference f =
          Table.of_rows schema
            (List.filter f (rows_of t1 @ rows_of t2))
        in
        Table.equal (Table.union t1 t2) (Table.of_rows schema (rows_of t1 @ rows_of t2))
        && Table.equal (Table.inter t1 t2)
             (reference (fun r -> mem_list (rows_of t1) r && mem_list (rows_of t2) r))
        && Table.equal (Table.diff t1 t2)
             (Table.of_rows schema
                (List.filter (fun r -> not (mem_list (rows_of t2) r)) (rows_of t1))))
    ;
    QCheck.Test.make ~count:250 ~name:"insert/delete vs of_rows"
      gen_table
      (fun t ->
        let r = fresh_row ~id:7 ~dept:"Ops" in
        let inserted = Table.insert t r in
        let deleted = Table.delete inserted r in
        Table.equal inserted (Table.of_rows schema (r :: rows_of t))
        && Table.equal deleted t
        && Table.equal (Table.insert inserted r) inserted
        && Table.equal (Table.delete t r) t);
    QCheck.Test.make ~count:250 ~name:"key_index agrees with a linear scan"
      gen_table
      (fun t ->
        let key = [ Schema.index schema "id" ] in
        let lookup = Table.key_index t key in
        List.for_all
          (fun r ->
            match lookup (Table.key_of_row key r) with
            | Some r' -> Row.equal r r'
            | None -> false)
          (rows_of t)
        && lookup [ Value.Int (-1) ] = None);
    QCheck.Test.make ~count:250 ~name:"key_index memoizes each key apart"
      gen_table
      (fun t ->
        let id = [ Schema.index schema "id" ] in
        let id_name = id @ [ Schema.index schema "name" ] in
        let agrees key =
          let lookup = Table.key_index t key in
          List.for_all
            (fun r -> Option.equal Row.equal (lookup (Table.key_of_row key r)) (Some r))
            (rows_of t)
        in
        agrees id && agrees id_name && agrees id);
    QCheck.Test.make ~count:100
      ~name:"equal tables are equal whatever their row order"
      gen_table
      (fun t ->
        Table.equal t (Table.of_rows schema (List.rev (rows_of t))));
    QCheck.Test.make ~count:100 ~name:"equal agrees with row-list equality"
      gen_table_pair
      (fun (t1, t2) ->
        Table.equal t1 t2 = List.equal Row.equal (rows_of t1) (rows_of t2));
    QCheck.Test.make ~count:100
      ~name:"an edited table's key_index is its own, not its parent's"
      gen_table
      (fun t ->
        let key = [ Schema.index schema "id" ] in
        let t = ref t and ok = ref true in
        for step = 1 to 20 do
          (* warm the parent's index so a carried-over memo would show *)
          let _warm = Table.key_index !t key in
          let gone =
            if step mod 3 = 0 then (
              match rows_of !t with
              | [] -> None
              | rows ->
                  let r = List.nth rows (step mod List.length rows) in
                  t := Table.delete !t r;
                  Some r)
            else (
              t :=
                Table.insert !t
                  (fresh_row ~id:step
                     ~dept:(if step mod 2 = 0 then "Engineering" else "Sales"));
              None)
          in
          let lookup = Table.key_index !t key in
          ok :=
            !ok
            && Table.equal !t (Table.of_rows schema (rows_of !t))
            && Table.for_all
                 (fun r ->
                   Option.equal Row.equal (lookup (Table.key_of_row key r)) (Some r))
                 !t
            && Option.fold ~none:true
                 ~some:(fun r -> lookup (Table.key_of_row key r) = None)
                 gone
        done;
        !ok);
  ]

(* ------------------------------------------------------------------ *)
(* One-pass burst application and prefix projection                    *)
(* ------------------------------------------------------------------ *)

(* A burst over [t]'s rows and a few fresh ones, with repeats, so that
   one row may be added, removed and re-added within the burst. *)
let gen_table_and_burst : (Table.t * Row_delta.t list) QCheck.arbitrary =
  QCheck.make
    ~print:(fun (t, ds) ->
      Table.to_string t ^ "\nburst: "
      ^ String.concat "; " (List.map Row_delta.to_string ds))
    QCheck.Gen.(
      let* t = QCheck.gen gen_table in
      let pool =
        Array.of_list
          (Table.rows t @ List.init 4 (fun i -> fresh_row ~id:i ~dept:"Ops"))
      in
      let* picks =
        list_size (int_bound 12)
          (pair bool (int_bound (Array.length pool - 1)))
      in
      return
        ( t,
          List.map
            (fun (add, i) ->
              if add then Row_delta.Add pool.(i) else Row_delta.Remove pool.(i))
            picks ))

(* Two-column rows whose leading column repeats: a prefix projection
   of them has adjacent duplicates to drop. *)
let pair_schema = Schema.make [ ("a", Value.Tint); ("b", Value.Tint) ]

let gen_pair_table : Table.t QCheck.arbitrary =
  QCheck.make ~print:Table.to_string
    QCheck.Gen.(
      map
        (fun ps ->
          Table.of_lists pair_schema
            (List.map (fun (a, b) -> [ Value.Int a; Value.Int b ]) ps))
        (list_size (int_bound 20) (pair (int_bound 5) (int_bound 5))))

let project_reference cols t =
  Table.of_rows
    (Schema.project (Table.schema t) cols)
    (List.map (Row.project (Table.schema t) cols) (Table.rows t))

let one_pass_tests =
  [
    QCheck.Test.make ~count:300
      ~name:"apply_all in one pass = folding apply"
      gen_table_and_burst
      (fun (t, ds) ->
        let one_pass = Row_delta.apply_all t ds in
        let folded = List.fold_left Row_delta.apply t ds in
        Table.equal one_pass folded
        && (Row_delta.diff t folded <> [] || one_pass == t));
    QCheck.Test.make ~count:200
      ~name:"apply_all checks every added row's conformance"
      gen_table
      (fun t ->
        let bad = Row.of_list [ Value.Int 1 ] in
        let refused ds =
          match Row_delta.apply_all t ds with
          | _ -> false
          | exception Table.Table_error _ -> true
        in
        refused [ Row_delta.Add bad; Row_delta.Remove bad ]
        && refused
             [
               Row_delta.Remove bad;
               Row_delta.Add (fresh_row ~id:1 ~dept:"Ops");
               Row_delta.Add bad;
             ]);
    QCheck.Test.make ~count:300
      ~name:"project on a leading prefix = the sorting reference"
      gen_pair_table
      (fun t ->
        Table.equal (Algebra.project [ "a" ] t) (project_reference [ "a" ] t)
        && Table.equal (Algebra.project [ "b" ] t) (project_reference [ "b" ] t)
        && Table.equal (Algebra.project [ "b"; "a" ] t)
             (project_reference [ "b"; "a" ] t));
  ]

let suite =
  Helpers.q
    (put_delta_tests @ dml_delta_tests @ diff_tests @ table_primitive_tests
   @ one_pass_tests)
  @ put_delta_unit_tests
