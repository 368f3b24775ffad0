open Esm_core
open Esm_analysis
open Esm_relational

type base = {
  bname : string;
  bschema : Schema.t;
  bkey : string list;
  binit : Table.t;
}

type cview = {
  vname : string;
  query : Query.t;
  base : base;
  view_schema : Schema.t;
  view_key : string list;
  raw_dlens : Rlens.dlens;
  dlens : Rlens.dlens;
  inferred : Law_infer.level;
  requested : Law_infer.level;
  mode : Ast.mode;
  downgraded : bool;
  lint : Lint.diagnostic list;
}

type item =
  | I_view of cview
  | I_get of cview
  | I_put of cview * Row.t list
  | I_delta of cview * Row_delta.t list

type compiled = { views : cview list; items : item list }

exception Reject of Error.t

let rejectf fmt =
  Format.kasprintf
    (fun m -> raise (Reject (Error.v Error.Other ~op:"esmql.compile" m)))
    fmt

(* The schema and key the single-base pipeline produces, stage by stage
   (set operations and joins never reach here: [Query.to_dlens] has
   already rejected them, and [compile] checks the base count first). *)
let rec replay (schema, key) (q : Query.t) =
  match q with
  | Query.Base _ -> (schema, key)
  | Query.Where (_, q') -> replay (schema, key) q'
  | Query.Project (cols, q') ->
      let s, k = replay (schema, key) q' in
      (Schema.project s cols, k)
  | Query.Rename (m, q') ->
      let s, k = replay (schema, key) q' in
      ( Schema.rename s m,
        List.map (fun c -> match List.assoc_opt c m with Some c' -> c' | None -> c) k )
  | Query.Union _ | Query.Diff _ | Query.Join _ | Query.Product _ ->
      rejectf "set operations are not updatable views"

let validated_dlens (d : Rlens.dlens) : Rlens.dlens =
  let l = d.Rlens.lens in
  let translate src ds =
    let view = Esm_lens.Lens.get l src in
    let view' = Row_delta.apply_all view ds in
    let src' = Esm_lens.Lens.put l src view' in
    let got = Esm_lens.Lens.get l src' in
    if not (Table.equal got view') then
      Error.raise_error Error.Other ~op:"esmql.validate"
        "runtime validation failed for %s: put/get round-trip diverged"
        (Esm_lens.Lens.name l);
    Row_delta.diff src src'
  in
  { d with Rlens.translate }

let compile_view ~mode ~requested (bases : base list) vname q : cview =
  let base_names = List.sort_uniq String.compare (Query.bases q) in
  let base =
    match base_names with
    | [ b ] -> (
        match List.find_opt (fun bb -> bb.bname = b) bases with
        | Some bb -> bb
        | None ->
            rejectf "view %s: unknown base table %s (have: %s)" vname b
              (String.concat ", " (List.map (fun bb -> bb.bname) bases)))
    | [] -> rejectf "view %s: no base table" vname
    | bs ->
        rejectf "view %s: a view draws from one base table, got %d (%s)" vname
          (List.length bs) (String.concat ", " bs)
  in
  let schema = base.bschema and key = base.bkey in
  let lint = Lint.lint_plan ~schema ~key q in
  if Lint.has_errors lint then
    rejectf "view %s: plan rejected:@.%a" vname
      (Format.pp_print_list ~pp_sep:Format.pp_print_newline Lint.pp_diagnostic)
      (List.filter Lint.is_error lint);
  let raw_dlens =
    try Query.to_dlens ~schema ~key q
    with Query.Not_updatable m -> rejectf "view %s: not updatable: %s" vname m
  in
  let view_schema, view_key = replay (schema, key) q in
  let packed = Rlens.packed_of_dlens ~init:base.binit raw_dlens in
  let inferred = Law_infer.of_packed packed in
  let gate = Lint.check_level ~requested ~inferred ~subject:vname in
  let downgraded =
    match gate with
    | None -> false
    | Some diag -> (
        match mode with
        | Ast.Strict ->
            rejectf
              "view %s: %s (strict mode rejects; rerun under 'mode \
               fallback;' for runtime-validated execution)"
              vname diag.Lint.message
        | Ast.Fallback -> true)
  in
  let dlens = if downgraded then validated_dlens raw_dlens else raw_dlens in
  {
    vname;
    query = q;
    base;
    view_schema;
    view_key;
    raw_dlens;
    dlens;
    inferred;
    requested;
    mode;
    downgraded;
    lint;
  }

let check_rows cv what (rs : Row.t list) =
  List.iter
    (fun r ->
      if not (Row.conforms cv.view_schema r) then
        rejectf "%s %s: row %s does not conform to the view schema (%s)" what
          cv.vname (Row.to_string r)
          (Schema.to_string cv.view_schema))
    rs

let compile ?(mode = Ast.Strict) ~(bases : base list) (script : Ast.script) :
    (compiled, Error.t) result =
  try
    let cur_mode = ref mode in
    let pending : Law_infer.level option ref = ref None in
    let views = ref [] in
    let find_view what v =
      match List.find_opt (fun cv -> cv.vname = v) !views with
      | Some cv -> cv
      | None -> rejectf "%s %s: no such view defined" what v
    in
    let items =
      List.filter_map
        (fun (s : Ast.stmt) ->
          match s with
          | Ast.Mode m ->
              cur_mode := m;
              None
          | Ast.Expect l ->
              pending := Some l;
              None
          | Ast.View (v, q) ->
              if List.exists (fun cv -> cv.vname = v) !views then
                rejectf "view %s: already defined" v;
              let requested = Option.value !pending ~default:`Set_bx in
              pending := None;
              let cv = compile_view ~mode:!cur_mode ~requested bases v q in
              views := cv :: !views;
              Some (I_view cv)
          | Ast.Get v -> Some (I_get (find_view "get" v))
          | Ast.Put (v, rs) ->
              let cv = find_view "put" v in
              check_rows cv "put" rs;
              Some (I_put (cv, rs))
          | Ast.Delta (v, ds) ->
              let cv = find_view "delta" v in
              check_rows cv "delta"
                (List.map
                   (function Row_delta.Add r | Row_delta.Remove r -> r)
                   ds);
              Some (I_delta (cv, ds)))
        script
    in
    Ok { views = List.rev !views; items }
  with
  | Reject e -> Error e
  | Error.Bx_error e -> Error e
  | Schema.Schema_error m -> Error (Error.v Error.Schema ~op:"esmql.compile" m)
  | Table.Table_error m -> Error (Error.v Error.Table ~op:"esmql.compile" m)
