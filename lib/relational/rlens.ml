(** Relational lenses: asymmetric lenses between tables, in the spirit of
    Bohannon, Pierce & Vaughan's "Relational lenses" (PODS 2006).  These
    are the database instantiation of the lenses the paper feeds into its
    Lemma 4: composing them with {!Esm_core.Of_lens} gives an entangled
    state monad whose A-side is the stored table and whose B-side is the
    view.

    Well-behavedness caveats (as in the relational-lenses literature):

    - {!select} is very well-behaved provided the updated view only
      contains rows satisfying the predicate ([put] raises
      {!Esm_lens.Lens.Shape_error} otherwise).
    - {!project} is well-behaved on sources satisfying the functional
      dependency [key -> dropped columns]; [put] recovers dropped values
      from the old source by key, falling back to per-type defaults.
    - {!rename} is an isomorphism, hence very well-behaved.

    Alongside the whole-view lenses, the {!dlens} layer propagates
    {!Row_delta} edit scripts: [put_delta] translates view deltas to
    source deltas instead of rebuilding the source, which is the
    incremental restoration path the benchmarks measure.

    The property suites in [test/test_rlens.ml] generate sources and views
    inside those domains; [test/test_row_delta.ml] checks [put_delta]
    against the full [put] oracle. *)

open Esm_lens

(* ------------------------------------------------------------------ *)
(* Pedigrees for the relational combinators                            *)
(* ------------------------------------------------------------------ *)

(** The {!Esm_core.Pedigree} of a select lens over [p].  [key] (when
    known) enables the key-preservation analysis: a predicate reading
    only key columns decides view membership by the key alone, which is
    the condition for the select lens to keep (PutPut). *)
let select_pedigree ?key (p : Pred.t) : Esm_core.Pedigree.t =
  Algebra.select_pedigree ?key p

(** The pedigree of a project lens: lossless iff every source column is
    kept (a column-order iso). *)
let project_pedigree ~(keep : string list) ~(key : string list)
    (source_schema : Schema.t) : Esm_core.Pedigree.t =
  Algebra.project_pedigree ~keep ~key source_schema

let rename_pedigree = Algebra.rename_pedigree

(** The pedigree of a join lens.  [right_fds] are functional dependencies
    declared (or {!Fd.not_refuted_by}-checked) on the right table; the
    join's undo law is claimed only when some declared FD proves the
    shared columns determine the rest of the right row — i.e. the shared
    columns key the right table, so a view key picks exactly one right
    partner.  (As with the [join] put itself, the claim additionally
    assumes no dangling left rows.) *)
let join_pedigree ?right_fds ~(left : Schema.t) ~(right : Schema.t) () :
    Esm_core.Pedigree.t =
  Algebra.join_pedigree ?right_fds ~left ~right ()

(** [select p]: the view is the subtable satisfying [p].  [put] keeps the
    non-matching source rows and replaces the matching ones by the view. *)
let select (p : Pred.t) : (Table.t, Table.t) Lens.t =
  Lens.v
    ~name:(Format.asprintf "select %a" Pred.pp p)
    ~get:(Algebra.select p)
    ~put:(fun source view ->
      Esm_core.Chaos.point "rlens.select.put";
      let schema = Table.schema source in
      if not (Schema.equal schema (Table.schema view)) then
        Lens.shape_errorf "select lens: view schema %s differs from source %s"
          (Schema.to_string (Table.schema view))
          (Schema.to_string schema);
      let matches = Pred.compile schema p in
      Table.iter
        (fun r ->
          if not (matches r) then
            Lens.shape_errorf
              "select lens: view row %s violates the selection predicate"
              (Row.to_string r))
        view;
      let untouched = Table.filter (fun r -> not (matches r)) source in
      Table.union untouched view)
    ()

(* ------------------------------------------------------------------ *)
(* Projection plans (shared by the full put and the delta path)        *)
(* ------------------------------------------------------------------ *)

(* Per-source-column recipe: copy from the view row, or recover a
   dropped value from the old source row with the same key (falling back
   to the per-type default). *)
type projection_plan = {
  view_schema : Schema.t;
  column_plan : [ `Kept of int | `Dropped of int * Value.t ] array;
  view_key_indices : int list;
  source_key_indices : int list;
  keeps_prefix : bool;
      (** [keep] is the source's leading column prefix, in order:
          restoring sorted view rows then yields sorted source rows *)
}

let projection_plan ~(keep : string list) ~(key : string list)
    (source_schema : Schema.t) : projection_plan =
  if not (List.for_all (fun k -> List.mem k keep) key) then
    Schema.errorf "project lens: key columns must be kept";
  let view_schema = Schema.project source_schema keep in
  let column_plan =
    Array.of_list
      (List.map
         (fun (n, ty) ->
           match List.find_index (fun k -> String.equal k n) keep with
           | Some view_index -> `Kept view_index
           | None ->
               `Dropped (Schema.index source_schema n, Value.default_of_type ty))
         (Schema.columns source_schema))
  in
  {
    view_schema;
    column_plan;
    view_key_indices = List.map (Schema.index view_schema) key;
    source_key_indices = List.map (Schema.index source_schema) key;
    keeps_prefix =
      Algebra.keeps_prefix (Algebra.projection_indices source_schema keep);
  }

(* Rebuild a source row from a view row, recovering dropped columns from
   the source's memoized key index. *)
let restore_row (plan : projection_plan)
    (old_by_key : Value.t list -> Row.t option) (view_row : Row.t) : Row.t =
  let recovered =
    old_by_key (Table.key_of_row plan.view_key_indices view_row)
  in
  Array.map
    (function
      | `Kept j -> view_row.(j)
      | `Dropped (i, default) -> (
          match recovered with
          | Some old_row -> old_row.(i)
          | None -> default))
    plan.column_plan

let check_view_schema what expected view =
  if not (Schema.equal (Table.schema view) expected) then
    Lens.shape_errorf "%s lens: view schema %s does not match %s" what
      (Schema.to_string (Table.schema view))
      (Schema.to_string expected)

(** [project ~keep ~key source_schema]: the view keeps columns [keep] (in
    order); [key ⊆ keep] identifies rows.  [put] recovers each dropped
    column of a view row from the source row with the same key, or from
    the per-type default when the key is new. *)
let project ~(keep : string list) ~(key : string list)
    (source_schema : Schema.t) : (Table.t, Table.t) Lens.t =
  let plan = projection_plan ~keep ~key source_schema in
  let put source view =
    Esm_core.Chaos.point "rlens.project.put";
    check_view_schema "project" plan.view_schema view;
    (* The memoized key index on the source: built once per (table, key)
       pair, shared across repeated puts against the same source. *)
    let old_by_key = Table.key_index source plan.source_key_indices in
    (* Restored rows conform by construction (values copied from
       conforming rows or per-type defaults); only renormalise. *)
    Table.of_sorted_array_unchecked source_schema
      (Algebra.normalise_rows ~sorted:plan.keeps_prefix
         (Array.map (restore_row plan old_by_key) (Table.row_array view)))
  in
  Lens.v
    ~name:(Printf.sprintf "project [%s]" (String.concat "," keep))
    ~get:(Algebra.project keep)
    ~put ()

(** [rename mapping]: bijective column renaming; an iso lens. *)
let rename (mapping : (string * string) list) : (Table.t, Table.t) Lens.t =
  let inverse = List.map (fun (a, b) -> (b, a)) mapping in
  Lens.v
    ~name:
      (Printf.sprintf "rename [%s]"
         (String.concat ","
            (List.map (fun (a, b) -> a ^ ">" ^ b) mapping)))
    ~get:(Algebra.rename mapping)
    ~put:(fun _ view -> Algebra.rename inverse view)
    ()

(** [drop column ~key schema]: drop a single column (projection keeping
    the rest). *)
let drop (column : string) ~(key : string list) (schema : Schema.t) :
    (Table.t, Table.t) Lens.t =
  let keep =
    List.filter
      (fun n -> not (String.equal n column))
      (Schema.column_names schema)
  in
  Lens.with_name (Printf.sprintf "drop %s" column)
    (project ~keep ~key schema)

(** [join ~left ~right]: the view is the natural join of two stored
    tables; the source is the pair.  Put policy (a simplified
    Bohannon-Pierce "join template"):

    - the left table is replaced by the view's projection onto the left
      schema;
    - the right table keeps its rows for keys absent from the view and
      takes the view's projection onto the right schema for keys present.

    Well-behaved on sources where (i) the shared columns are a key of the
    right table and (ii) every left row joins (no dangling left rows) —
    the standard functional-dependency conditions for relational join
    lenses.  [put] raises {!Esm_lens.Lens.Shape_error} if the view schema
    does not match the join schema. *)
(* The computed pieces of a natural join, shared by the whole-view lens
   and the delta translation. *)
type join_plan = {
  join_schema : Schema.t;
  join_key_indices : int list;  (** shared columns in the view *)
  left_key_indices : int list;  (** shared columns in the left table *)
  right_key_indices : int list;  (** shared columns in the right table *)
  left_of_view : int array;  (** view positions of the left columns *)
  right_of_view : int array;  (** view positions of the right columns *)
  right_rest_of_right : int array;
      (** right positions of the non-shared right columns *)
}

let join_plan ~(left : Schema.t) ~(right : Schema.t) : join_plan =
  let shared = Schema.shared left right in
  let right_rest =
    List.filter
      (fun n -> not (List.mem n shared))
      (Schema.column_names right)
  in
  let join_schema =
    Schema.make
      (Schema.columns left
      @ List.map (fun n -> (n, Schema.ty_of right n)) right_rest)
  in
  {
    join_schema;
    join_key_indices = List.map (Schema.index join_schema) shared;
    left_key_indices = List.map (Schema.index left) shared;
    right_key_indices = List.map (Schema.index right) shared;
    left_of_view =
      Array.of_list
        (List.map (Schema.index join_schema) (Schema.column_names left));
    right_of_view =
      Array.of_list
        (List.map (Schema.index join_schema) (Schema.column_names right));
    right_rest_of_right =
      Array.of_list (List.map (Schema.index right) right_rest);
  }

let join ~(left : Schema.t) ~(right : Schema.t) :
    (Table.t * Table.t, Table.t) Lens.t =
  let plan = join_plan ~left ~right in
  let join_schema = plan.join_schema in
  let join_key_indices = plan.join_key_indices in
  let right_key_indices = plan.right_key_indices in
  let left_of_view = plan.left_of_view in
  let right_of_view = plan.right_of_view in
  let reproject indices rows =
    List.sort_uniq Row.compare
      (Array.to_list
         (Array.map (fun r -> Array.map (fun i -> r.(i)) indices) rows))
  in
  let put (_l, r) view =
    check_view_schema "join" join_schema view;
    let view_rows = Table.row_array view in
    let new_left =
      Table.of_sorted_array_unchecked left
        (Array.of_list (reproject left_of_view view_rows))
    in
    let view_keys = Hashtbl.create (max 16 (Array.length view_rows)) in
    Array.iter
      (fun row ->
        Hashtbl.replace view_keys (Table.key_of_row join_key_indices row) ())
      view_rows;
    let untouched_right =
      Table.filter
        (fun row ->
          not (Hashtbl.mem view_keys (Table.key_of_row right_key_indices row)))
        r
    in
    let new_right =
      Table.union untouched_right
        (Table.of_sorted_array_unchecked right
           (Array.of_list (reproject right_of_view view_rows)))
    in
    (new_left, new_right)
  in
  Lens.v ~name:"join"
    ~get:(fun (l, r) -> Algebra.join l r)
    ~put ()

(* ------------------------------------------------------------------ *)
(* Delta propagation                                                   *)
(* ------------------------------------------------------------------ *)

(** A delta-capable lens: the whole-view lens plus a translation of view
    deltas into source deltas.  [translate source view_deltas] assumes
    the deltas describe an edit of [get lens source] (the current view);
    under that precondition [put_delta] agrees with running the full
    [put] on the edited view — the oracle property checked in
    [test/test_row_delta.ml]. *)
type dlens = {
  lens : (Table.t, Table.t) Lens.t;
  translate : Table.t -> Row_delta.t list -> Row_delta.t list;
  pedigree : Esm_core.Pedigree.t;
      (** How this pipeline was constructed, combinator by combinator —
          the input to {!Esm_analysis.Law_infer}'s per-combinator
          lemmas. *)
}

let put_delta (l : dlens) (source : Table.t) (deltas : Row_delta.t list) :
    Table.t =
  match Row_delta.apply_all source (l.translate source deltas) with
  | result -> result
  | exception e when Esm_core.Error.degradable_exn e ->
      (* Graceful degradation: an injected fault means the incremental
         path did not finish — compute the answer with the full put
         oracle (under [protected] so the recovery path cannot itself be
         faulted).  Genuine shape errors are NOT caught: they mean the
         deltas are invalid and must surface to the caller. *)
      Esm_core.Chaos.note_fallback "rlens.put_delta";
      Esm_core.Chaos.protected (fun () ->
          let view = Lens.get l.lens source in
          Lens.put l.lens source (Row_delta.apply_all view deltas))

(** The identity dlens (a pipeline's base table). *)
let did : dlens =
  {
    lens = Lens.with_name "base" Lens.id;
    translate = (fun _ ds -> ds);
    pedigree = Esm_core.Pedigree.Identity;
  }

(** Delta select: additions must satisfy the predicate (as in the full
    [put]); removals of rows outside the view are dropped — the full
    [put] would not see them either, since they cannot occur in the
    view.  [key] (when known) feeds {!select_pedigree}'s
    key-preservation analysis. *)
let dselect ?key (p : Pred.t) : dlens =
  let translate source deltas =
    Esm_core.Chaos.point "rlens.dselect.translate";
    let matches = Pred.compile (Table.schema source) p in
    List.filter_map
      (function
        | Row_delta.Add r ->
            if not (matches r) then
              Lens.shape_errorf
                "select lens: delta row %s violates the selection predicate"
                (Row.to_string r);
            Some (Row_delta.Add r)
        | Row_delta.Remove r ->
            if matches r then Some (Row_delta.Remove r) else None)
      deltas
  in
  {
    lens = select p;
    translate;
    pedigree = select_pedigree ?key p;
  }

(** Delta project: each view delta restores to a source delta through the
    source's memoized key index — an added view row recovers its dropped
    columns from the old row with the same key (defaults for fresh
    keys); a removed view row removes its restored source row. *)
let dproject ~(keep : string list) ~(key : string list)
    (source_schema : Schema.t) : dlens =
  let plan = projection_plan ~keep ~key source_schema in
  let translate source deltas =
    Esm_core.Chaos.point "rlens.dproject.translate";
    let old_by_key = Table.key_index source plan.source_key_indices in
    let restore = restore_row plan old_by_key in
    List.map
      (function
        | Row_delta.Add v ->
            if not (Row.conforms plan.view_schema v) then
              Lens.shape_errorf
                "project lens: delta row %s does not conform to the view \
                 schema %s"
                (Row.to_string v)
                (Schema.to_string plan.view_schema);
            Row_delta.Add (restore v)
        | Row_delta.Remove v -> Row_delta.Remove (restore v))
      deltas
  in
  {
    lens = project ~keep ~key source_schema;
    translate;
    pedigree = project_pedigree ~keep ~key source_schema;
  }

(** Delta rename: rows are untouched by renaming, so deltas pass through
    unchanged. *)
let drename (mapping : (string * string) list) : dlens =
  {
    lens = rename mapping;
    translate = (fun _ ds -> ds);
    pedigree = rename_pedigree mapping;
  }

(* [f] memoized for its last argument on the physical witness: tables
   are immutable, so a hit is exact and costs one comparison, and a miss
   costs what calling [f] costs. *)
let last_of (f : Table.t -> Table.t) : Table.t -> Table.t =
  let last = ref None in
  fun source ->
    match !last with
    | Some (src, v) when src == source -> v
    | _ ->
        let v = f source in
        last := Some (source, v);
        v

(** [dcompose outer inner]: [outer] is closer to the source (same
    orientation as {!Esm_lens.Lens.compose}).  View deltas are first
    translated through [inner] against the intermediate view, then
    through [outer] against the source. *)
let dcompose (outer : dlens) (inner : dlens) : dlens =
  (* [get] and [translate] read the intermediate view through a memo, so
     a translate right after a get on the same source reuses the view and
     the key index built over it.  The full [put] recomputes it, as
     {!Esm_lens.Lens.compose} does, so {!put_delta}'s fallback oracle is
     the plain composition's put and shares no state with the memo. *)
  let mid = last_of (Lens.get outer.lens) in
  {
    lens =
      Lens.v
        ~name:(Lens.name outer.lens ^ " ; " ^ Lens.name inner.lens)
        ~get:(fun source -> Lens.get inner.lens (mid source))
        ~put:(fun source view ->
          Lens.put outer.lens source
            (Lens.put inner.lens (Lens.get outer.lens source) view))
        ();
    translate =
      (fun source vds ->
        outer.translate source (inner.translate (mid source) vds));
    pedigree =
      (* composing with the identity base adds nothing to the
         provenance, so keep pipelines flat *)
      (match (outer.pedigree, inner.pedigree) with
      | Esm_core.Pedigree.Identity, p | p, Esm_core.Pedigree.Identity -> p
      | po, pi -> Esm_core.Pedigree.Dcompose (po, pi));
  }

(** The pipeline as a plain lens that puts by delta: [get] is the
    pipeline's get, memoized for the last source on its physical witness
    (each lens value has its own memo); [put] diffs the new view against
    the current one and runs {!put_delta}.  The full [dl.lens] put runs
    instead when the view's schema differs (keeping its shape error) or
    when the edit script is long for the source, where rebuilding is
    cheaper than editing row by row. *)
let lens_of_dlens (dl : dlens) : (Table.t, Table.t) Lens.t =
  let get = last_of (Lens.get dl.lens) in
  let put source view =
    let cur = get source in
    if not (Schema.equal (Table.schema cur) (Table.schema view)) then
      Lens.put dl.lens source view
    else
      let deltas = Row_delta.diff cur view in
      (* One script entry costs the delta path about what five or six
         source rows cost the full put (docs/PERFORMANCE.md, "When the
         full put still runs"), so a script longer than a sixth of the
         source is rebuilt. *)
      if 6 * List.length deltas > Table.cardinality source then
        Lens.put dl.lens source view
      else put_delta dl source deltas
  in
  Lens.v ~name:(Lens.name dl.lens) ~get ~put ()

(** Pack a delta pipeline as a pedigreed entangled state monad: the A
    side is the source table, the B side the view.  With [delta] (the
    default), the bx runs {!lens_of_dlens}, so [set_b] executes the
    incremental path, and the pedigree records
    {!Esm_core.Pedigree.Delta_of} over the combinator pipeline; with
    [~delta:false] the plain full-put lens is packed under the pipeline
    pedigree. *)
let packed_of_dlens ?(delta = true) ~(init : Table.t) (dl : dlens) :
    (Table.t, Table.t) Esm_core.Concrete.packed =
  Esm_core.Concrete.pack_pedigreed
    ~pedigree:
      (if delta then Esm_core.Pedigree.Delta_of dl.pedigree else dl.pedigree)
    ~bx:
      (Esm_core.Concrete.of_lens
         (if delta then lens_of_dlens dl else dl.lens))
    ~init ~eq_state:Table.equal

(* ------------------------------------------------------------------ *)
(* Delta join                                                          *)
(* ------------------------------------------------------------------ *)

(** A delta-capable join: the whole-view {!join} lens plus a translation
    of view deltas into (left, right) source delta pairs.  The source is
    a table {e pair}, so the join does not fit the single-table {!dlens}
    shape. *)
type djoin = {
  jlens : (Table.t * Table.t, Table.t) Esm_lens.Lens.t;
  jtranslate :
    Table.t * Table.t ->
    Row_delta.t list ->
    Row_delta.t list * Row_delta.t list;
  jpedigree : Esm_core.Pedigree.t;
      (** {!join_pedigree} of the two schemas and any declared right-side
          FDs. *)
}

let djoin ?(right_fds : Fd.t list = []) ~(left : Schema.t)
    ~(right : Schema.t) () : djoin =
  let plan = join_plan ~left ~right in
  let proj indices (r : Row.t) = Array.map (fun i -> r.(i)) indices in
  let jtranslate ((l, r) : Table.t * Table.t) (deltas : Row_delta.t list) :
      Row_delta.t list * Row_delta.t list =
    Esm_core.Chaos.point "rlens.djoin.translate";
    let right_by_key = Table.key_index r plan.right_key_indices in
    (* Left rows grouped by shared key — the view rows for a key are
       exactly these joined against the key's (unique) right partner. *)
    let left_by_key : (Value.t list, Row.t list) Hashtbl.t =
      Hashtbl.create (max 16 (Table.cardinality l))
    in
    Table.iter
      (fun row ->
        let k = Table.key_of_row plan.left_key_indices row in
        Hashtbl.replace left_by_key k
          (row :: Option.value ~default:[] (Hashtbl.find_opt left_by_key k)))
      l;
    let join_row lrow rho =
      Array.append lrow (proj plan.right_rest_of_right rho)
    in
    (* Current view rows per touched key, materialised lazily; local to
       this translation so the table-owned memo is never mutated. *)
    let vcur : (Value.t list, Row.t list) Hashtbl.t = Hashtbl.create 16 in
    let view_rows k =
      match Hashtbl.find_opt vcur k with
      | Some rows -> rows
      | None ->
          let rows =
            match right_by_key k with
            | None -> []
            | Some rho ->
                List.map
                  (fun lrow -> join_row lrow rho)
                  (Option.value ~default:[] (Hashtbl.find_opt left_by_key k))
          in
          Hashtbl.replace vcur k rows;
          rows
    in
    let check v =
      if not (Row.conforms plan.join_schema v) then
        Lens.shape_errorf
          "join lens: delta row %s does not conform to the join schema %s"
          (Row.to_string v)
          (Schema.to_string plan.join_schema)
    in
    let dl = ref [] in
    let touched = ref [] in
    List.iter
      (fun d ->
        match d with
        | Row_delta.Add v ->
            check v;
            let k = Table.key_of_row plan.join_key_indices v in
            let rows = view_rows k in
            if not (List.exists (fun w -> Row.compare w v = 0) rows) then (
              Hashtbl.replace vcur k (v :: rows);
              touched := k :: !touched;
              (* set semantics make this a no-op if the left row is
                 already present (another view row shares it) *)
              dl := Row_delta.Add (proj plan.left_of_view v) :: !dl)
        | Row_delta.Remove v ->
            check v;
            let k = Table.key_of_row plan.join_key_indices v in
            let rows = view_rows k in
            if List.exists (fun w -> Row.compare w v = 0) rows then (
              let rows' =
                List.filter (fun w -> Row.compare w v <> 0) rows
              in
              Hashtbl.replace vcur k rows';
              touched := k :: !touched;
              let lam = proj plan.left_of_view v in
              (* only drop the left row if no remaining view row still
                 projects to it (possible mid-burst, before the
                 key-determines-right-row invariant is restored) *)
              if
                not
                  (List.exists
                     (fun w ->
                       Row.compare (proj plan.left_of_view w) lam = 0)
                     rows')
              then dl := Row_delta.Remove lam :: !dl))
      deltas;
    (* Right deltas, per touched key, from the initial-vs-final view:
       a key present in the final view dictates its right rows (the
       view's right projections); a key absent from the final view keeps
       the original right row untouched (it is merely unjoined). *)
    let dr = ref [] in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun k ->
        if not (Hashtbl.mem seen k) then (
          Hashtbl.replace seen k ();
          let orig = right_by_key k in
          let final_rows = view_rows k in
          let final_rhos =
            List.sort_uniq Row.compare
              (List.map (proj plan.right_of_view) final_rows)
          in
          let wanted =
            if final_rows = [] then Option.to_list orig else final_rhos
          in
          (match orig with
          | Some rho
            when not
                   (List.exists (fun w -> Row.compare w rho = 0) wanted) ->
              dr := Row_delta.Remove rho :: !dr
          | _ -> ());
          List.iter
            (fun rho ->
              match orig with
              | Some rho0 when Row.compare rho0 rho = 0 -> ()
              | _ -> dr := Row_delta.Add rho :: !dr)
            wanted))
      (List.rev !touched);
    (List.rev !dl, List.rev !dr)
  in
  {
    jlens = join ~left ~right;
    jtranslate;
    jpedigree =
      Esm_core.Pedigree.Delta_of (join_pedigree ~right_fds ~left ~right ());
  }

let put_delta_join (j : djoin) ((l, r) : Table.t * Table.t)
    (deltas : Row_delta.t list) : Table.t * Table.t =
  match
    let dl, dr = j.jtranslate (l, r) deltas in
    (Row_delta.apply_all l dl, Row_delta.apply_all r dr)
  with
  | result -> result
  | exception e when Esm_core.Error.degradable_exn e ->
      (* Same degradation policy as {!put_delta}: recompute with the
         full join put oracle. *)
      Esm_core.Chaos.note_fallback "rlens.put_delta_join";
      Esm_core.Chaos.protected (fun () ->
          let view = Lens.get j.jlens (l, r) in
          Lens.put j.jlens (l, r) (Row_delta.apply_all view deltas))
