(** Wire renderer suite: the one-pass buffer renderer of
    {!Esm_sync.Wire} writes exactly the bytes of the reference renderer
    below — the per-value [Buffer], [String.concat] over [List.map] and
    [Printf.sprintf] + [String.trim] code it replaced — for every row,
    row list, delta list, request, response and durable-log payload.

    The generators reach what the roundtrip tests do not: strings with
    quotes, backslashes, commas, semicolons and spaces, empty strings,
    [min_int]/[max_int] and negative ints, zero-column rows (whose
    empty rendering is what the trailing trim of a keyword line
    removes), and empty row lists. *)

open Esm_core
open Esm_sync
module Rel = Esm_relational
module Value = Rel.Value
module Row = Rel.Row
module Row_delta = Rel.Row_delta
module Table = Rel.Table

(* ------------------------------------------------------------------ *)
(* The reference renderer                                              *)
(* ------------------------------------------------------------------ *)

module Ref = struct
  let render_value = function
    | Value.Int n -> string_of_int n
    | Value.Bool true -> "true"
    | Value.Bool false -> "false"
    | Value.Str s ->
        let buf = Buffer.create (String.length s + 2) in
        Buffer.add_char buf '"';
        String.iter
          (fun c ->
            if c = '"' || c = '\\' then Buffer.add_char buf '\\';
            Buffer.add_char buf c)
          s;
        Buffer.add_char buf '"';
        Buffer.contents buf

  let render_row (r : Row.t) : string =
    String.concat ", " (List.map render_value (Row.to_list r))

  let render_rows (rows : Row.t list) : string =
    String.concat " ; " (List.map render_row rows)

  let render_delta = function
    | Row_delta.Add r -> "+" ^ render_row r
    | Row_delta.Remove r -> "-" ^ render_row r

  let render_deltas (ds : Row_delta.t list) : string =
    String.concat " ; " (List.map render_delta ds)

  let render_request = function
    | Wire.Set rows -> String.trim ("set " ^ render_rows rows)
    | Wire.Batch ds -> String.trim ("batch " ^ render_deltas ds)
    | r -> Wire.render_request r

  let render_response = function
    | Wire.Resp_ok v -> Printf.sprintf "ok %d" v
    | Wire.Resp_conflict (v, msg) -> Printf.sprintf "conflict %d %s" v msg
    | Wire.Resp_error (kind, msg) ->
        Printf.sprintf "error %s %s" (Error.kind_name kind) msg
    | Wire.Resp_view (v, rows) ->
        String.trim (Printf.sprintf "view %d %s" v (render_rows rows))
    | Wire.Resp_update (v, n) -> Printf.sprintf "update %d %d" v n
    | Wire.Resp_pong -> "pong"

  let encode_op = function
    | Store.Set_a t -> String.trim ("set_a " ^ render_rows (Table.rows t))
    | Store.Set_b t -> String.trim ("set_b " ^ render_rows (Table.rows t))
    | Store.Batch_a ds -> String.trim ("batch_a " ^ render_deltas ds)
    | Store.Batch_b ds -> String.trim ("batch_b " ^ render_deltas ds)
    | Store.Exec _ -> invalid_arg "Ref.encode_op: Exec"

  let encode_a t = render_rows (Table.rows t)
end

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

open QCheck.Gen

let gen_int : int QCheck.Gen.t =
  oneof
    [
      small_signed_int;
      int;
      oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; -10; 10 ];
    ]

let gen_string : string QCheck.Gen.t =
  string_size
    ~gen:(oneofl [ 'a'; 'Z'; '7'; '"'; '\\'; ','; ';'; ' '; '+'; '-'; '\t' ])
    (int_bound 8)

let gen_value : Value.t QCheck.Gen.t =
  oneof
    [
      map (fun i -> Value.Int i) gen_int;
      map (fun b -> Value.Bool b) bool;
      map (fun s -> Value.Str s) gen_string;
    ]

let gen_row : Row.t QCheck.Gen.t =
  map Row.of_list (list_size (int_bound 4) gen_value)

let gen_rows = list_size (int_bound 5) gen_row

let gen_deltas =
  list_size (int_bound 5)
    (map2
       (fun add r -> if add then Row_delta.Add r else Row_delta.Remove r)
       bool gen_row)

let gen_kind : Error.kind QCheck.Gen.t =
  oneofl
    Error.
      [
        Shape;
        Table;
        Schema;
        Parse;
        Fault;
        Conflict;
        Corrupt;
        Transport `Transient;
        Transport `Permanent;
        Timeout;
        Overload;
        Other;
      ]

let gen_response : Wire.response QCheck.Gen.t =
  oneof
    [
      map (fun v -> Wire.Resp_ok v) gen_int;
      map2 (fun v m -> Wire.Resp_conflict (v, m)) gen_int gen_string;
      map2 (fun k m -> Wire.Resp_error (k, m)) gen_kind gen_string;
      map2 (fun v rows -> Wire.Resp_view (v, rows)) gen_int gen_rows;
      map2 (fun v n -> Wire.Resp_update (v, n)) gen_int gen_int;
      return Wire.Resp_pong;
    ]

(* tables over a prefix (possibly empty) of one typed column list, so
   that zero-column tables are drawn too *)
let columns = [ ("i", Value.Tint); ("s", Value.Tstr); ("b", Value.Tbool) ]

let gen_table : Table.t QCheck.Gen.t =
  let* arity = int_bound 3 in
  let cols = List.filteri (fun i _ -> i < arity) columns in
  let gen_typed = function
    | Value.Tint -> map (fun i -> Value.Int i) gen_int
    | Value.Tstr -> map (fun s -> Value.Str s) gen_string
    | Value.Tbool -> map (fun b -> Value.Bool b) bool
  in
  let+ rows =
    list_size (int_bound 6)
      (map Row.of_list (flatten_l (List.map (fun (_, ty) -> gen_typed ty) cols)))
  in
  Table.of_rows (Rel.Schema.make cols) rows

type op = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op

let gen_op : op QCheck.Gen.t =
  oneof
    [
      map (fun t -> Store.Set_a t) gen_table;
      map (fun t -> Store.Set_b t) gen_table;
      map (fun ds -> Store.Batch_a ds) gen_deltas;
      map (fun ds -> Store.Batch_b ds) gen_deltas;
    ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* the codec only reads the schemas on decode *)
let codec = Wire.durable_op_codec ~schema_a:Rel.Workload.employees_schema
    ~schema_b:Rel.Workload.employees_schema

let same ~name ~count ~print gen reference actual =
  QCheck.Test.make ~count ~name (QCheck.make ~print gen) (fun x ->
      let want = reference x and got = actual x in
      if String.equal want got then true
      else QCheck.Test.fail_reportf "reference %S@.renderer  %S" want got)

let print_rows rows = String.concat " | " (List.map Row.to_string rows)

let print_op = function
  | Store.Set_a t | Store.Set_b t -> Table.to_string t
  | Store.Batch_a ds | Store.Batch_b ds -> Ref.render_deltas ds
  | Store.Exec _ -> "exec"

let byte_identity_tests =
  [
    same ~name:"render_value is byte-identical" ~count:1000
      ~print:Value.show gen_value Ref.render_value Wire.render_value;
    same ~name:"render_row is byte-identical" ~count:1000 ~print:Row.to_string
      gen_row Ref.render_row Wire.render_row;
    same ~name:"render_rows is byte-identical" ~count:500 ~print:print_rows
      gen_rows Ref.render_rows Wire.render_rows;
    same ~name:"render_deltas is byte-identical" ~count:500
      ~print:Ref.render_deltas gen_deltas Ref.render_deltas Wire.render_deltas;
    same ~name:"render_request (set, batch) is byte-identical" ~count:500
      ~print:Ref.render_request
      (oneof
         [
           map (fun rows -> Wire.Set rows) gen_rows;
           map (fun ds -> Wire.Batch ds) gen_deltas;
         ])
      Ref.render_request Wire.render_request;
    same ~name:"render_response is byte-identical (every constructor)"
      ~count:1000 ~print:Ref.render_response gen_response Ref.render_response
      Wire.render_response;
    same ~name:"durable encode_op is byte-identical" ~count:500 ~print:print_op
      gen_op Ref.encode_op codec.Store.encode_op;
    same ~name:"durable encode_a is byte-identical" ~count:500
      ~print:Table.to_string gen_table Ref.encode_a codec.Store.encode_a;
  ]

let edge_tests =
  let test = Alcotest.test_case in
  let check = Alcotest.(check string) in
  [
    test "edge lines match the reference" `Quick (fun () ->
        let empty_row = Row.of_list [] in
        let quoted = Row.of_list [ Value.Str {|a"b\c|}; Value.Str "" ] in
        List.iter
          (fun resp ->
            check (Ref.render_response resp) (Ref.render_response resp)
              (Wire.render_response resp))
          [
            Wire.Resp_view (3, []);
            Wire.Resp_view (min_int, [ empty_row ]);
            Wire.Resp_view (0, [ quoted; empty_row ]);
            Wire.Resp_view (max_int, [ empty_row; empty_row ]);
            Wire.Resp_ok min_int;
            Wire.Resp_update (-1, max_int);
          ];
        check "empty view" "view 3" (Wire.render_response (Wire.Resp_view (3, [])));
        check "min_int" (string_of_int min_int)
          (Wire.render_value (Value.Int min_int));
        check "escapes" {|"a\"b\\c", ""|} (Wire.render_row quoted));
  ]

let suite = edge_tests @ Helpers.q byte_identity_tests
