(** The line-oriented wire codec and in-process server for replicated
    relational stores.

    One request per line, one response per line — the grammar a
    [telnet]-grade client (or the deterministic script runner in
    [bin/esm_syncd.ml]) speaks:

    {v
    hello <session> a|b          bind a session to the A or B view
    get                          read the bound view
    set <row> ; <row> ; ...      replace the bound view
    batch +<row> ; -<row> ; ...  commit a coalesced delta burst
    pull                         receive entries committed since base
    crash                        simulate a server crash
    recover                      replay the oplog suffix
    bye                          unbind
    v}

    Rows are comma-separated values: integers, [true]/[false],
    double-quoted strings (with backslash escapes for the quote and the
    backslash itself) or bare strings.
    Responses: [ok <version>], [view <version> <rows>],
    [update <version> <n-entries>], [conflict <version> <message>],
    [error <kind> <message>].

    The codec is total in both directions over its own output
    (roundtrip property-tested); parse failures raise typed [Parse]
    errors, and {!handle} converts every bx failure into an [error]
    response instead of tearing the server down. *)

open Esm_core
open Esm_relational

type rstore = (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.t
type rsession = (Table.t, Table.t, Row_delta.t, Row_delta.t) Session.t

type request =
  | Hello of string * Session.side
  | Get
  | Set of Row.t list
  | Batch of Row_delta.t list
  | Pull
  | Ping
  | Crash
  | Recover
  | Bye

type response =
  | Resp_ok of int
  | Resp_conflict of int * string
  | Resp_error of Error.kind * string
  | Resp_view of int * Row.t list
  | Resp_update of int * int
  | Resp_pong

(* {1 Lexing helpers} *)

let parse_error fmt = Error.raise_error Error.Parse ~op:"wire" fmt

(* Split on [sep], but not inside double quotes. *)
let split_outside_quotes (sep : char) (s : string) : string list =
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let in_quotes = ref false in
  let escaped = ref false in
  String.iter
    (fun c ->
      if !escaped then (
        Buffer.add_char buf c;
        escaped := false)
      else if c = '\\' && !in_quotes then (
        Buffer.add_char buf c;
        escaped := true)
      else if c = '"' then (
        Buffer.add_char buf c;
        in_quotes := not !in_quotes)
      else if c = sep && not !in_quotes then (
        parts := Buffer.contents buf :: !parts;
        Buffer.clear buf)
      else Buffer.add_char buf c)
    s;
  if !in_quotes then parse_error "unterminated quote in %S" s;
  List.rev (Buffer.contents buf :: !parts)

(* {1 The renderer}

   Every render path writes into one [Buffer.t]: ints are formatted
   digit by digit, a string with no quote and no backslash is copied in
   one piece, and rows are walked in place. *)

let add_int (b : Buffer.t) (n : int) : unit =
  (* the digits of [-|n|], which is never positive, so [min_int] needs
     no negation *)
  let rec digits m =
    if m <= -10 then digits (m / 10);
    Buffer.add_char b (Char.unsafe_chr (48 - (m mod 10)))
  in
  if n < 0 then (
    Buffer.add_char b '-';
    digits n)
  else digits (-n)

(* A double-quoted string, backslash before each quote and backslash;
   the runs between them are copied whole. *)
let add_quoted (b : Buffer.t) (s : string) : unit =
  Buffer.add_char b '"';
  let run = ref 0 in
  for i = 0 to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' | '\\' ->
        Buffer.add_substring b s !run (i - !run);
        Buffer.add_char b '\\';
        run := i
    | _ -> ()
  done;
  Buffer.add_substring b s !run (String.length s - !run);
  Buffer.add_char b '"'

let add_value (b : Buffer.t) : Value.t -> unit = function
  | Value.Int n -> add_int b n
  | Value.Bool true -> Buffer.add_string b "true"
  | Value.Bool false -> Buffer.add_string b "false"
  | Value.Str s -> add_quoted b s

(* [add b x] for each [x] of [xs], with [sep] between two. *)
let add_sep iter add sep (b : Buffer.t) xs =
  let first = ref true in
  iter
    (fun x ->
      if !first then first := false else Buffer.add_string b sep;
      add b x)
    xs

let add_row (b : Buffer.t) (r : Row.t) : unit =
  add_sep Array.iter add_value ", " b r

let add_rows b rows = add_sep List.iter add_row " ; " b rows
let add_row_array b rows = add_sep Array.iter add_row " ; " b rows

let add_delta (b : Buffer.t) : Row_delta.t -> unit = function
  | Row_delta.Add r ->
      Buffer.add_char b '+';
      add_row b r
  | Row_delta.Remove r ->
      Buffer.add_char b '-';
      add_row b r

let add_deltas b ds = add_sep List.iter add_delta " ; " b ds

(* [f]'s output in a fresh buffer of [size] bytes.  [~line:true] drops
   trailing whitespace, as [String.trim] did for a keyword line whose
   body renders empty ([view 3], [set]): lines start with a keyword,
   so only the tail can carry any. *)
let render ?(size = 64) ?(line = false) (f : Buffer.t -> unit) : string =
  let b = Buffer.create size in
  f b;
  if not line then Buffer.contents b
  else
    let n = ref (Buffer.length b) in
    while
      !n > 0
      && match Buffer.nth b (!n - 1) with
         | ' ' | '\012' | '\n' | '\r' | '\t' -> true
         | _ -> false
    do
      decr n
    done;
    Buffer.sub b 0 !n

(* a size hint for [n] rendered rows *)
let rows_size n = 64 + (40 * n)

(* {1 Value codec} *)

let render_value v = render ~size:16 (fun b -> add_value b v)

let parse_value (tok : string) : Value.t =
  let tok = String.trim tok in
  if tok = "" then parse_error "empty value token"
  else if tok = "true" then Value.Bool true
  else if tok = "false" then Value.Bool false
  else
    match int_of_string_opt tok with
    | Some n -> Value.Int n
    | None ->
        if String.length tok >= 2 && tok.[0] = '"' then (
          if tok.[String.length tok - 1] <> '"' then
            parse_error "unterminated string %S" tok;
          let buf = Buffer.create (String.length tok) in
          let escaped = ref false in
          String.iteri
            (fun i c ->
              if i > 0 && i < String.length tok - 1 then
                if !escaped then (
                  Buffer.add_char buf c;
                  escaped := false)
                else if c = '\\' then escaped := true
                else Buffer.add_char buf c)
            tok;
          if !escaped then parse_error "dangling escape in %S" tok;
          Value.Str (Buffer.contents buf))
        else Value.Str tok

let render_row (r : Row.t) : string = render (fun b -> add_row b r)

let parse_row (s : string) : Row.t =
  Row.of_list (List.map parse_value (split_outside_quotes ',' s))

let render_rows (rows : Row.t list) : string =
  render ~size:(rows_size (List.length rows)) (fun b -> add_rows b rows)

let parse_rows (s : string) : Row.t list =
  match String.trim s with
  | "" -> []
  | s -> List.map parse_row (split_outside_quotes ';' s)

let render_delta (d : Row_delta.t) : string = render (fun b -> add_delta b d)

let parse_delta (s : string) : Row_delta.t =
  let s = String.trim s in
  if s = "" then parse_error "empty delta"
  else
    let rest = String.sub s 1 (String.length s - 1) in
    match s.[0] with
    | '+' -> Row_delta.Add (parse_row rest)
    | '-' -> Row_delta.Remove (parse_row rest)
    | _ -> parse_error "delta must start with + or -: %S" s

let render_deltas (ds : Row_delta.t list) : string =
  render (fun b -> add_deltas b ds)

let parse_deltas (s : string) : Row_delta.t list =
  match String.trim s with
  | "" -> []
  | s -> List.map parse_delta (split_outside_quotes ';' s)

(* {1 Request codec} *)

(* First whitespace-separated word and the (trimmed) remainder. *)
let cut_word (s : string) : string * string =
  let s = String.trim s in
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      ( String.sub s 0 i,
        String.trim (String.sub s (i + 1) (String.length s - i - 1)) )

let render_request = function
  | Hello (name, side) ->
      Printf.sprintf "hello %s %s" name (Session.side_name side)
  | Get -> "get"
  | Set rows ->
      render ~line:true (fun b ->
          Buffer.add_string b "set ";
          add_rows b rows)
  | Batch ds ->
      render ~line:true (fun b ->
          Buffer.add_string b "batch ";
          add_deltas b ds)
  | Pull -> "pull"
  | Ping -> "ping"
  | Crash -> "crash"
  | Recover -> "recover"
  | Bye -> "bye"

let parse_request (line : string) : request =
  let word, rest = cut_word line in
  match word with
  | "hello" -> (
      match String.split_on_char ' ' rest with
      | [ name; "a" ] -> Hello (name, `A)
      | [ name; "b" ] -> Hello (name, `B)
      | _ -> parse_error "expected 'hello <session> a|b', got %S" line)
  | "get" -> Get
  | "set" -> Set (parse_rows rest)
  | "batch" -> Batch (parse_deltas rest)
  | "pull" -> Pull
  | "ping" -> Ping
  | "crash" -> Crash
  | "recover" -> Recover
  | "bye" -> Bye
  | _ -> parse_error "unknown request %S" line

(* {1 Response codec} *)

let add_view_head (b : Buffer.t) (v : int) : unit =
  Buffer.add_string b "view ";
  add_int b v

(* [view <v> <text>], for [text] the rendered rows less trailing
   whitespace: the line {!render_response} writes for those rows, built
   with one copy of [text]. *)
let render_view (v : int) (text : string) : string =
  let head = render (fun b -> add_view_head b v) in
  if text = "" then head else String.concat " " [ head; text ]

let render_response = function
  | Resp_ok v -> Printf.sprintf "ok %d" v
  | Resp_conflict (v, msg) -> Printf.sprintf "conflict %d %s" v msg
  | Resp_error (kind, msg) ->
      Printf.sprintf "error %s %s" (Error.kind_name kind) msg
  | Resp_view (v, rows) ->
      render ~size:(rows_size (List.length rows)) ~line:true (fun b ->
          add_view_head b v;
          Buffer.add_char b ' ';
          add_rows b rows)
  | Resp_update (v, n) -> Printf.sprintf "update %d %d" v n
  | Resp_pong -> "pong"

let kind_of_name = function
  | "shape" -> Error.Shape
  | "table" -> Error.Table
  | "schema" -> Error.Schema
  | "model" -> Error.Model
  | "metamodel" -> Error.Metamodel
  | "parse" -> Error.Parse
  | "fault" -> Error.Fault
  | "index" -> Error.Index
  | "conflict" -> Error.Conflict
  | "corrupt" -> Error.Corrupt
  | "transport.transient" -> Error.Transport `Transient
  | "transport.permanent" -> Error.Transport `Permanent
  | "timeout" -> Error.Timeout
  | "overload" -> Error.Overload
  | "other" -> Error.Other
  | k -> parse_error "unknown error kind %S" k

let parse_int_word (line : string) (s : string) : int =
  match int_of_string_opt s with
  | Some n -> n
  | None -> parse_error "expected a version number in %S" line

let parse_response (line : string) : response =
  let word, rest = cut_word line in
  match word with
  | "ok" -> Resp_ok (parse_int_word line rest)
  | "conflict" ->
      let v, msg = cut_word rest in
      Resp_conflict (parse_int_word line v, msg)
  | "error" ->
      let kind, msg = cut_word rest in
      Resp_error (kind_of_name kind, msg)
  | "view" ->
      let v, rows = cut_word rest in
      Resp_view (parse_int_word line v, parse_rows rows)
  | "update" -> (
      match String.split_on_char ' ' rest with
      | [ v; n ] -> Resp_update (parse_int_word line v, parse_int_word line n)
      | _ -> parse_error "expected 'update <version> <n>', got %S" line)
  | "pong" -> Resp_pong
  | _ -> parse_error "unknown response %S" line

(* {1 Durable-log payload codec} *)

(* The durable log frames opaque payloads (Durable_log); this codec
   fills them in for relational stores by reusing the row/delta wire
   grammar: [set_a <rows>], [set_b <rows>], [batch_a <deltas>],
   [batch_b <deltas>], and the bare A view rows for snapshots.  [Exec]
   programs contain functions and do not serialise — encoding one is a
   typed error, which fails the commit whole on a persisted store. *)
let durable_op_codec ~(schema_a : Schema.t) ~(schema_b : Schema.t) :
    (Table.t, Table.t, Row_delta.t, Row_delta.t) Store.op_codec =
  let table_of schema rows = Table.of_rows schema rows in
  let set_line word t =
    render ~size:(rows_size (Table.cardinality t)) ~line:true (fun b ->
        Buffer.add_string b word;
        add_row_array b (Table.row_array t))
  in
  let batch_line word ds =
    render ~line:true (fun b ->
        Buffer.add_string b word;
        add_deltas b ds)
  in
  {
    Store.encode_op =
      (fun op ->
        match op with
        | Store.Set_a t -> set_line "set_a " t
        | Store.Set_b t -> set_line "set_b " t
        | Store.Batch_a ds -> batch_line "batch_a " ds
        | Store.Batch_b ds -> batch_line "batch_b " ds
        | Store.Exec _ ->
            Error.raise_error Error.Other ~op:"durable"
              "Exec ops are not serialisable (programs contain functions); \
               commit the resulting sets instead");
    decode_op =
      (fun s ->
        let word, rest = cut_word s in
        match word with
        | "set_a" -> Store.Set_a (table_of schema_a (parse_rows rest))
        | "set_b" -> Store.Set_b (table_of schema_b (parse_rows rest))
        | "batch_a" -> Store.Batch_a (parse_deltas rest)
        | "batch_b" -> Store.Batch_b (parse_deltas rest)
        | _ -> parse_error "unknown durable op %S" s);
    encode_a =
      (fun t ->
        render ~size:(rows_size (Table.cardinality t)) (fun b ->
            add_row_array b (Table.row_array t)));
    decode_a = (fun s -> table_of schema_a (parse_rows s));
  }

(* {1 The in-process server} *)

type server = {
  store : rstore;
  sessions : (string, rsession) Hashtbl.t;
  mutable text_a : (Table.t * string) option;
      (** the last A view table served and its rendered rows *)
  mutable text_b : (Table.t * string) option;
}

let serve (store : rstore) : server =
  { store; sessions = Hashtbl.create 8; text_a = None; text_b = None }

let store (srv : server) : rstore = srv.store

let session_names (srv : server) : string list =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) srv.sessions [])

let drop_session (srv : server) (name : string) : unit =
  Hashtbl.remove srv.sessions name

let session_of (srv : server) (name : string) : rsession =
  match Hashtbl.find_opt srv.sessions name with
  | Some s -> s
  | None ->
      Error.raise_error Error.Other ~op:"wire"
        "session %s has not said hello" name

(* The schema a session's [set <rows>] builds a table against: the
   session's current view. *)
let view_schema (s : rsession) : Schema.t =
  match Session.view s with
  | `A t | `B t -> Table.schema t

let of_result = function
  | Ok v -> Resp_ok v
  | Error (e : Error.t) when e.Error.kind = Error.Conflict ->
      Resp_conflict (0, Error.message e)
  | Error e -> Resp_error (e.Error.kind, Error.message e)

let response_of_exn exn =
  match Error.of_exn exn with
  | Some e -> of_result (Error e)
  | None -> Resp_error (Error.Other, Printexc.to_string exn)

let session_view (srv : server) (session : string) =
  Session.view (session_of srv session)

(* The rendered rows of a view table, memoized per side by the table's
   physical identity: tables are immutable and the store hands out the
   same view table until its version moves, so a [get] at an unchanged
   version renders nothing. *)
let view_text (srv : server) (view : [ `A of Table.t | `B of Table.t ]) :
    string =
  let memo, t =
    match view with `A t -> (srv.text_a, t) | `B t -> (srv.text_b, t)
  in
  match memo with
  | Some (t', text) when t' == t -> text
  | _ ->
      let rows = Table.row_array t in
      let text =
        render ~size:(rows_size (Array.length rows)) ~line:true (fun b ->
            add_row_array b rows)
      in
      (match view with
      | `A _ -> srv.text_a <- Some (t, text)
      | `B _ -> srv.text_b <- Some (t, text));
      text

let handle (srv : server) ~(session : string) (req : request) : response =
  try
    match req with
    | Hello (name, side) ->
        let s = Session.bind srv.store ~name ~side in
        Hashtbl.replace srv.sessions name s;
        Resp_ok (Session.base s)
    | Ping -> Resp_pong
    | Bye ->
        Hashtbl.remove srv.sessions session;
        Resp_ok (Store.version srv.store)
    | Crash ->
        Store.crash srv.store;
        Resp_ok (Store.version srv.store)
    | Recover ->
        Store.recover srv.store;
        Resp_ok (Store.version srv.store)
    | Get -> (
        match session_view srv session with
        | `A t | `B t -> Resp_view (Store.version srv.store, Table.rows t))
    | Pull ->
        let s = session_of srv session in
        let entries = Session.pull s in
        Resp_update (Session.base s, List.length entries)
    | Set rows -> (
        let s = session_of srv session in
        let table = Table.of_rows (view_schema s) rows in
        let op =
          match Session.side s with
          | `A -> Store.Set_a table
          | `B -> Store.Set_b table
        in
        match Session.submit_rebase s op with
        | Ok (v, _) -> Resp_ok v
        | Error e -> of_result (Error e))
    | Batch ds -> (
        let s = session_of srv session in
        let op =
          match Session.side s with
          | `A -> Store.Batch_a ds
          | `B -> Store.Batch_b ds
        in
        match Session.submit_rebase s op with
        | Ok (v, _) -> Resp_ok v
        | Error e -> of_result (Error e))
  with exn when Error.is_bx_exn exn -> response_of_exn exn

(* [render_response (handle ...)], but a [get] renders its rows through
   the memo *)
let handle_line (srv : server) ~(session : string) (line : string) : string =
  match parse_request line with
  | Get -> (
      match session_view srv session with
      | view -> render_view (Store.version srv.store) (view_text srv view)
      | exception exn when Error.is_bx_exn exn ->
          render_response (response_of_exn exn))
  | req -> render_response (handle srv ~session req)
