(** Client-visible histories and their offline oracle: record events
    as clients see them, check the claims over the whole record. *)

type outcome = Acked of int | Rejected of string | In_doubt

type event =
  | Submit of { session : string; id : int; op : string }
  | Outcome of { session : string; id : int; store : int; outcome : outcome }
  | Read of { session : string; store : int; kind : [ `Pull | `View ]; version : int }
  | Final of { session : string; store : int; version : (int, string) result }

type t = { mutable rev : event list }

let create () = { rev = [] }
let record t e = t.rev <- e :: t.rev
let events t = List.rev t.rev

(* The last outcome of every (session, id, store), in first-seen order. *)
let settlements events =
  let last = Hashtbl.create 64 and order = ref [] in
  List.iter
    (function
      | Outcome { session; id; store; outcome } ->
          let k = (session, id, store) in
          if not (Hashtbl.mem last k) then order := k :: !order;
          Hashtbl.replace last k outcome
      | _ -> ())
    events;
  List.rev_map (fun k -> (k, Hashtbl.find last k)) !order

let check ?(shared = false) ~heads events =
  let out = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> out := s :: !out) fmt in
  let n = Array.length heads in
  let acked = Array.make n 0 in
  let ops = Hashtbl.create 64 (* (session, id) -> op, answered? *)
  and settled = Hashtbl.create 64 (* (session, id, store) -> outcome *)
  and at = Hashtbl.create 64 (* (store, version) -> acked submit *)
  and last_read = Hashtbl.create 16 (* (session, store) -> version *)
  and finals = Hashtbl.create 16 (* session -> final pull *)
  and sessions = ref [] in
  let seen s = if not (List.mem s !sessions) then sessions := s :: !sessions in
  List.iter
    (function
      | Submit { session; id; op } ->
          seen session;
          if Hashtbl.mem ops (session, id) then
            fail "%s#%d: envelope id submitted twice" session id;
          Hashtbl.replace ops (session, id) (op, false)
      | Outcome { session; id; store; outcome } -> (
          (match Hashtbl.find_opt ops (session, id) with
          | None -> fail "%s#%d: outcome without a submit" session id
          | Some (op, _) -> Hashtbl.replace ops (session, id) (op, true));
          (match Hashtbl.find_opt settled (session, id, store) with
          | Some (Acked _ | Rejected _) ->
              fail "%s#%d: settled twice at store %d" session id store
          | Some In_doubt | None -> ());
          Hashtbl.replace settled (session, id, store) outcome;
          match outcome with
          | Acked v when store < 0 || store >= n ->
              fail "%s#%d: acked at %d of unknown store %d" session id v store
          | Acked v ->
              acked.(store) <- acked.(store) + 1;
              (match Hashtbl.find_opt at (store, v) with
              | Some (s', id') ->
                  fail "store %d: version %d acked to both %s#%d and %s#%d"
                    store v s' id' session id
              | None -> Hashtbl.replace at (store, v) (session, id));
              if v > heads.(store) then
                fail "%s#%d: acked at %d, beyond store %d's head %d" session
                  id v store heads.(store)
          | Rejected _ | In_doubt -> ())
      | Read { session; store; kind; version } ->
          seen session;
          (match Hashtbl.find_opt last_read (session, store) with
          | Some v when version < v ->
              fail "session %s: %s of store %d at %d after a read at %d"
                session
                (match kind with `Pull -> "pull" | `View -> "view")
                store version v
          | _ -> Hashtbl.replace last_read (session, store) version)
      | Final { session; store; version } ->
          seen session;
          Hashtbl.replace finals session (store, version))
    events;
  Hashtbl.iter
    (fun (session, id) (op, answered) ->
      if not answered then fail "%s#%d: %s has no outcome" session id op)
    ops;
  List.iter
    (fun ((session, id, store), o) ->
      if o = In_doubt then
        fail "%s#%d: in doubt at store %d, never resolved" session id store)
    (settlements events);
  Array.iteri
    (fun j h ->
      let a = acked.(j) in
      if h < a || (h > a && not shared) then
        fail "store %d: head %d <> %d acked commits — %s" j h a
          (if h > a then "a retry double-applied" else "an acked commit was lost"))
    heads;
  List.iter
    (fun s ->
      match Hashtbl.find_opt finals s with
      | None -> fail "session %s: no final pull" s
      | Some (_, Error m) -> fail "session %s: final pull failed: %s" s m
      | Some (j, Ok _) when j < 0 || j >= n ->
          fail "session %s: final pull of unknown store %d" s j
      | Some (j, Ok v) ->
          if v < heads.(j) || (v > heads.(j) && not shared) then
            fail "session %s: final pull at %d, store %d's head is %d" s v j
              heads.(j))
    !sessions;
  List.sort compare !out

let summary events =
  let count p = List.length (List.filter (fun (_, o) -> p o) (settlements events)) in
  let in_doubt =
    List.length
      (List.filter
         (function Outcome { outcome = In_doubt; _ } -> true | _ -> false)
         events)
  in
  Printf.sprintf "acked=%d rejected=%d in-doubt=%d unresolved=%d"
    (count (function Acked _ -> true | _ -> false))
    (count (function Rejected _ -> true | _ -> false))
    in_doubt
    (count (fun o -> o = In_doubt))
