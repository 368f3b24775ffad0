(* The correctness gate, checked after every run:
   - the server head equals the load generator's count of acked commits, and
     the acked versions are exactly 1..head;
   - every session's final pull reaches the head;
   - the final view of each side equals the state from replaying the
     acked ops in-process through the same bx;
   - on persisted workloads, Store.reopen of the log dir recovers
     exactly that head and state. *)

open Esm_relational
open Esm_sync

let check (w : Gen.workload) ~seed ~dir ~(gens : Gen.session array) ~head
    (reqs : Load.req list) : string list =
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let acked =
    List.filter
      (fun (r : Load.req) ->
        r.kind = Commit && r.phase <> Setup && r.failure = None)
      reqs
    |> List.sort (fun (a : Load.req) b -> compare a.version b.version)
  in
  if List.length acked <> head then
    fail "server head %d but %d commits were acked" head (List.length acked);
  List.iteri
    (fun i (r : Load.req) ->
      if r.version <> i + 1 then fail "acked commit #%d carries version %d" (i + 1) r.version)
    acked;
  List.iter
    (fun (r : Load.req) ->
      if r.phase = Final && r.kind = Pull && r.version <> head then
        fail "session %s's final pull reached %d, not the head %d" gens.(r.sess).name
          r.version head)
    reqs;
  (* replay the acked ops, in version order, through the same bx *)
  let oracle = Gen.make_store { w with persist = In_memory } ~seed ~dir in
  List.iter
    (fun (r : Load.req) ->
      match r.body with
      | Wire.Batch ds -> (
          let g = gens.(r.sess) in
          let op = match g.side with `A -> Store.Batch_a ds | `B -> Store.Batch_b ds in
          match Store.commit ~session:g.name oracle op with
          | Ok _ -> ()
          | Error e -> fail "oracle replay failed: %s" (Esm_core.Error.message e))
      | _ -> ())
    acked;
  let finals = List.filter (fun (r : Load.req) -> r.phase = Final && r.kind = View) reqs in
  if List.length finals <> 2 then fail "expected one final view per side";
  List.iter
    (fun (r : Load.req) ->
      let expect =
        match gens.(r.sess).side with
        | `A -> Store.view_a oracle
        | `B -> Store.view_b oracle
      in
      if r.failure <> None
         || not (Table.equal expect (Table.of_rows (Table.schema expect) r.rows))
      then
        fail "final %s view differs from the oracle replay"
          (Session.side_name gens.(r.sess).side))
    finals;
  if Gen.fsync_policy w <> None then begin
    match Gen.reopen_store w ~seed ~dir with
    | Error e -> fail "reopen failed: %s" (Esm_core.Error.message e)
    | Ok st ->
        if Store.head_version st <> head || Store.version st <> head then
          fail "reopen recovered head %d (version %d), not %d" (Store.head_version st)
            (Store.version st) head;
        if not (Table.equal (Store.view_a st) (Store.view_a oracle)) then
          fail "reopened state differs from the oracle replay";
        Store.close st
  end;
  List.rev !bad
