(* The traced pass.  It replays the exact request stream of a run's
   open-loop phase in-process, against two fresh stores seeded like the
   server's:

   - X is driven layer by layer through the public functions the server
     path calls, with one span around each call;
   - Y is driven through Transport.Core.handle_payload, the real path,
     untraced.

   Core's own time (dedup, dispatch) is Y's handle time minus the X
   spans it covers.  Two children of Store.commit cannot be reached from
   outside, so they are timed as sibling calls on the same inputs: the
   lens put on the same materialised view, and a Durable_log append of
   the codec-encoded op on a side writer with the workload's fsync
   policy.  X's and Y's responses must agree byte for byte. *)

open Esm_relational
open Esm_sync
module F = Transport.Frame
module E = Transport.Envelope

type result = {
  self : (Openloop.kind * string, float) Hashtbl.t;  (** summed self time *)
  count : (Openloop.kind, int) Hashtbl.t;
  y_total : float array;  (** untraced server-side time per request *)
  x_total : float array;  (** traced time per request *)
  rebased_entries : int;
  durable_writes : int;
  durable_bytes : int;
  bytes_in : int;
  bytes_out : int;
  poll : int * int;  (** session.poll hits, misses on pulls *)
  view : int * int;  (** store.view hits, misses on views *)
}

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let disk_bytes dir =
  file_size (Durable_log.log_file dir) + file_size (Durable_log.snapshot_file dir)

let counts_delta name f =
  let h0, m0 = Esm_incr.Stats.counts name in
  let r = f () in
  let h1, m1 = Esm_incr.Stats.counts name in
  (r, (h1 - h0, m1 - m0))

let add2 (a, b) (c, d) = (a + c, b + d)

(* The bx work of a Batch commit: materialise the side's view, apply the
   deltas, and set it back.  Setting A on a lens-packed store replaces
   the state. *)
let bx_put side (a0 : Table.t) ds =
  match side with
  | `A -> ignore (Row_delta.apply_all a0 ds)
  | `B ->
      let v = Row_delta.apply_all (Esm_lens.Lens.get Gen.eng_lens a0) ds in
      ignore (Esm_lens.Lens.put Gen.eng_lens a0 v)

let run (w : Gen.workload) ~seed ~dir (reqs : Load.req array) : result =
  let sub name = Filename.concat dir name in
  let xstore = Gen.make_store w ~seed ~dir:(sub "replay-x") in
  let ystore = Gen.make_store w ~seed ~dir:(sub "replay-y") in
  let core = Transport.Core.create (Wire.serve ystore) in
  let side_log =
    Option.map
      (fun fsync -> Durable_log.create ~dir:(sub "replay-side") ~fsync ())
      (Gen.fsync_policy w)
  in
  let gens = Gen.sessions w ~seed in
  let xs = Array.map (fun (g : Gen.session) -> Session.bind xstore ~name:g.name ~side:g.side) gens in
  Array.iter
    (fun (g : Gen.session) ->
      ignore
        (Transport.Core.handle_payload core ~now:0. ~pending:0
           (E.render_req
              { id = 1; session = g.name; body = Wire.render_request (Wire.Hello (g.name, g.side)) })))
    gens;
  let disk0 = disk_bytes (sub "replay-x") in
  let spans = Span.create () in
  let kinds = Array.map (fun (r : Load.req) -> r.kind) reqs in
  let n = Array.length reqs in
  let y_total = Array.make n 0. and x_total = Array.make n 0. in
  let y_dedup = Array.make n 0. in
  let xreader = F.reader () and yreader = F.reader () in
  let next_payload rd =
    match F.next rd with Ok (Some p) -> p | _ -> failwith "replay: frame did not decode"
  in
  let rebased = ref 0 and writes = ref 0 and bytes_in = ref 0 and bytes_out = ref 0 in
  let poll = ref (0, 0) and view = ref (0, 0) in
  let mismatches = ref 0 in
  Array.iteri
    (fun i (r : Load.req) ->
      let frame_in = F.encode r.payload in
      bytes_in := !bytes_in + String.length frame_in;
      let s = xs.(r.sess) in
      let a0 = if r.kind = Commit then Store.view_a xstore else Table.empty Workload.employees_schema in
      (* X, traced *)
      let root = Span.enter spans ~trace:i "request" in
      let sp name f = Span.within spans ~parent:root ~trace:i name f in
      let payload = sp "frame.decode" (fun () -> F.push xreader frame_in; next_payload xreader) in
      let env = sp "envelope.parse" (fun () -> Result.get_ok (E.parse_req payload)) in
      let req = sp "wire.parse" (fun () -> Wire.parse_request env.body) in
      let commit = ref None in
      let resp =
        match req with
        | Wire.Pull ->
            let es, d = counts_delta "session.poll" (fun () -> sp "session.pull" (fun () -> Session.pull s)) in
            poll := add2 !poll d;
            Wire.Resp_update (Session.base s, List.length es)
        | Wire.Get ->
            let rows, d =
              counts_delta "store.view" (fun () ->
                  sp "store.view" (fun () ->
                      match Session.view s with `A t | `B t -> Table.rows t))
            in
            view := add2 !view d;
            Wire.Resp_view (Store.version xstore, rows)
        | Wire.Batch ds -> (
            let es = sp "session.rebase" (fun () -> Session.pull s) in
            rebased := !rebased + List.length es;
            let op =
              match Session.side s with `A -> Store.Batch_a ds | `B -> Store.Batch_b ds
            in
            let w0 = Durable_log.writes_performed () in
            let res = sp "store.commit" (fun () -> Session.submit s op) in
            writes := !writes + Durable_log.writes_performed () - w0;
            match res with
            | Ok v ->
                commit := Some (v, ds, op);
                Wire.Resp_ok v
            | Error e -> Wire.Resp_error (e.Esm_core.Error.kind, Esm_core.Error.message e))
        | _ -> failwith "replay: unexpected request kind"
      in
      let line = sp "wire.render" (fun () -> Wire.render_response resp) in
      let out = sp "envelope.render" (fun () -> E.render_resp { rid = env.id; body = line }) in
      let frame_out = sp "frame.encode" (fun () -> F.encode out) in
      Span.leave spans root;
      x_total.(i) <- (Span.get spans root).stop -. (Span.get spans root).start;
      bytes_out := !bytes_out + String.length frame_out;
      (* siblings of store.commit, outside the request span *)
      Option.iter
        (fun (v, ds, op) ->
          Span.within spans ~parent:root ~trace:i "bx.put" (fun () -> bx_put (Session.side s) a0 ds);
          Option.iter
            (fun wr ->
              let payload = Gen.codec.encode_op op in
              Span.within spans ~parent:root ~trace:i "durable.append" (fun () ->
                  ignore (Durable_log.append_entry wr ~version:v ~session:(Session.name s) ~payload)))
            side_log)
        !commit;
      (* Y, the real path, untraced *)
      let t0 = Clock.now_us () in
      F.push yreader frame_in;
      let p = next_payload yreader in
      let yframe = F.encode (Transport.Core.handle_payload core ~now:0. ~pending:0 p) in
      let t1 = Clock.now_us () in
      y_total.(i) <- t1 -. t0;
      if yframe <> frame_out then incr mismatches;
      (* the same envelope again is a dedup hit: Core's own work, without
         executing the request *)
      ignore (Transport.Core.handle_payload core ~now:0. ~pending:0 p);
      y_dedup.(i) <- Clock.now_us () -. t1)
    reqs;
  if !mismatches > 0 then
    failwith (Printf.sprintf "replay: %d responses differ between the traced and the real path" !mismatches);
  let durable_bytes = disk_bytes (sub "replay-x") - disk0 in
  Store.close xstore;
  Store.close ystore;
  Option.iter Durable_log.close side_log;
  (* aggregate self times per request kind *)
  let self = Hashtbl.create 64 in
  let add k name v =
    Hashtbl.replace self (k, name) (v +. Option.value ~default:0. (Hashtbl.find_opt self (k, name)))
  in
  let selfs = Span.self_times spans in
  (* Core's self time: the dedup pass less the envelope codec it runs *)
  let core_self = Array.copy y_dedup in
  for j = 0 to Span.length spans - 1 do
    let sp = Span.get spans j in
    let k = kinds.(sp.trace) in
    match sp.name with
    | "request" -> ()
    | "bx.put" | "durable.append" ->
        (* the commit's two children, timed beside it *)
        add k sp.name selfs.(j);
        add k "store.commit.other" (-.selfs.(j))
    | "store.commit" -> add k "store.commit.other" selfs.(j)
    | name ->
        add k name selfs.(j);
        if name = "envelope.parse" || name = "envelope.render" then
          core_self.(sp.trace) <- core_self.(sp.trace) -. selfs.(j)
  done;
  let count = Hashtbl.create 3 in
  Array.iteri
    (fun i k ->
      Hashtbl.replace count k (1 + Option.value ~default:0 (Hashtbl.find_opt count k));
      add k "core.handle" core_self.(i))
    kinds;
  {
    self; count; y_total; x_total; rebased_entries = !rebased; durable_writes = !writes;
    durable_bytes; bytes_in = !bytes_in; bytes_out = !bytes_out; poll = !poll; view = !view;
  }
