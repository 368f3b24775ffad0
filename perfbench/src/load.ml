(* The load generator: one process, one thread, a few connections to the
   server, many sessions multiplexed over them with the public Frame /
   Envelope / Wire codecs.  The server keys dedup and bindings by the
   envelope's session, and answers each connection in request order, so
   a connection's responses match its in-flight FIFO one for one. *)

open Esm_relational
open Esm_sync
module F = Transport.Frame
module E = Transport.Envelope

type phase = Setup | Open | Closed | Final

type req = {
  sess : int;
  kind : Openloop.kind;
  body : Wire.request;
  phase : phase;
  due : float;
  mutable id : int;
  mutable payload : string;  (** the request envelope as sent *)
  mutable t_enc : float;  (** start of client-side encoding *)
  mutable t_send : float;
  mutable t_recv : float;  (** response frame decoded *)
  mutable t_done : float;  (** response parsed *)
  mutable version : int;
  mutable rows : Row.t list;  (** kept for [Final] views only *)
  mutable failure : string option;
}

type conn = { fd : Unix.file_descr; reader : F.reader; inflight : req Queue.t }

type t = {
  conns : conn array;
  gens : Gen.session array;
  next_id : int array;
  sched : req Openloop.t;
  buf : Bytes.t;
  mutable finished : req list;  (** newest first *)
  mutable on_complete : req -> unit;
}

exception Broken of string

let broken fmt = Printf.ksprintf (fun s -> raise (Broken s)) fmt

let connect (addr : Unix.sockaddr) : Unix.file_descr =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Unix.connect fd addr;
  fd

let create ~(addr : Unix.sockaddr) ~conns (gens : Gen.session array) : t =
  {
    conns =
      Array.init conns (fun _ ->
          { fd = connect addr; reader = F.reader (); inflight = Queue.create () });
    gens;
    next_id = Array.make (Array.length gens) 0;
    sched = Openloop.create (Array.length gens);
    buf = Bytes.create 262144;
    finished = [];
    on_complete = ignore;
  }

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns

let make_req ~sess ~kind ~body ~phase ~due =
  {
    sess; kind; body; phase; due; id = 0; payload = ""; t_enc = nan; t_send = nan;
    t_recv = nan; t_done = nan; version = -1; rows = []; failure = None;
  }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let send t r =
  let c = t.conns.(r.sess mod Array.length t.conns) in
  r.t_enc <- Clock.now_us ();
  t.next_id.(r.sess) <- t.next_id.(r.sess) + 1;
  r.id <- t.next_id.(r.sess);
  r.payload <-
    E.render_req
      { id = r.id; session = t.gens.(r.sess).name; body = Wire.render_request r.body };
  let frame = F.encode r.payload in
  r.t_send <- Clock.now_us ();
  write_all c.fd frame 0;
  Queue.push r c.inflight

(* A request fell due: send it, or queue it behind its session's. *)
let arrive t r = Option.iter (send t) (Openloop.arrive t.sched r.sess r)

let answer t r payload =
  r.t_recv <- Clock.now_us ();
  let resp =
    match E.parse_resp payload with
    | Ok { rid; body } when rid = r.id && r.kind = View && r.phase <> Final -> (
        (* a measured view's rows are not needed: read only its version,
           so that parsing large views does not slow the generator *)
        match Scanf.sscanf_opt body "view %d " Fun.id with
        | Some v -> Some (Wire.Resp_view (v, []))
        | None -> ( try Some (Wire.parse_response body) with _ -> None))
    | Ok { rid; body } when rid = r.id -> (
        try Some (Wire.parse_response body) with _ -> None)
    | _ -> None
  in
  r.t_done <- Clock.now_us ();
  (match (Openloop.outcome r.kind resp, resp) with
  | Error m, _ -> r.failure <- Some (if resp = None then "bad response" else m)
  | Ok (), Some (Wire.Resp_ok v | Wire.Resp_update (v, _)) -> r.version <- v
  | Ok (), Some (Wire.Resp_view (v, rows)) ->
      r.version <- v;
      if r.phase = Final then r.rows <- rows
  | Ok (), _ -> ());
  t.finished <- r :: t.finished;
  Option.iter (send t) (Openloop.complete t.sched r.sess);
  t.on_complete r

let read_conn t c =
  match Unix.read c.fd t.buf 0 (Bytes.length t.buf) with
  | 0 -> broken "server closed the connection"
  | n ->
      F.push c.reader (Bytes.sub_string t.buf 0 n);
      let rec frames () =
        match F.next c.reader with
        | Ok None -> ()
        | Ok (Some payload) -> (
            match Queue.take_opt c.inflight with
            | None -> broken "response with no request in flight"
            | Some r ->
                answer t r payload;
                frames ())
        | Error e -> broken "frame: %s" (Esm_core.Error.message e)
      in
      frames ()

(* Wait up to [timeout_us] for responses and handle all that arrived. *)
let poll t ~timeout_us =
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  match Unix.select fds [] [] (Float.max 0. timeout_us /. 1e6) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | ready, _, _ ->
      Array.iter (fun c -> if List.mem c.fd ready then read_conn t c) t.conns

(* Run until every session is idle; what is still pending at the
   deadline has timed out, and the connections can no longer be
   trusted to stay in step. *)
let drain t ~timeout_us =
  let deadline = Clock.now_us () +. timeout_us in
  while (not (Openloop.idle t.sched)) && Clock.now_us () < deadline do
    poll t ~timeout_us:(Float.min 50_000. (deadline -. Clock.now_us ()))
  done;
  if not (Openloop.idle t.sched) then broken "requests still pending after the drain"

(* {1 Phases} *)

let hello t =
  Array.iter
    (fun (g : Gen.session) ->
      (* a hello is answered [ok <version>], like a commit *)
      arrive t
        (make_req ~sess:g.idx ~kind:Commit ~body:(Wire.Hello (g.name, g.side))
           ~phase:Setup ~due:(Clock.now_us ())))
    t.gens;
  drain t ~timeout_us:10e6;
  List.iter
    (fun r ->
      match r.failure with
      | Some _ -> broken "hello failed for session %s" t.gens.(r.sess).name
      | None -> ())
    t.finished;
  t.finished <- []

(* Poisson arrivals at [rate]/s for [duration_us]; each picks a session
   uniformly and a kind from that session's side of the mix.  Returns
   the generator's lag behind each due time. *)
let open_loop t (w : Gen.workload) ~rng ~duration_us : float array =
  let start = Clock.now_us () in
  let stop = start +. duration_us in
  let gap () = -.Float.log (1. -. Random.State.float rng 1.0) /. w.rate *. 1e6 in
  let next_due = ref (start +. gap ()) in
  let lags = ref [] in
  while Clock.now_us () < stop do
    let now = Clock.now_us () in
    while !next_due <= now && !next_due < stop do
      let sess = Random.State.int rng (Array.length t.gens) in
      let g = t.gens.(sess) in
      let kind = Gen.draw_kind rng (Gen.side_mix w.mix g.side) in
      lags := (now -. !next_due) :: !lags;
      arrive t (make_req ~sess ~kind ~body:(Gen.request g kind) ~phase:Open ~due:!next_due);
      next_due := !next_due +. gap ()
    done;
    poll t ~timeout_us:(Float.min (!next_due -. Clock.now_us ()) (stop -. Clock.now_us ()))
  done;
  drain t ~timeout_us:30e6;
  Array.of_list !lags

(* Every session keeps exactly one request in flight for [duration_us];
   returns the completed ops/s. *)
let closed_loop t (w : Gen.workload) ~duration_us : float =
  let issue (g : Gen.session) =
    let kind = Gen.draw_kind g.rng (Gen.side_mix w.mix g.side) in
    arrive t
      (make_req ~sess:g.idx ~kind ~body:(Gen.request g kind) ~phase:Closed
         ~due:(Clock.now_us ()))
  in
  let start = Clock.now_us () in
  let stop = start +. duration_us in
  let completed = ref 0 in
  t.on_complete <-
    (fun r ->
      if r.phase = Closed && r.t_done <= stop then begin
        if r.failure = None then incr completed;
        issue t.gens.(r.sess)
      end);
  Array.iter issue t.gens;
  while Clock.now_us () < stop do
    poll t ~timeout_us:(stop -. Clock.now_us ())
  done;
  t.on_complete <- ignore;
  drain t ~timeout_us:30e6;
  float !completed /. ((stop -. start) /. 1e6)

(* A final pull from every session, then a view from one session of
   each side. *)
let final t =
  let issue (g : Gen.session) kind =
    arrive t (make_req ~sess:g.idx ~kind ~body:(Gen.request g kind) ~phase:Final ~due:(Clock.now_us ()))
  in
  Array.iter (fun g -> issue g Openloop.Pull) t.gens;
  drain t ~timeout_us:30e6;
  issue t.gens.(0) Openloop.View;
  issue t.gens.(1) Openloop.View;
  drain t ~timeout_us:30e6
