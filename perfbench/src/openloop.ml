(* Open-loop accounting for sessions that keep at most one request in
   flight.  Requests fall due on a schedule, whatever the server is
   doing; a request due for a busy session waits in that session's
   queue, and its latency is measured from the due time, so a server
   stall shows in the requests that fell due behind it. *)

open Esm_core
open Esm_sync

type 'r t = { waiting : 'r Queue.t array; busy : bool array }

let create sessions =
  {
    waiting = Array.init sessions (fun _ -> Queue.create ());
    busy = Array.make sessions false;
  }

(* A request fell due for session [s]: [Some r] when it may be sent now,
   [None] when it waits behind the session's request in flight. *)
let arrive t s r =
  if t.busy.(s) then begin
    Queue.push r t.waiting.(s);
    None
  end
  else begin
    t.busy.(s) <- true;
    Some r
  end

(* Session [s]'s request completed: the next waiting one, if any, goes. *)
let complete t s =
  match Queue.take_opt t.waiting.(s) with
  | Some r -> Some r
  | None ->
      t.busy.(s) <- false;
      None

let idle t = not (Array.exists Fun.id t.busy)

(* Latency sample of one request: a failed request misses every limit. *)
let latency ~due ~finished ~ok = if ok then finished -. due else infinity

type kind = Commit | Pull | View

let kind_name = function Commit -> "commit" | Pull -> "pull" | View -> "view"

(* The outcome of one request from its decoded response ([None] when no
   response came): only the response the request kind expects is a
   success; error, conflict and overload responses and timeouts fail. *)
let outcome kind (resp : Wire.response option) : (unit, string) result =
  match (kind, resp) with
  | _, None -> Error "timeout"
  | Commit, Some (Wire.Resp_ok _)
  | Pull, Some (Wire.Resp_update _)
  | View, Some (Wire.Resp_view _) ->
      Ok ()
  | _, Some (Wire.Resp_error (Error.Overload, _)) -> Error "overload"
  | _, Some (Wire.Resp_error _) -> Error "error"
  | _, Some (Wire.Resp_conflict _) -> Error "conflict"
  | _, Some _ -> Error "unexpected response"
