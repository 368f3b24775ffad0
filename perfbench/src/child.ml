(* The server under test, in a child process: the library's
   Transport.Server over Wire.serve of a Store — the same path as
   [esm_syncd --listen] — with the workload's table size and
   persistence.  It prints [ready <addr>] once listening and, after a
   SIGTERM drain, one [stats] line. *)

open Esm_sync

type stats = {
  head : int;
  executed : int;
  dedup_hits : int;
  overloads : int;
  cpu_s : float;  (** user + system time of the child *)
  wall_s : float;  (** from the child's start to its drain *)
}

(* The process's peak RSS so far (VmHWM), 0 where /proc has none. *)
let max_rss_kb pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
      List.find_map
        (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
        (String.split_on_char '\n' s)
      |> Option.value ~default:0

(* The child's main: runs in the spawned process. *)
let serve ~workload ~seed ~addr ~dir =
  let t0 = Unix.gettimeofday () in
  let w = Option.get (Gen.find workload) in
  let store = Gen.make_store w ~seed ~dir in
  let addr =
    match Transport.addr_of_string addr with
    | Ok a -> a
    | Error e -> failwith (Esm_core.Error.message e)
  in
  let srv = Transport.Server.listen addr (Wire.serve store) in
  Printf.printf "ready %s\n%!" (Transport.string_of_addr (Transport.Server.addr srv));
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Transport.Server.request_shutdown srv));
  Transport.Server.run srv;
  let st = Transport.Core.stats (Transport.Server.core srv) in
  let tm = Unix.times () in
  Printf.printf "stats %d %d %d %d %.6f %.6f\n%!" (Store.version store)
    st.executed st.dedup_hits st.overloads
    (tm.Unix.tms_utime +. tm.tms_stime)
    (Unix.gettimeofday () -. t0);
  Store.close store

type t = { pid : int; out : in_channel; addr : Unix.sockaddr }

let spawn ~workload ~seed ~(addr : string) ~dir : t =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; workload; string_of_int seed; addr; dir |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  match Scanf.sscanf (input_line out) "ready %s" Fun.id with
  | a -> (
      match Transport.addr_of_string a with
      | Ok addr -> { pid; out; addr }
      | Error e -> failwith (Esm_core.Error.message e))
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e

(* SIGTERM, read the stats line, reap the child. *)
let stop t : stats option =
  Unix.kill t.pid Sys.sigterm;
  let st =
    match input_line t.out with
    | line ->
        Scanf.sscanf_opt line "stats %d %d %d %d %f %f"
          (fun head executed dedup_hits overloads cpu_s wall_s ->
            { head; executed; dedup_hits; overloads; cpu_s; wall_s })
    | exception End_of_file -> None
  in
  close_in t.out;
  ignore (Unix.waitpid [] t.pid);
  st

let kill t =
  (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try close_in t.out with Sys_error _ -> ());
  ignore (Unix.waitpid [] t.pid)
