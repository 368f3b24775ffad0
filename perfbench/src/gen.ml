(* The workloads and their seeded request generator.  Every workload
   serves the employees table through esm_syncd's B lens; the server
   receives only what is generated here from the seed. *)

open Esm_core
open Esm_relational
open Esm_sync

type persist = In_memory | Durable of Durable_log.fsync_policy
type mix = { commit : float; pull : float; view : float }

type workload = {
  name : string;
  size : int;  (** rows in the initial employees table *)
  persist : persist;
  sessions : int;
  mix : mix;
  rate : float;
      (** open-loop offered ops/s: about a tenth of the closed-loop
          capacity measured on a 2-core Xeon VM, where the client and the
          server share the cores; at half the capacity the tails did not
          repeat from run to run *)
}

(* Every workload issues a few views so that each reports the same set
   of end-to-end metrics. *)
let workloads =
  [
    {
      name = "durable-commit";
      size = 512;
      persist = Durable Durable_log.Fsync_always;
      sessions = 16;
      mix = { commit = 0.60; pull = 0.25; view = 0.15 };
      rate = 600.;
    };
    {
      name = "large-commit";
      size = 4096;
      persist = In_memory;
      sessions = 8;
      mix = { commit = 0.80; pull = 0.10; view = 0.10 };
      rate = 200.;
    };
    {
      name = "read-poll";
      size = 4096;
      persist = Durable (Durable_log.Fsync_every 8);
      sessions = 64;
      mix = { commit = 0.05; pull = 0.80; view = 0.15 };
      rate = 800.;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) workloads

(* connections per run: at most nproc, 2 on the machine it was tuned on *)
let conns = 2
let snapshot_every = 8

(* esm_syncd's B lens *)
let eng_lens =
  Query.lens_of_string ~schema:Workload.employees_schema ~key:[ "id" ]
    {|employees | where dept = "Engineering" | select id, name, dept|}

let schema_b =
  Table.schema (Esm_lens.Lens.get eng_lens (Workload.employees ~seed:1 ~size:1))

let codec = Wire.durable_op_codec ~schema_a:Workload.employees_schema ~schema_b

let packed w ~seed =
  Concrete.packed_of_lens ~vwb:false
    ~init:(Workload.employees ~seed ~size:w.size)
    ~eq_state:Table.equal eng_lens

let fsync_policy w =
  match w.persist with Durable p -> Some p | In_memory -> None

(* A fresh store for [w]; persisted workloads start a fresh log in [dir]. *)
let make_store w ~seed ~dir : Wire.rstore =
  let persist =
    Option.map (fun fsync -> Store.persist ~fsync ~dir codec) (fsync_policy w)
  in
  Store.of_packed ~name:"employees" ~snapshot_every
    ~apply_da:Row_delta.apply_all ~apply_db:Row_delta.apply_all ?persist
    (packed w ~seed)

let reopen_store w ~seed ~dir =
  Store.reopen ~name:"employees" ~snapshot_every ~apply_da:Row_delta.apply_all
    ~apply_db:Row_delta.apply_all ?fsync:(fsync_policy w) ~codec ~dir
    (packed w ~seed)

(* {1 Sessions} *)

type session = {
  idx : int;
  name : string;
  side : Session.side;
  rng : Random.State.t;
  owned : Row.t Queue.t;  (** rows this session added and still holds *)
  mutable fresh : int;
}

let sessions w ~seed =
  Array.init w.sessions (fun idx ->
      {
        idx;
        name = Printf.sprintf "s%02d" idx;
        side = (if idx mod 2 = 0 then `A else `B);
        rng = Random.State.make [| seed; idx; 0x5e55 |];
        owned = Queue.create ();
        fresh = 1_000_000 * (idx + 1);
      })

(* Views come from B sessions only (the ~1/5 of the table the lens
   selects); A sessions poll instead, so the overall mix holds when the
   sessions split evenly between the sides. *)
let side_mix m = function
  | `B -> { m with pull = m.pull -. m.view; view = 2. *. m.view }
  | `A -> { m with pull = m.pull +. m.view; view = 0. }

let draw_kind rng m : Openloop.kind =
  let u = Random.State.float rng 1.0 in
  if u < m.commit then Commit else if u < m.commit +. m.pull then Pull else View

let new_row s =
  s.fresh <- s.fresh + 1;
  let id = s.fresh in
  let name = Printf.sprintf "u%d" id in
  match s.side with
  | `A ->
      Row.of_list
        [
          Value.Int id;
          Value.Str name;
          Value.Str [| "Engineering"; "Sales"; "Ops" |].(Random.State.int s.rng 3);
          Value.Int (40_000 + (500 * Random.State.int s.rng 100));
          Value.Str (name ^ "@example.com");
        ]
  | `B -> Row.of_list [ Value.Int id; Value.Str name; Value.Str "Engineering" ]

(* A burst of 1-3 deltas.  The session removes rows it added earlier, so
   the table stays near its initial size however long the run. *)
let deltas s : Row_delta.t list =
  List.init
    (1 + Random.State.int s.rng 3)
    (fun _ ->
      let held = Queue.length s.owned in
      if held >= 2 || (held = 1 && Random.State.bool s.rng) then
        Row_delta.Remove (Queue.pop s.owned)
      else begin
        let r = new_row s in
        Queue.push r s.owned;
        Row_delta.Add r
      end)

let request s (kind : Openloop.kind) : Wire.request =
  match kind with Commit -> Wire.Batch (deltas s) | Pull -> Wire.Pull | View -> Wire.Get
