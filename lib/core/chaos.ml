(** Deterministic, seed-keyed fault injection for bx pipelines.

    A chaos instance decides, at every registered {e fault site} (a
    [Chaos.point "table.key_index"] call inside lens/table/restorer
    code), whether to raise an injected {!Error.Fault} — purely from the
    instance seed, the site name and a per-site visit counter, so a
    given seed replays the exact same fault schedule on the exact same
    workload.  That determinism is what makes the chaos property suites
    ([test/test_atomic.ml]) and the CI seed matrix reproducible.

    Injection is scoped: {!with_chaos} installs an instance for the
    extent of a thunk, and {!protected} suspends injection — the
    delta→full fallbacks run their oracle under [protected] so a fault
    on the fast path cannot also fault the recovery path.

    When no instance is installed every [point] is a no-op costing one
    ref read, so production code paths pay nothing for carrying the
    sites. *)

type t = {
  seed : int;
  rate_ppm : int;  (** faults per million points *)
  counters : (string, int) Hashtbl.t;  (** per-site visit counts *)
  mutable injected : int;
  mutable fallbacks : int;
}

let make ?(rate = 0.01) ~seed () : t =
  if rate < 0.0 || rate > 1.0 then
    invalid_arg "Chaos.make: rate must be within [0, 1]";
  {
    seed;
    rate_ppm = int_of_float ((rate *. 1_000_000.0) +. 0.5);
    counters = Hashtbl.create 16;
    injected = 0;
    fallbacks = 0;
  }

let current : t option ref = ref None
let suppressed : int ref = ref 0

(* Fallbacks observed across the whole process, chaos installed or not:
   a failed snapshot write degrades gracefully even outside a chaos
   run, and tests assert on this counter. *)
let global_fallbacks : int ref = ref 0

let with_chaos (t : t) (f : unit -> 'a) : 'a =
  let prev = !current in
  current := Some t;
  Fun.protect ~finally:(fun () -> current := prev) f

let protected (f : unit -> 'a) : 'a =
  incr suppressed;
  Fun.protect ~finally:(fun () -> decr suppressed) f

let active () : t option = if !suppressed > 0 then None else !current

(* When set, only the listed sites (by exact name or prefix) inject;
   other sites neither fire nor advance their visit counters, so a
   filtered schedule at the enabled sites matches the unfiltered one. *)
let only_sites : string list option ref = ref None

let at_sites (sites : string list) (f : unit -> 'a) : 'a =
  let prev = !only_sites in
  only_sites := Some sites;
  Fun.protect ~finally:(fun () -> only_sites := prev) f

let site_enabled (site : string) : bool =
  match !only_sites with
  | None -> true
  | Some l ->
      List.exists
        (fun p ->
          String.length site >= String.length p
          && String.sub site 0 (String.length p) = p)
        l

(* The per-(seed, site, visit) decision.  [Hashtbl.hash] hashes
   structurally with a fixed seed, so the schedule is stable across runs
   and machines. *)
let fires (t : t) (site : string) (visit : int) : bool =
  Hashtbl.hash (t.seed, site, visit) mod 1_000_000 < t.rate_ppm

let point (site : string) : unit =
  match active () with
  | None -> ()
  | Some _ when not (site_enabled site) -> ()
  | Some t ->
      let visit =
        match Hashtbl.find_opt t.counters site with Some n -> n | None -> 0
      in
      Hashtbl.replace t.counters site (visit + 1);
      if fires t site visit then begin
        t.injected <- t.injected + 1;
        raise
          (Error.Bx_error
             (Error.v Error.Fault ~op:site
                (Printf.sprintf "injected fault (seed %d, visit %d)" t.seed
                   visit)))
      end

let note_fallback (_site : string) : unit =
  incr global_fallbacks;
  match !current with
  | Some t -> t.fallbacks <- t.fallbacks + 1
  | None -> ()

let injected (t : t) : int = t.injected
let fallbacks (t : t) : int = t.fallbacks
let fallbacks_total () : int = !global_fallbacks

let reset (t : t) : unit =
  Hashtbl.reset t.counters;
  t.injected <- 0;
  t.fallbacks <- 0

(* ------------------------------------------------------------------ *)
(* Wrappers: name-keyed fault sites around existing operations          *)
(* ------------------------------------------------------------------ *)

(** Wrap every operation of a lens in a fault site keyed by the lens
    name — the cheap way to chaos-test a pipeline built from lenses
    that carry no internal sites. *)
let wrap_lens (l : ('s, 'v) Esm_lens.Lens.t) : ('s, 'v) Esm_lens.Lens.t =
  let name = Esm_lens.Lens.name l in
  Esm_lens.Lens.v ~name
    ~get:(fun s ->
      point ("lens.get:" ^ name);
      Esm_lens.Lens.get l s)
    ~put:(fun s v ->
      point ("lens.put:" ^ name);
      Esm_lens.Lens.put l s v)
    ()

(** Wrap the four operations of a set-bx in fault sites keyed by the bx
    name. *)
let wrap_bx (bx : ('a, 'b, 's) Concrete.set_bx) : ('a, 'b, 's) Concrete.set_bx
    =
  {
    bx with
    Concrete.get_a =
      (fun s ->
        point ("bx.get_a:" ^ bx.Concrete.name);
        bx.Concrete.get_a s);
    get_b =
      (fun s ->
        point ("bx.get_b:" ^ bx.Concrete.name);
        bx.Concrete.get_b s);
    set_a =
      (fun a s ->
        point ("bx.set_a:" ^ bx.Concrete.name);
        bx.Concrete.set_a a s);
    set_b =
      (fun b s ->
        point ("bx.set_b:" ^ bx.Concrete.name);
        bx.Concrete.set_b b s);
  }
