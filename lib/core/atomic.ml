(** Transactional execution of entangled updates: all-or-nothing
    [set_a]/[set_b]/[put_ab]/[put_ba].

    Every bx instance in this library is a state monad over an immutable
    state value, so a {e snapshot} is just the input state itself and
    {e rollback} is returning it unchanged — {!run} evaluates a stateful
    computation and, if any bx exception escapes ({!Error.of_exn}
    recognises it), answers [Error e] {e paired with the original
    state}.  The caller's state is observably identical to the pre-call
    snapshot: no torn update between the two entangled components can
    survive a failed transaction, which is exactly the all-or-nothing
    reading of (GS)/(SG) for partial bx.

    Exceptions that are {e not} bx errors ([Invalid_argument],
    [Stack_overflow], …) are programming errors and propagate untouched. *)

type ('s, 'a) state = 's -> 'a * 's
(** The shape every [Esm_monad.State.Make(S).t] has, exposed
    polymorphically in ['s]. *)

(** [run m s] executes the transaction [m] from snapshot [s]:
    [(Ok a, s')] on success, [(Error e, s)] — state rolled back — when a
    bx exception aborts it. *)
let run (m : ('s, 'a) state) (s : 's) : ('a, Error.t) result * 's =
  match m s with
  | (a, s') -> (Ok a, s')
  | exception e -> (
      match Error.of_exn e with
      | Some err -> (Error err, s)
      | None -> raise e)

(** [atomic m] is [run m] as a state computation again: the transformer
    form [('s, 'a) t -> ('s, ('a, bx_error) result) t]. *)
let atomic (m : ('s, 'a) state) : ('s, ('a, Error.t) result) state =
 fun s -> run m s

(* ------------------------------------------------------------------ *)
(* Transactional single operations over concrete bx records            *)
(* ------------------------------------------------------------------ *)

let attempt (f : 's -> 'x) (s : 's) : ('x, Error.t) result =
  match f s with
  | x -> Ok x
  | exception e -> (
      match Error.of_exn e with Some err -> Error err | None -> raise e)

let set_a (bx : ('a, 'b, 's) Concrete.set_bx) (a : 'a) (s : 's) :
    ('s, Error.t) result =
  attempt (bx.Concrete.set_a a) s

let set_b (bx : ('a, 'b, 's) Concrete.set_bx) (b : 'b) (s : 's) :
    ('s, Error.t) result =
  attempt (bx.Concrete.set_b b) s

let put_ab (p : ('a, 'b, 's) Concrete.put_bx) (a : 'a) (s : 's) :
    ('b * 's, Error.t) result =
  attempt (p.Concrete.put_ab a) s

let put_ba (p : ('a, 'b, 's) Concrete.put_bx) (b : 'b) (s : 's) :
    ('a * 's, Error.t) result =
  attempt (p.Concrete.put_ba b) s

let exec_command (bx : ('a, 'b, 's) Concrete.set_bx)
    (cmd : ('a, 'b) Command.t) (s : 's) : ('s, Error.t) result =
  attempt (Command.exec bx cmd) s

(* ------------------------------------------------------------------ *)
(* Hardening: absorb failures into no-ops                              *)
(* ------------------------------------------------------------------ *)

(** [harden bx] behaves like [bx] except that a failing setter leaves
    the state unchanged instead of raising — each [set] becomes its own
    committed-or-rolled-back transaction.  Getters are untouched (they
    cannot tear state; a failing getter still raises). *)
let harden (bx : ('a, 'b, 's) Concrete.set_bx) : ('a, 'b, 's) Concrete.set_bx
    =
  {
    bx with
    Concrete.name = "atomic(" ^ bx.Concrete.name ^ ")";
    set_a =
      (fun a s ->
        match set_a bx a s with Ok s' -> s' | Error _ -> s);
    set_b =
      (fun b s ->
        match set_b bx b s with Ok s' -> s' | Error _ -> s);
  }

(** [harden_packed p] hardens the underlying bx and records the wrapping
    in the pedigree ([Pedigree.Atomic]) so static analysis knows the
    pipeline is rollback-protected. *)
let harden_packed (p : ('a, 'b) Concrete.packed) : ('a, 'b) Concrete.packed =
  match p with
  | Concrete.Packed r ->
      Concrete.Packed
        {
          r with
          Concrete.bx = harden r.Concrete.bx;
          pedigree = Pedigree.Atomic r.Concrete.pedigree;
        }
