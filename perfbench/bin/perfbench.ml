(* perfbench run --workload W --seed N --seconds S --trace 0|1
   perfbench serve W SEED ADDR DIR      (the server child) *)

open Esm_perfbench

let usage () =
  prerr_endline
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1\n\
    \       perfbench serve WORKLOAD SEED ADDR DIR";
  exit 2

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "serve"; workload; seed; addr; dir ] ->
      Child.serve ~workload ~seed:(int_of_string seed) ~addr ~dir
  | "run" :: args -> (
      let rec opts acc = function
        | k :: v :: rest when String.starts_with ~prefix:"--" k -> opts ((k, v) :: acc) rest
        | [] -> acc
        | _ -> usage ()
      in
      let o = opts [] args in
      let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
      let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
      match Gen.find (get "--workload") with
      | None ->
          prerr_endline ("perfbench: unknown workload " ^ get "--workload");
          exit 2
      | Some w -> (
          match
            Bench.run ~w ~seed:(int "--seed") ~seconds:(float (int "--seconds"))
              ~trace:(int "--trace" = 1)
          with
          | code -> exit code
          | exception Load.Broken msg ->
              prerr_endline ("perfbench: " ^ msg);
              exit 1))
  | _ -> usage ()
