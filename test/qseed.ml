(* Every QCheck property in the suite draws from one seed: a fixed default
   that [QCHECK_SEED] overrides, so [dune runtest] gives the same verdict
   on every run. A failing property names the seed that reproduces it.

   [dune build @test/qcheck-sweep] reruns only the properties, each over
   seeds 1..[QCHECK_SWEEP], so the fixed default cannot hide a defect. *)

let default_seed = 1

let seed () =
  match Sys.getenv_opt "QCHECK_SEED" with
  | None -> default_seed
  | Some s -> (
      match int_of_string_opt s with
      | Some n -> n
      | None -> invalid_arg ("QCHECK_SEED is not an integer: " ^ s))

(* Every property built through [to_alcotest], for the sweep. *)
let registered : QCheck2.Test.t list ref = ref []

let rand seed = Random.State.make [| seed |]

let to_alcotest prop =
  registered := prop :: !registered;
  let seed = seed () in
  let name, speed, run = QCheck_alcotest.to_alcotest ~rand:(rand seed) prop in
  ( name,
    speed,
    fun () ->
      try run ()
      with e ->
        Printf.printf "%s failed at QCHECK_SEED=%d\n%!" name seed;
        raise e )

(* Runs every registered property at seeds 1..[seeds]; exits nonzero
   after reporting each failing (property, seed) pair. *)
let sweep ~seeds =
  let props = List.rev !registered in
  let failures = ref 0 in
  List.iter
    (fun prop ->
      let (QCheck2.Test.Test cell) = prop in
      let name = QCheck2.Test.get_name cell in
      for seed = 1 to seeds do
        match QCheck2.Test.check_exn ~rand:(rand seed) prop with
        | () -> ()
        | exception e ->
            incr failures;
            Printf.printf "FAIL %s at QCHECK_SEED=%d: %s\n%!" name seed
              (Printexc.to_string e)
      done;
      Printf.printf "%s: %d seeds\n%!" name seeds)
    props;
  if !failures > 0 then begin
    Printf.printf "%d failing (property, seed) pairs\n" !failures;
    exit 1
  end
