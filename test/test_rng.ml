(* SplitMix64 PRNG: determinism, ranges, and rough distribution moments. *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 13 in
    Alcotest.(check bool) "in [0,13)" true (v >= 0 && v < 13)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "in [0,3.5)" true (v >= 0. && v < 3.5)
  done

let test_uniform_mean () =
  let rng = Rng.create 5 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.uniform rng 10. 20.
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 15" true (Float.abs (mean -. 15.) < 0.1)

let test_exponential_mean () =
  let rng = Rng.create 9 in
  let n = 100_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (mean -. 2.0) < 0.05)

let test_exponential_positive () =
  let rng = Rng.create 13 in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~mean:1. > 0.)
  done

let test_split_independent () =
  let a = Rng.create 3 in
  let b = Rng.split a in
  (* The split stream must not replay the parent stream. *)
  let equal = ref 0 in
  for _ = 1 to 32 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "split independent" true (!equal < 3)

let test_bool_balance () =
  let rng = Rng.create 17 in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Rng.bool rng then incr trues
  done;
  let frac = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "balanced" true (Float.abs (frac -. 0.5) < 0.02)

let prop_int_nonnegative =
  QCheck.Test.make ~name:"Rng.int is always in range" ~count:1000
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean;
    Alcotest.test_case "exponential positive" `Quick test_exponential_positive;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Qseed.to_alcotest prop_int_nonnegative;
  ]
