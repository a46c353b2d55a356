(* Streaming statistics: Welford exactness, t-digest rank-error bound
   (property-tested over seeded samples), reservoir determinism,
   streaming-vs-exact equivalence on real runner output, edge cases
   (all-censored, single record), and byte-identical streaming results
   whether a run happened in this process or in a forked child. *)

let seeded_sample ~seed ~n sampler =
  let rng = Rng.create seed in
  List.init n (fun _ -> sampler rng)

let exact_mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* ---- Welford ------------------------------------------------------------- *)

let test_welford_exact () =
  let xs = seeded_sample ~seed:7 ~n:10_000 (fun rng -> Rng.float rng 50.) in
  let w = Welford.create () in
  List.iter (Welford.add w) xs;
  Alcotest.(check int) "count" 10_000 (Welford.count w);
  Alcotest.(check (float 1e-9)) "mean matches direct sum" (exact_mean xs)
    (Welford.mean w);
  let m = exact_mean xs in
  (* Population variance (M2/n), per the Welford interface. *)
  let var =
    List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs
    /. float_of_int (List.length xs)
  in
  Alcotest.(check (float 1e-6)) "variance matches two-pass" var
    (Welford.variance w);
  Alcotest.(check (float 1e-12)) "min" (Summary.min xs) (Welford.min w);
  Alcotest.(check (float 1e-12)) "max" (Summary.max xs) (Welford.max w)

let test_welford_empty_nan () =
  let w = Welford.create () in
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Welford.mean w));
  Alcotest.(check bool) "empty variance nan" true
    (Float.is_nan (Welford.variance w))

(* ---- t-digest ------------------------------------------------------------ *)

(* The estimate at quantile q must fall between the exact values at
   quantiles q ± rank_error: the digest may misplace a value's rank by at
   most the bound, never fabricate one outside the bracket. *)
let check_quantile_within_bound ~msg td sorted q =
  let n = Array.length sorted in
  let err = Tdigest.rank_error td q in
  let at p =
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1)
                            (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  let lo = at (Stdlib.max 0.001 (q -. err))
  and hi = at (Stdlib.min 1. (q +. err))
  and est = Tdigest.quantile td q in
  Alcotest.(check bool)
    (Printf.sprintf "%s: q=%.3f est=%g in [%g, %g] (err %.4f)" msg q est lo hi
       err)
    true
    (est >= lo && est <= hi)

let digest_of xs =
  let td = Tdigest.create () in
  List.iter (Tdigest.add td) xs;
  td

let test_tdigest_rank_error_bound () =
  List.iter
    (fun (name, seed, sampler) ->
      let xs = seeded_sample ~seed ~n:20_000 sampler in
      let td = digest_of xs in
      let sorted = Array.of_list xs in
      Array.sort Float.compare sorted;
      List.iter
        (fun q -> check_quantile_within_bound ~msg:name td sorted q)
        [ 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 0.999 ])
    [
      ("uniform", 21, fun rng -> Rng.float rng 1.);
      ("heavy-tail", 22, fun rng -> Float.exp (10. *. Rng.float rng 1.));
      ("bimodal", 23,
       fun rng ->
         if Rng.float rng 1. < 0.5 then Rng.float rng 0.01
         else 100. +. Rng.float rng 1.);
    ]

let test_tdigest_property () =
  (* Property: on arbitrary-seeded uniform samples, the median estimate
     stays inside the rank-error bracket and the extremes are exact. *)
  let prop =
    QCheck.Test.make ~count:50 ~name:"tdigest median within bound"
      QCheck.(pair small_nat (int_range 100 3000))
      (fun (seed, n) ->
        let xs = seeded_sample ~seed ~n (fun rng -> Rng.float rng 1000.) in
        let td = digest_of xs in
        let sorted = Array.of_list xs in
        Array.sort Float.compare sorted;
        let err = Tdigest.rank_error td 0.5 in
        let at p =
          sorted.(Stdlib.max 0
                    (Stdlib.min (n - 1)
                       (int_of_float (ceil (p *. float_of_int n)) - 1)))
        in
        let est = Tdigest.quantile td 0.5 in
        est >= at (0.5 -. err)
        && est <= at (0.5 +. err)
        && Tdigest.quantile td 0. = sorted.(0)
        && Tdigest.quantile td 1. = sorted.(n - 1))
  in
  QCheck.Test.check_exn prop

let test_tdigest_edges () =
  let td = Tdigest.create () in
  Alcotest.(check bool) "empty quantile nan" true
    (Float.is_nan (Tdigest.quantile td 0.5));
  Tdigest.add td 42.;
  Alcotest.(check (float 1e-12)) "single value p50" 42.
    (Tdigest.quantile td 0.5);
  Alcotest.(check (float 1e-12)) "single value p0" 42. (Tdigest.quantile td 0.);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Tdigest.quantile: q out of range") (fun () ->
      ignore (Tdigest.quantile td 1.5));
  Alcotest.check_raises "nan add rejected"
    (Invalid_argument "Tdigest.add: nan sample") (fun () -> Tdigest.add td nan)

(* ---- reservoir ----------------------------------------------------------- *)

let test_reservoir_deterministic () =
  let fill () =
    let r = Reservoir.create ~k:64 ~seed:9 in
    for i = 1 to 10_000 do
      Reservoir.add r i
    done;
    r
  in
  Alcotest.(check (list int)) "same seed, same sample"
    (Reservoir.sample (fill ()))
    (Reservoir.sample (fill ()));
  let r = fill () in
  Alcotest.(check int) "seen counts the population" 10_000 (Reservoir.seen r);
  Alcotest.(check int) "sample capped at k" 64
    (List.length (Reservoir.sample r))

let test_reservoir_small_population () =
  let r = Reservoir.create ~k:100 ~seed:1 in
  for i = 1 to 10 do
    Reservoir.add r i
  done;
  Alcotest.(check (list int)) "under capacity keeps everything in order"
    [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (Reservoir.sample r)

(* ---- streaming Fct vs exact Fct on runner output ------------------------- *)

let run_both ?horizon scenario =
  let exact = Runner.run ?horizon Runner.Dctcp scenario in
  let streaming = Runner.run ?horizon ~stats:`Streaming Runner.Dctcp scenario in
  (exact, streaming)

let test_streaming_matches_exact_on_run () =
  let scenario =
    Scenario.intra_rack_medium ~num_flows:400 ~seed:5 ~load:0.6 ()
  in
  let exact, streaming = run_both scenario in
  Alcotest.(check int) "completed equal" exact.Runner.completed
    streaming.Runner.completed;
  Alcotest.(check int) "censored equal" exact.Runner.censored
    streaming.Runner.censored;
  Alcotest.(check int) "events equal (same simulation)" exact.Runner.events
    streaming.Runner.events;
  (* Means are exact in both modes (Welford vs. list sum). *)
  Alcotest.(check (float 1e-12)) "afct equal" exact.Runner.afct
    streaming.Runner.afct;
  (* Deadline fraction is an exact counter in streaming mode. *)
  Alcotest.(check bool) "deadline fraction equal" true
    (exact.Runner.app_throughput = streaming.Runner.app_throughput
    || Float.is_nan exact.Runner.app_throughput
       && Float.is_nan streaming.Runner.app_throughput);
  (* Percentiles agree within the sketch's rank-error bound. *)
  let fcts = Array.of_list (Fct.completed_fcts exact.Runner.fct) in
  Array.sort Float.compare fcts;
  let n = Array.length fcts in
  let at p =
    fcts.(Stdlib.max 0 (Stdlib.min (n - 1)
                          (int_of_float (ceil (p *. float_of_int n)) - 1)))
  in
  List.iter
    (fun (q, streamed) ->
      let err = Fct.quantile_rank_error streaming.Runner.fct (q *. 100.) in
      Alcotest.(check bool)
        (Printf.sprintf "p%g within rank bound %.4f" (q *. 100.) err)
        true
        (streamed >= at (Stdlib.max 0.001 (q -. err))
        && streamed <= at (Stdlib.min 1. (q +. err))))
    [ (0.5, Fct.percentile streaming.Runner.fct 50.);
      (0.99, streaming.Runner.p99);
      (0.999, streaming.Runner.p999) ];
  (* Task metrics are exact in streaming mode. *)
  Alcotest.(check (list (float 1e-12))) "task completion times equal"
    (List.sort Float.compare (Fct.task_completion_times exact.Runner.fct))
    (List.sort Float.compare (Fct.task_completion_times streaming.Runner.fct))

let test_all_censored_both_modes () =
  (* Collections where nothing completed — the high-load run that used to
     crash Fct.percentile/p99. Every completed-only metric must degrade to
     nan (like afct), not raise. *)
  List.iter
    (fun (mode, f) ->
      for i = 1 to 5 do
        Fct.add f ~flow:i ~size_pkts:8 ~start_time:0. ~fct:0.5 ~deadline:0.01
          ~censored:true ()
      done;
      Alcotest.(check int) (mode ^ ": all censored") 5 (Fct.censored_count f);
      Alcotest.(check bool) (mode ^ ": afct nan") true
        (Float.is_nan (Fct.afct f));
      Alcotest.(check bool) (mode ^ ": p99 nan") true
        (Float.is_nan (Fct.percentile f 99.));
      Alcotest.(check bool) (mode ^ ": p50 nan") true
        (Float.is_nan (Fct.percentile f 50.));
      Alcotest.(check (list (pair (float 0.) (float 0.))))
        (mode ^ ": empty cdf") [] (Fct.cdf f);
      Alcotest.(check (float 1e-12)) (mode ^ ": deadlines all missed") 0.
        (Fct.deadline_met_fraction f))
    [ ("exact", Fct.create ()); ("streaming", Fct.create_streaming ()) ];
  (* And the degenerate run whose horizon expires before anything happens:
     empty collection end to end, still no raise. *)
  let scenario = Scenario.intra_rack_medium ~num_flows:30 ~seed:3 ~load:0.5 () in
  let exact, streaming = run_both ~horizon:1e-9 scenario in
  List.iter
    (fun (mode, (r : Runner.result)) ->
      Alcotest.(check int) (mode ^ ": nothing completed") 0 r.Runner.completed;
      Alcotest.(check bool) (mode ^ ": afct nan") true
        (Float.is_nan r.Runner.afct);
      Alcotest.(check bool) (mode ^ ": p99 nan") true
        (Float.is_nan r.Runner.p99);
      Alcotest.(check bool) (mode ^ ": p999 nan") true
        (Float.is_nan r.Runner.p999);
      Alcotest.(check (list (pair (float 0.) (float 0.))))
        (mode ^ ": empty cdf") [] (Fct.cdf r.Runner.fct))
    [ ("exact", exact); ("streaming", streaming) ]

let test_single_record () =
  List.iter
    (fun (mode, f) ->
      Fct.add f ~flow:1 ~size_pkts:4 ~start_time:0. ~fct:0.002 ();
      Alcotest.(check (float 1e-12)) (mode ^ ": afct") 0.002 (Fct.afct f);
      Alcotest.(check (float 1e-12)) (mode ^ ": p99") 0.002
        (Fct.percentile f 99.);
      Alcotest.(check int) (mode ^ ": count") 1 (Fct.count f))
    [ ("exact", Fct.create ()); ("streaming", Fct.create_streaming ()) ]

(* ---- serial vs forked runs ----------------------------------------------- *)

let test_parallel_streaming_determinism () =
  let runs =
    List.map
      (fun seed () ->
        Runner.run ~stats:`Streaming Runner.Dctcp
          (Scenario.intra_rack_medium ~num_flows:120 ~seed ~load:0.5 ()))
      [ 11; 12; 13; 14 ]
  in
  let serial = List.map (fun run -> run ()) runs in
  let forked = List.map Forked.run runs in
  List.iteri
    (fun i (s, f) ->
      Alcotest.(check string)
        (Printf.sprintf "job %d: serial and forked results byte-identical" i)
        (Result_codec.encode s) (Result_codec.encode f))
    (List.combine serial forked)

let suite =
  [
    Alcotest.test_case "welford exact" `Quick test_welford_exact;
    Alcotest.test_case "welford empty" `Quick test_welford_empty_nan;
    Alcotest.test_case "tdigest rank-error bound" `Quick
      test_tdigest_rank_error_bound;
    Alcotest.test_case "tdigest property (qcheck)" `Slow test_tdigest_property;
    Alcotest.test_case "tdigest edges" `Quick test_tdigest_edges;
    Alcotest.test_case "reservoir deterministic" `Quick
      test_reservoir_deterministic;
    Alcotest.test_case "reservoir small population" `Quick
      test_reservoir_small_population;
    Alcotest.test_case "streaming matches exact on run" `Quick
      test_streaming_matches_exact_on_run;
    Alcotest.test_case "all-censored degrades to nan" `Quick
      test_all_censored_both_modes;
    Alcotest.test_case "single record" `Quick test_single_record;
    Alcotest.test_case "parallel streaming determinism" `Quick
      test_parallel_streaming_determinism;
  ]
