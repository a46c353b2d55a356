(* Scenarios and the runner: schedule construction, load accounting, and
   end-to-end integration runs for every protocol. *)

let build sc =
  let e = Engine.create () in
  let c = Counters.create () in
  let plan =
    Scenario.build sc e c ~qdisc:(fun ~rate_bps:_ ->
        Queue_disc.droptail c ~limit_pkts:100)
  in
  plan

let test_left_right_plan () =
  let sc = Scenario.left_right ~num_flows:200 ~seed:5 ~load:0.6 () in
  let plan = build sc in
  Alcotest.(check int) "160 hosts" 160
    (Array.length plan.Scenario.topo.Topology.hosts);
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  Alcotest.(check int) "200 measured flows" 200 (List.length measured);
  Alcotest.(check int) "2 background" 2
    (List.length plan.Scenario.specs - List.length measured);
  (* Left to right only. *)
  let hosts = plan.Scenario.topo.Topology.hosts in
  let left = Array.sub hosts 0 80 and right = Array.sub hosts 80 80 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "src in left" true
        (Array.exists (fun h -> h = s.Scenario.src) left);
      Alcotest.(check bool) "dst in right" true
        (Array.exists (fun h -> h = s.Scenario.dst) right))
    measured;
  (* Arrival rate: load x 10G / mean bits. *)
  let expect = 0.6 *. 10e9 /. (8. *. 100e3) in
  Alcotest.(check bool) "arrival rate" true
    (Float.abs (plan.Scenario.arrival_rate -. expect) /. expect < 1e-9)

let test_starts_sorted_and_positive () =
  let sc = Scenario.left_right ~num_flows:100 ~seed:2 ~load:0.5 () in
  let plan = build sc in
  let rec sorted = function
    | a :: (b :: _ as rest) ->
        a.Scenario.start <= b.Scenario.start && sorted rest
    | _ -> true
  in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  Alcotest.(check bool) "arrivals sorted" true (sorted measured);
  List.iter
    (fun s -> Alcotest.(check bool) "positive sizes" true (s.Scenario.size_bytes > 0))
    measured

let test_deadline_scenario_has_deadlines () =
  let sc = Scenario.deadline_intra_rack ~num_flows:50 ~seed:1 ~load:0.4 () in
  let plan = build sc in
  List.iter
    (fun s ->
      if not s.Scenario.long_lived then begin
        match s.Scenario.deadline with
        | Some d ->
            Alcotest.(check bool) "deadline in [5,25] ms" true
              (d >= 0.005 && d <= 0.025)
        | None -> Alcotest.fail "missing deadline"
      end)
    plan.Scenario.specs

let test_sizes_in_range () =
  let sc = Scenario.left_right ~num_flows:300 ~seed:9 ~load:0.5 () in
  let plan = build sc in
  List.iter
    (fun s ->
      if not s.Scenario.long_lived then
        Alcotest.(check bool) "size in [2,198] KB" true
          (s.Scenario.size_bytes >= 2_000 && s.Scenario.size_bytes <= 198_000))
    plan.Scenario.specs

let test_incast_structure () =
  let sc = Scenario.worker_aggregator ~hosts:10 ~num_flows:90 ~seed:3 ~load:0.5 () in
  let plan = build sc in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  (* 90 flows / fanout 9 = 10 queries of 9 flows each, same start and dst. *)
  Alcotest.(check int) "90 flows" 90 (List.length measured);
  let by_start = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let k = s.Scenario.start in
      Hashtbl.replace by_start k
        (s :: (try Hashtbl.find by_start k with Not_found -> [])))
    measured;
  Alcotest.(check int) "10 queries" 10 (Hashtbl.length by_start);
  (* Det_tbl, not Hashtbl.iter: a failing assertion must name the same
     query on every run, not whichever group the hash order visits first
     (flagged by the typed-tier determinism-taint pass). *)
  Det_tbl.iter
    (fun _ flows ->
      Alcotest.(check int) "9 workers per query" 9 (List.length flows);
      let dsts = List.sort_uniq compare (List.map (fun s -> s.Scenario.dst) flows) in
      Alcotest.(check int) "one aggregator" 1 (List.length dsts);
      List.iter
        (fun s ->
          Alcotest.(check bool) "worker is not aggregator" true
            (s.Scenario.src <> s.Scenario.dst))
        flows)
    by_start

let test_testbed_pattern () =
  let sc = Scenario.testbed ~num_flows:40 ~seed:4 ~load:0.3 () in
  let plan = build sc in
  let hosts = plan.Scenario.topo.Topology.hosts in
  let server = hosts.(9) in
  List.iter
    (fun s ->
      if not s.Scenario.long_lived then begin
        Alcotest.(check int) "all to the server" server s.Scenario.dst;
        Alcotest.(check bool) "client src" true (s.Scenario.src <> server)
      end)
    plan.Scenario.specs

let test_determinism_of_build () =
  let sc () = Scenario.left_right ~num_flows:50 ~seed:7 ~load:0.5 () in
  let p1 = build (sc ()) and p2 = build (sc ()) in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "identical schedule" true
        (a.Scenario.src = b.Scenario.src
        && a.Scenario.dst = b.Scenario.dst
        && a.Scenario.size_bytes = b.Scenario.size_bytes
        && a.Scenario.start = b.Scenario.start))
    p1.Scenario.specs p2.Scenario.specs

let test_load_bounds () =
  let e = Engine.create () in
  let c = Counters.create () in
  let sc =
    { (Scenario.left_right ~num_flows:10 ~load:0.5 ()) with Scenario.load = 0. }
  in
  Alcotest.check_raises "zero load" (Invalid_argument "Scenario.build: load")
    (fun () ->
      ignore
        (Scenario.build sc e c ~qdisc:(fun ~rate_bps:_ ->
             Queue_disc.droptail c ~limit_pkts:10)))

(* Integration: a small run per protocol completes all flows and produces
   sane metrics. *)
let integration proto () =
  let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:60 ~seed:11 ~load:0.5 () in
  let r = Runner.run proto sc in
  Alcotest.(check int) "all completed" 60 r.Runner.completed;
  Alcotest.(check int) "none censored" 0 r.Runner.censored;
  Alcotest.(check bool) "afct positive" true (r.Runner.afct > 0.);
  Alcotest.(check bool) "p99 >= afct" true (r.Runner.p99 >= r.Runner.afct);
  Alcotest.(check bool) "duration sane" true
    (r.Runner.duration > 0. && r.Runner.duration < 10.)

let test_runner_deterministic () =
  let sc () = Scenario.worker_aggregator ~hosts:6 ~num_flows:40 ~seed:2 ~load:0.6 () in
  let r1 = Runner.run Runner.pase (sc ()) in
  let r2 = Runner.run Runner.pase (sc ()) in
  Alcotest.(check (float 0.)) "identical afct" r1.Runner.afct r2.Runner.afct;
  Alcotest.(check int) "identical msgs" r1.Runner.ctrl_msgs r2.Runner.ctrl_msgs

let test_runner_deadline_metric () =
  let sc = Scenario.deadline_intra_rack ~num_flows:60 ~seed:5 ~load:0.3 () in
  let r = Runner.run Runner.pase sc in
  Alcotest.(check bool) "app throughput defined" true
    (not (Float.is_nan r.Runner.app_throughput));
  Alcotest.(check bool) "in [0,1]" true
    (r.Runner.app_throughput >= 0. && r.Runner.app_throughput <= 1.)

let test_runner_pase_local_variant () =
  let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:8 ~load:0.5 () in
  let r =
    Runner.run (Runner.Pase { Config.default with Config.local_only = true }) sc
  in
  Alcotest.(check string) "named variant" "PASE-local" r.Runner.protocol;
  Alcotest.(check int) "completes" 30 r.Runner.completed

(* ---- empirical CDF layer ------------------------------------------------ *)

let icdf_of d =
  match d.Dist.icdf with
  | Some f -> f
  | None -> Alcotest.failf "%s: no inverse CDF" d.Dist.name

let test_icdf_monotone () =
  List.iter
    (fun (name, d) ->
      let inv = icdf_of d in
      let prev = ref (inv 0.) in
      for i = 1 to 1000 do
        let u = float_of_int i /. 1000. in
        let v = inv u in
        if v < !prev then
          Alcotest.failf "%s: icdf not monotone at u=%g" name u;
        prev := v
      done;
      (* out-of-range arguments clamp rather than extrapolate *)
      Alcotest.(check (float 0.)) "clamp low" (inv 0.) (inv (-0.5));
      Alcotest.(check (float 0.)) "clamp high" (inv 1.) (inv 1.5))
    Dist.builtins

let test_icdf_exact_knots () =
  (* A hand-built table: the inverse CDF must hit every knot exactly. *)
  let knots = [ (100., 0.); (1_000., 0.5); (10_000., 0.9); (50_000., 1.) ] in
  let d =
    match Dist.of_cdf_points ~name:"knots" knots with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let inv = icdf_of d in
  List.iter
    (fun (v, p) -> Alcotest.(check (float 0.)) "knot value" v (inv p))
    knots;
  (* and interpolate linearly between them *)
  Alcotest.(check (float 1e-9)) "midpoint" 550. (inv 0.25);
  (* built-in hadoop knots (spot checks against the published shape) *)
  let h = icdf_of Dist.hadoop_bytes in
  Alcotest.(check (float 0.)) "hadoop min" 150. (h 0.);
  Alcotest.(check (float 0.)) "hadoop p12" 300. (h 0.12);
  Alcotest.(check (float 0.)) "hadoop median" 1_000. (h 0.5);
  Alcotest.(check (float 0.)) "hadoop max" 400_000_000. (h 1.)

let test_cdf_sampling_deterministic () =
  let draw () =
    let rng = Rng.create 42 in
    List.init 1000 (fun _ -> Dist.web_search_bytes.Dist.sample rng)
  in
  let a = draw () and b = draw () in
  Alcotest.(check bool) "identical sample streams" true (a = b)

let test_builtin_lookup () =
  List.iter
    (fun name ->
      match Dist.builtin name with
      | Some _ -> ()
      | None -> Alcotest.failf "builtin %s not found" name)
    [ "websearch"; "web-search"; "Web_Search"; "datamining"; "hadoop" ];
  Alcotest.(check bool) "unknown name" true (Dist.builtin "nonesuch" = None)

(* Empirical CDF of 50k samples must match the source CDF: for any
   probability u, the fraction of samples <= icdf(u) is u up to sampling
   noise (binomial stderr at n=50k is ~0.0022; 0.02 is a 9-sigma gate). *)
let prop_empirical_quantiles =
  let samples =
    lazy
      (let rng = Rng.create 7 in
       let a =
         Array.init 50_000 (fun _ -> Dist.web_search_bytes.Dist.sample rng)
       in
       Array.sort Float.compare a;
       a)
  in
  let frac_le a v =
    (* binary search: count of samples <= v *)
    let lo = ref 0 and hi = ref (Array.length a) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) <= v then lo := mid + 1 else hi := mid
    done;
    float_of_int !lo /. float_of_int (Array.length a)
  in
  QCheck.Test.make ~name:"empirical quantiles track the source CDF" ~count:50
    QCheck.(float_range 0.02 0.98)
    (fun u ->
      let a = Lazy.force samples in
      let inv = icdf_of Dist.web_search_bytes in
      Float.abs (frac_le a (inv u) -. u) <= 0.02)

let with_temp_cdf contents f =
  let path = Filename.temp_file "pase-cdf" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_cdf_file_ok () =
  with_temp_cdf "# bytes cum-prob\n1000 0.0\n10000\t0.5\n\n100000 1.0\n"
    (fun path ->
      match Dist.of_cdf_file path with
      | Error e -> Alcotest.fail e
      | Ok d ->
          Alcotest.(check (float 1e-9)) "table mean" 30_250. d.Dist.mean;
          Alcotest.(check (float 0.)) "knot" 10_000. ((icdf_of d) 0.5))

(* Two tables that share a file name and a mean but differ in shape must
   not share a result-cache entry. *)
let test_cdf_cache_key_shape () =
  let table dir contents =
    let dir = Filename.temp_dir "pase-cdf" dir in
    let path = Filename.concat dir "my.cdf" in
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    let d = Dist.of_cdf_file path in
    Sys.remove path;
    Sys.rmdir dir;
    match d with Ok d -> d | Error e -> Alcotest.fail e
  in
  let a = table "a" "1000 0\n2000 0.5\n3000 1\n" in
  let b = table "b" "1500 0\n2000 0.5\n2500 1\n" in
  Alcotest.(check string) "same name" a.Dist.name b.Dist.name;
  Alcotest.(check (float 0.)) "same mean" a.Dist.mean b.Dist.mean;
  let key d =
    Parallel.job_key Runner.pase
      (Scenario.with_sizes
         (Scenario.testbed ~num_flows:100 ~seed:1 ~load:0.5 ())
         d)
  in
  Alcotest.(check bool) "different job keys" true (key a <> key b)

let test_cdf_file_malformed () =
  let expect_error label contents =
    with_temp_cdf contents (fun path ->
        match Dist.of_cdf_file path with
        | Ok _ -> Alcotest.failf "%s: accepted malformed table" label
        | Error e ->
            Alcotest.(check bool)
              (label ^ ": error names the file") true
              (String.length e > 0
              && String.sub e 0 (String.length path) = path))
  in
  expect_error "non-numeric" "1000 0.0\nfoo 0.5\n2000 1.0\n";
  expect_error "missing column" "1000 0.0\n2000\n3000 1.0\n";
  expect_error "decreasing prob" "1000 0.0\n2000 0.6\n3000 0.4\n4000 1.0\n";
  expect_error "last prob not 1" "1000 0.0\n2000 0.9\n";
  expect_error "negative value" "-5 0.0\n2000 1.0\n";
  expect_error "prob out of range" "1000 0.0\n2000 1.5\n";
  expect_error "empty table" "# only comments\n"

(* ---- scenario generators ------------------------------------------------ *)

let test_hotspot_bias () =
  let sc =
    Scenario.hotspot ~k:4 ~hot_racks:1 ~hot_weight:0.8 ~num_flows:600 ~seed:3
      ~load:0.5 ()
  in
  let plan = build sc in
  let hosts = plan.Scenario.topo.Topology.hosts in
  (* hosts.(i) hangs off edge switch i/(k/2): the first k/2 hosts are the
     hot rack for hot_racks = 1, k = 4 *)
  let hot = Array.sub hosts 0 2 in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  let in_hot =
    List.length
      (List.filter
         (fun s -> Array.exists (fun h -> h = s.Scenario.dst) hot)
         measured)
  in
  let frac = float_of_int in_hot /. float_of_int (List.length measured) in
  (* expectation 0.8 + 0.2 * 2/16 = 0.825; uniform traffic would sit at
     0.125, so a 0.6 floor separates the two by many sigma *)
  Alcotest.(check bool)
    (Printf.sprintf "hot-rack fraction %.3f > 0.6" frac)
    true (frac > 0.6);
  List.iter
    (fun s ->
      Alcotest.(check bool) "src <> dst" true (s.Scenario.src <> s.Scenario.dst))
    measured

let test_hotspot_validation () =
  Alcotest.check_raises "weight out of range"
    (Invalid_argument "Scenario.hotspot: hot_weight must be in (0, 1]")
    (fun () -> ignore (Scenario.hotspot ~hot_weight:1.5 ~load:0.5 ()));
  Alcotest.check_raises "too many hot racks"
    (Invalid_argument "Scenario.hotspot: hot_racks out of range")
    (fun () -> ignore (Scenario.hotspot ~k:4 ~hot_racks:9 ~load:0.5 ()))

let test_incast_fanin () =
  let sc =
    Scenario.worker_aggregator ~hosts:12 ~fanin:(Dist.constant 4.)
      ~num_flows:80 ~seed:6 ~load:0.5 ()
  in
  let plan = build sc in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  let by_task = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.Scenario.task with
      | None -> Alcotest.fail "incast flow without task id"
      | Some t ->
          Hashtbl.replace by_task t
            (s :: (try Hashtbl.find by_task t with Not_found -> [])))
    measured;
  Det_tbl.iter
    (fun _ flows ->
      Alcotest.(check int) "4 workers per query" 4 (List.length flows);
      let workers = List.sort_uniq compare (List.map (fun s -> s.Scenario.src) flows) in
      Alcotest.(check int) "workers distinct" 4 (List.length workers))
    by_task

let test_traffic_matrix_plan () =
  let sc () = Scenario.traffic_matrix ~k:4 ~num_flows:300 ~seed:9 ~load:0.5 () in
  let p1 = build (sc ()) and p2 = build (sc ()) in
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "deterministic schedule" true
        (a.Scenario.src = b.Scenario.src
        && a.Scenario.dst = b.Scenario.dst
        && a.Scenario.size_bytes = b.Scenario.size_bytes
        && a.Scenario.start = b.Scenario.start))
    p1.Scenario.specs p2.Scenario.specs;
  (* the demand matrix has a zero diagonal: no intra-rack pairs *)
  let hosts = p1.Scenario.topo.Topology.hosts in
  let rack_of h =
    let idx = ref (-1) in
    Array.iteri (fun i x -> if x = h then idx := i) hosts;
    !idx / 2
  in
  List.iter
    (fun s ->
      if not s.Scenario.long_lived then
        Alcotest.(check bool) "inter-rack pair" true
          (rack_of s.Scenario.src <> rack_of s.Scenario.dst))
    p1.Scenario.specs

(* ---- coflows ------------------------------------------------------------ *)

let test_coflow_groups () =
  let sc =
    Scenario.with_coflows
      (Scenario.fat_tree_uniform ~k:4 ~num_flows:60 ~seed:4 ~load:0.5 ())
      ~deadline_s:(Dist.constant 0.05) ~width:(Dist.constant 3.) ()
  in
  let plan = build sc in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  let by_task = Hashtbl.create 16 in
  List.iter
    (fun s ->
      match s.Scenario.task with
      | None -> Alcotest.fail "coflow member without task id"
      | Some t ->
          Hashtbl.replace by_task t
            (s :: (try Hashtbl.find by_task t with Not_found -> [])))
    measured;
  Alcotest.(check bool) "several jobs" true (Hashtbl.length by_task >= 10);
  Det_tbl.iter
    (fun _ flows ->
      Alcotest.(check int) "3 members per job" 3 (List.length flows);
      let starts = List.sort_uniq compare (List.map (fun s -> s.Scenario.start) flows) in
      Alcotest.(check int) "members start together" 1 (List.length starts);
      let dls = List.sort_uniq compare (List.map (fun s -> s.Scenario.deadline) flows) in
      Alcotest.(check int) "shared deadline" 1 (List.length dls);
      Alcotest.(check bool) "deadline set" true (List.hd dls = Some 0.05))
    by_task

let test_coflow_rejects_incast () =
  let sc = Scenario.worker_aggregator ~hosts:10 ~load:0.5 () in
  Alcotest.check_raises "incast already groups"
    (Invalid_argument
       "Scenario.with_coflows: incast queries are already task groups")
    (fun () -> ignore (Scenario.with_coflows sc ~width:(Dist.constant 2.) ()))

let test_coflow_runner_aggregate () =
  let sc () =
    Scenario.with_coflows
      (Scenario.fat_tree_uniform ~k:4 ~num_flows:60 ~seed:12 ~load:0.5 ())
      ~deadline_s:(Dist.constant 0.05) ~width:(Dist.uniform 2. 5.) ()
  in
  let r1 = Runner.run Runner.Dctcp (sc ()) in
  let r2 = Runner.run Runner.Dctcp (sc ()) in
  match r1.Runner.coflow with
  | None -> Alcotest.fail "no coflow aggregate"
  | Some c ->
      Alcotest.(check bool) "several coflows" true (Coflow.coflows c >= 10);
      Alcotest.(check int) "members cover all records" (Coflow.flows c)
        (r1.Runner.completed + r1.Runner.censored);
      Alcotest.(check int) "deadline tracked" (Coflow.coflows c)
        (Coflow.deadline_total c);
      (* all members of a job share a start, so each group CCT is the max
         member FCT and the mean of maxes dominates the mean FCT *)
      Alcotest.(check bool) "cct_mean >= afct" true
        (Coflow.cct_mean c >= r1.Runner.afct);
      Alcotest.(check bool) "p99 >= p50" true
        (Coflow.cct_quantile c 0.99 >= Coflow.cct_quantile c 0.5);
      (* byte-stable across reruns, through the JSON codec *)
      Alcotest.(check string) "rerun byte-identical"
        (Result_codec.to_json r1) (Result_codec.to_json r2)

(* Regression: rendering JSON queried the coflow, attribution and streaming
   FCT t-digests, which compressed their buffered values in place, so a
   blob encoded after [to_json] differed from one encoded before it. *)
let test_encode_independent_of_queries () =
  let sc =
    Scenario.with_coflows
      (Scenario.fat_tree_uniform ~k:4 ~num_flows:60 ~seed:12 ~load:0.5 ())
      ~width:(Dist.uniform 2. 5.) ()
  in
  let r = Runner.run ~stats:`Streaming ~attrib:true Runner.Dctcp sc in
  let before = Result_codec.encode r in
  let json = Result_codec.to_json r in
  Alcotest.(check string) "encode unchanged by to_json" before
    (Result_codec.encode r);
  Alcotest.(check string) "to_json unchanged by encode" json
    (Result_codec.to_json r)

let suite =
  [
    Alcotest.test_case "left-right plan" `Quick test_left_right_plan;
    Alcotest.test_case "starts sorted" `Quick test_starts_sorted_and_positive;
    Alcotest.test_case "deadline scenario" `Quick test_deadline_scenario_has_deadlines;
    Alcotest.test_case "sizes in range" `Quick test_sizes_in_range;
    Alcotest.test_case "incast structure" `Quick test_incast_structure;
    Alcotest.test_case "testbed pattern" `Quick test_testbed_pattern;
    Alcotest.test_case "deterministic build" `Quick test_determinism_of_build;
    Alcotest.test_case "load bounds" `Quick test_load_bounds;
    Alcotest.test_case "integration DCTCP" `Slow (integration Runner.Dctcp);
    Alcotest.test_case "integration D2TCP" `Slow (integration Runner.D2tcp);
    Alcotest.test_case "integration L2DCT" `Slow (integration Runner.L2dct);
    Alcotest.test_case "integration pFabric" `Slow (integration Runner.Pfabric);
    Alcotest.test_case "integration PDQ" `Slow (integration Runner.Pdq);
    Alcotest.test_case "integration PASE" `Slow (integration Runner.pase);
    Alcotest.test_case "runner deterministic" `Quick test_runner_deterministic;
    Alcotest.test_case "runner deadline metric" `Quick test_runner_deadline_metric;
    Alcotest.test_case "runner PASE-local" `Quick test_runner_pase_local_variant;
    Alcotest.test_case "icdf monotone" `Quick test_icdf_monotone;
    Alcotest.test_case "icdf exact knots" `Quick test_icdf_exact_knots;
    Alcotest.test_case "cdf sampling deterministic" `Quick
      test_cdf_sampling_deterministic;
    Alcotest.test_case "builtin lookup" `Quick test_builtin_lookup;
    QCheck_alcotest.to_alcotest prop_empirical_quantiles;
    Alcotest.test_case "cdf file ok" `Quick test_cdf_file_ok;
    Alcotest.test_case "cdf file malformed" `Quick test_cdf_file_malformed;
    Alcotest.test_case "cdf cache key tracks shape" `Quick
      test_cdf_cache_key_shape;
    Alcotest.test_case "hotspot bias" `Quick test_hotspot_bias;
    Alcotest.test_case "hotspot validation" `Quick test_hotspot_validation;
    Alcotest.test_case "incast fanin" `Quick test_incast_fanin;
    Alcotest.test_case "traffic-matrix plan" `Quick test_traffic_matrix_plan;
    Alcotest.test_case "coflow groups" `Quick test_coflow_groups;
    Alcotest.test_case "coflow rejects incast" `Quick test_coflow_rejects_incast;
    Alcotest.test_case "coflow runner aggregate" `Slow
      test_coflow_runner_aggregate;
    Alcotest.test_case "encode independent of queries" `Quick
      test_encode_independent_of_queries;
  ]
