(* Extended metrics (buckets, slowdown) and control-plane failure
   injection with soft-state expiry. *)

let test_bucket_afct () =
  let f = Fct.create () in
  Fct.add f ~flow:1 ~size_pkts:10 ~start_time:0. ~fct:0.001 ();
  Fct.add f ~flow:2 ~size_pkts:20 ~start_time:0. ~fct:0.003 ();
  Fct.add f ~flow:3 ~size_pkts:100 ~start_time:0. ~fct:0.010 ();
  Fct.add f ~flow:4 ~size_pkts:15 ~start_time:0. ~fct:0.100 ~censored:true ();
  Alcotest.(check (float 1e-9)) "small bucket" 0.002 (Fct.bucket_afct f ~lo:0 ~hi:50);
  Alcotest.(check int) "small count (censored excluded)" 2
    (Fct.bucket_count f ~lo:0 ~hi:50);
  Alcotest.(check (float 1e-9)) "large bucket" 0.010
    (Fct.bucket_afct f ~lo:50 ~hi:max_int);
  Alcotest.(check bool) "empty bucket is nan" true
    (Float.is_nan (Fct.bucket_afct f ~lo:1000 ~hi:2000))

let test_slowdown () =
  let f = Fct.create () in
  Fct.add f ~flow:1 ~size_pkts:10 ~start_time:0. ~fct:0.002 ~ideal:0.001 ();
  Fct.add f ~flow:2 ~size_pkts:10 ~start_time:0. ~fct:0.004 ~ideal:0.001 ();
  Fct.add f ~flow:3 ~size_pkts:10 ~start_time:0. ~fct:0.009 ();
  (* no ideal: excluded *)
  Alcotest.(check (float 1e-9)) "mean slowdown" 3. (Fct.mean_slowdown f);
  Alcotest.(check (float 1e-9)) "p99 slowdown" 4. (Fct.p99_slowdown f)

let test_slowdown_nan_without_ideals () =
  let f = Fct.create () in
  Fct.add f ~flow:1 ~size_pkts:10 ~start_time:0. ~fct:0.002 ();
  Alcotest.(check bool) "nan" true (Float.is_nan (Fct.mean_slowdown f))

let test_runner_records_ideal () =
  let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:5 ~load:0.4 () in
  let r = Runner.run Runner.pase sc in
  Alcotest.(check bool) "slowdowns defined" true
    (not (Float.is_nan (Fct.mean_slowdown r.Runner.fct)));
  Alcotest.(check bool) "slowdown >= 1" true (Fct.mean_slowdown r.Runner.fct >= 1.)

let test_nominal_rtt_close_to_measured () =
  List.iter
    (fun sc ->
      let e = Engine.create () in
      let c = Counters.create () in
      let plan =
        Scenario.build sc e c ~qdisc:(fun ~rate_bps:_ ->
            Queue_disc.droptail c ~limit_pkts:64)
      in
      let nominal = Scenario.nominal_rtt sc in
      let measured = plan.Scenario.rtt in
      Alcotest.(check bool)
        (Printf.sprintf "%s: nominal %.0fus vs measured %.0fus"
           sc.Scenario.name (nominal *. 1e6) (measured *. 1e6))
        true
        (Float.abs (nominal -. measured) /. measured < 0.15))
    [
      Scenario.left_right ~num_flows:1 ~load:0.5 ();
      Scenario.intra_rack_medium ~num_flows:1 ~load:0.5 ();
      Scenario.testbed ~num_flows:1 ~load:0.5 ();
    ]

(* Failure injection: arbitration messages lost with high probability.
   Flows must still complete (soft state + local decisions) and total
   degradation must be bounded. *)
let test_ctrl_loss_graceful () =
  let run p =
    let sc = Scenario.left_right ~num_flows:150 ~seed:6 ~load:0.6 () in
    Runner.run (Runner.Pase { Config.default with Config.ctrl_loss_prob = p }) sc
  in
  let clean = run 0.0 in
  let lossy = run 0.5 in
  Alcotest.(check int) "all flows complete under 50% msg loss" 150
    lossy.Runner.completed;
  Alcotest.(check bool)
    (Printf.sprintf "bounded degradation (%.3f vs %.3f ms)"
       (lossy.Runner.afct *. 1e3) (clean.Runner.afct *. 1e3))
    true
    (lossy.Runner.afct < 3. *. clean.Runner.afct)

let test_expiry_cleans_dead_flows () =
  (* An arbitrator holding state for a source that stopped refreshing must
     drop it after the expiry age, unblocking the flows behind it. *)
  let e = Engine.create () in
  let c = Counters.create () in
  let cfg = { Config.default with Config.state_expiry_rounds = 5 } in
  let topo =
    Topology.single_rack e c ~hosts:3 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ ->
        Prio_queue.create c ~bands:8 ~limit_pkts:500 ~mark_threshold:20)
  in
  let h = topo.Topology.hosts in
  let hier = Hierarchy.create e c cfg topo ~base_rate_bps:1e5 in
  Hierarchy.start hier;
  (* Flow 1 registers once and then goes silent (we remove its flow-state
     from the hierarchy without telling the arbitrators, simulating a dead
     source whose soft state lingers). *)
  let f1 = Flow.make ~id:1 ~src:h.(0) ~dst:h.(2) ~size_pkts:10 ~start_time:0. () in
  Hierarchy.add_flow hier ~flow:f1
    ~criterion:(fun () -> 10.)
    ~demand:(fun () -> 1e9)
    ~apply:(fun ~queue:_ ~rref_bps:_ -> ())
    ();
  let arb =
    match Hierarchy.arbitrator_of_link hier h.(0) (Topology.tor_of topo h.(0)) with
    | Some a -> a
    | None -> Alcotest.fail "no arbitrator"
  in
  Alcotest.(check bool) "state present" true (Arbitrator.mem arb ~flow:1);
  (* Simulate the dead source: deregister the flow from the hierarchy but
     plant its stale soft state back into the arbitrator directly. *)
  Hierarchy.remove_flow hier ~flow_id:1;
  Arbitrator.upsert arb ~flow:1 ~criterion:10. ~demand_bps:1e9
    ~now:(Engine.now e);
  Engine.run ~until:(10. *. cfg.Config.arb_period) e;
  Hierarchy.stop hier;
  Alcotest.(check bool) "stale state expired" false (Arbitrator.mem arb ~flow:1)

let test_task_completion_times () =
  let f = Fct.create () in
  (* Task 1: two flows, spans 0..5ms, member deadlines 6ms and 4ms. Task 2:
     censored member: excluded from the times, counted in the coflow. *)
  Fct.add f ~flow:1 ~size_pkts:10 ~start_time:0. ~fct:0.002 ~deadline:0.006
    ~task:1 ();
  Fct.add f ~flow:2 ~size_pkts:10 ~start_time:0.001 ~fct:0.004
    ~deadline:0.004 ~task:1 ();
  Fct.add f ~flow:3 ~size_pkts:10 ~start_time:0. ~fct:0.001 ~task:2 ();
  Fct.add f ~flow:4 ~size_pkts:10 ~start_time:0. ~fct:0.050 ~task:2 ~censored:true ();
  Fct.add f ~flow:5 ~size_pkts:10 ~start_time:0. ~fct:0.003 ();
  (* no task *)
  (match Fct.task_completion_times f with
  | [ t ] -> Alcotest.(check (float 1e-9)) "task 1 makespan" 0.005 t
  | l -> Alcotest.fail (Printf.sprintf "expected 1 task, got %d" (List.length l)));
  match Fct.coflow f with
  | None -> Alcotest.fail "tasks but no coflow aggregate"
  | Some c ->
      Alcotest.(check int) "groups" 2 (Coflow.coflows c);
      Alcotest.(check int) "censored groups" 1 (Coflow.censored c);
      Alcotest.(check int) "member flows (width)" 4 (Coflow.flows c);
      Alcotest.(check (float 1e-9)) "CCT of task 1" 0.005 (Coflow.cct_mean c);
      (* the group deadline is the min member deadline (4ms): missed; the
         max (6ms) would have been met *)
      Alcotest.(check int) "deadline groups" 1 (Coflow.deadline_total c);
      Alcotest.(check int) "min deadline missed" 0 (Coflow.deadline_met c);
      Alcotest.(check bool) "no tasks, no coflow" true
        (Option.is_none (Fct.coflow (Fct.create ())))

let test_task_aware_scheduling_end_to_end () =
  (* With hot aggregators, task-FIFO arbitration must not be worse than
     SRPT on mean query completion (classic FIFO-LM result). *)
  let scenario =
    Scenario.worker_aggregator ~hosts:10 ~aggregators:2 ~num_flows:180 ~seed:2
      ~load:0.7 ()
  in
  let mean proto =
    Summary.mean (Fct.task_completion_times (Runner.run proto scenario).Runner.fct)
  in
  let srpt = mean Runner.pase in
  let task =
    mean (Runner.Pase { Config.default with Config.scheduling = Config.Task_aware })
  in
  Alcotest.(check bool)
    (Printf.sprintf "task-aware helps (%.2f vs %.2f ms)" (task *. 1e3) (srpt *. 1e3))
    true
    (task <= srpt *. 1.05)

let test_incast_hotspot_structure () =
  let sc =
    Scenario.worker_aggregator ~hosts:10 ~aggregators:2 ~num_flows:90 ~seed:3
      ~load:0.5 ()
  in
  let e = Engine.create () in
  let c = Counters.create () in
  let plan =
    Scenario.build sc e c ~qdisc:(fun ~rate_bps:_ ->
        Queue_disc.droptail c ~limit_pkts:64)
  in
  let aggs =
    List.filter_map (fun s -> if s.Scenario.long_lived then None else Some s.Scenario.dst)
      plan.Scenario.specs
    |> List.sort_uniq compare
  in
  Alcotest.(check int) "only 2 aggregators" 2 (List.length aggs);
  List.iter
    (fun s ->
      if not s.Scenario.long_lived then
        Alcotest.(check bool) "task tagged" true (s.Scenario.task <> None))
    plan.Scenario.specs

let suite =
  [
    Alcotest.test_case "bucket afct" `Quick test_bucket_afct;
    Alcotest.test_case "task completion times" `Quick test_task_completion_times;
    Alcotest.test_case "task-aware scheduling e2e" `Slow test_task_aware_scheduling_end_to_end;
    Alcotest.test_case "incast hotspot structure" `Quick test_incast_hotspot_structure;
    Alcotest.test_case "slowdown" `Quick test_slowdown;
    Alcotest.test_case "slowdown nan" `Quick test_slowdown_nan_without_ideals;
    Alcotest.test_case "runner records ideal" `Quick test_runner_records_ideal;
    Alcotest.test_case "nominal rtt sane" `Quick test_nominal_rtt_close_to_measured;
    Alcotest.test_case "ctrl loss graceful" `Slow test_ctrl_loss_graceful;
    Alcotest.test_case "expiry cleans dead flows" `Quick test_expiry_cleans_dead_flows;
  ]
