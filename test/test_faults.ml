(* Fault-injection plane: schedule parsing and validation, link blackholing
   with RTO-driven recovery, faulted runs matching across the fork pool and
   the chunked engine (rerun identity is a row of the determinism table),
   arbitrator crash-and-restart with bounded AFCT,
   and control-loss soft-state expiry followed by re-request rebuild. *)

let encode = Result_codec.encode
let flap_spec = "flap:a=agg0,b=core0,at=0.004,down=0.002,up=0.004,count=3"
let crash_spec = "crash:node=tor0,at=0.002,restart=0.004"

let parsed spec =
  match Fault.parse spec with Ok evs -> evs | Error e -> Alcotest.fail e

let faulted ?(flows = 60) ?(spec = flap_spec) () =
  Scenario.with_faults
    (Scenario.left_right ~num_flows:flows ~seed:1 ~load:0.6 ())
    (parsed spec)

(* ---- grammar ----------------------------------------------------------- *)

let test_parse_roundtrip () =
  let spec =
    "down:a=host0,b=tor0,at=0.001,up=0.002;" ^ flap_spec ^ ";" ^ crash_spec
    ^ ";ctrl:at=0,until=0.05,p=0.3"
  in
  let evs = parsed spec in
  Alcotest.(check int) "four events" 4 (Fault.count evs);
  (* The canonical rendering must re-parse to itself (it feeds the result
     cache key, so it has to round-trip floats exactly). *)
  Alcotest.(check string)
    "canonical form round-trips" (Fault.spec_key evs)
    (Fault.spec_key (parsed (Fault.spec_key evs)));
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" bad)
      | Error e ->
          Alcotest.(check bool) "error is descriptive" true
            (String.length e > 0))
    [
      "";
      "boom:at=1";
      "down:a=host0,at=0";
      "crash:node=hostx,at=0";
      "ctrl:at=0,until=1";
      "flap:a=host0,b=tor0,at=0,down=x,up=0.1,count=2";
      "down:a=host0,b=tor0 at=0";
    ]

let small_tree () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.three_tier e c ~hosts_per_tor:4 ~tors:4 ~aggs:2
      ~edge_rate_bps:1e9 ~fabric_rate_bps:10e9 ~link_delay_s:25e-6
      ~qdisc:(fun ~rate_bps:_ ->
        Prio_queue.create c ~bands:Config.default.Config.num_queues
          ~limit_pkts:500 ~mark_threshold:20)
  in
  (e, c, topo)

let test_create_validates () =
  let _, _, topo = small_tree () in
  let rejects msg spec =
    Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
        ignore (Fault.create topo (parsed spec)))
  in
  rejects "Fault: host0 and tor1 are not adjacent" "down:a=host0,b=tor1,at=0";
  rejects "Fault: no such node core9 (have 1)" "crash:node=core9,at=0";
  rejects "Fault: loss probability must be in [0, 1]" "ctrl:at=0,until=1,p=1.5";
  rejects "Fault: flap count must be >= 1"
    "flap:a=host0,b=tor0,at=0,down=0.1,up=0.1,count=0";
  rejects "Fault: restart time must follow crash" "crash:node=tor0,at=1,restart=1";
  ignore (Fault.create topo (parsed "down:a=node0,b=node16,at=0"))

(* ---- recovery through the data plane ------------------------------------ *)

(* A link flap blackholes in-flight packets; every sender must recover via
   RTO and finish the workload. *)
let test_flap_blackholes_and_recovers () =
  let r = Runner.run Runner.pase (faulted ()) in
  Alcotest.(check int) "all measured flows complete" 60 r.Runner.completed;
  Alcotest.(check int) "none censored" 0 r.Runner.censored;
  Alcotest.(check int) "one schedule event" 1 r.Runner.faults_injected;
  Alcotest.(check bool) "packets were blackholed" true
    (r.Runner.blackholed_pkts > 0);
  Alcotest.(check (float 1e-9)) "downtime = 3 flaps x 2 ms" 0.006
    r.Runner.link_downtime_s;
  Alcotest.(check bool) "baseline measured" true
    (r.Runner.afct_baseline > 0.);
  Alcotest.(check bool) "faults cost AFCT" true
    (r.Runner.afct_inflation >= 1.)

(* ---- determinism --------------------------------------------------------- *)

(* Rerun and fork identity of faulted runs live in the determinism table;
   here, only that the schedule matters at all. *)
let test_schedule_changes_the_run () =
  let r1 = Runner.run Runner.pase (faulted ()) in
  let r0 = Runner.run Runner.pase (Scenario.with_faults (faulted ()) []) in
  Alcotest.(check int) "fault-free run blackholes nothing" 0
    r0.Runner.blackholed_pkts;
  Alcotest.(check bool) "schedule changes the run" true (encode r0 <> encode r1)

(* Every protocol family with fault hooks (PASE hierarchy, PDQ arbiters, D3
   routers, plain end-host DCTCP) must replay identically through the fork
   pool. *)
let test_parallel_matches_serial_faulted () =
  let spec = flap_spec ^ ";" ^ crash_spec in
  let grid =
    List.map
      (fun p -> (p, faulted ~flows:40 ~spec ()))
      [ Runner.pase; Runner.Dctcp; Runner.Pdq; Runner.D3 ]
  in
  let serial = Parallel.run_jobs ~jobs:1 ~cache_dir:None grid in
  let forked = Parallel.run_jobs ~jobs:3 ~cache_dir:None grid in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "faulted result %d identical" i)
        true
        (encode a = encode b))
    (List.combine serial forked)

(* Chunked [Engine.run ~until] (with chunk boundaries landing exactly on
   fault times) applies the same transitions at the same clock readings as a
   one-shot run. *)
let test_chunked_matches_one_shot () =
  let spec =
    "flap:a=tor0,b=agg0,at=0.001,down=0.0005,up=0.0005,count=3;\
     crash:node=tor1,at=0.002,restart=0.0035;ctrl:at=0.001,until=0.002,p=0.5"
  in
  let run horizons =
    let e, _, topo = small_tree () in
    let log = ref [] in
    let put fmt = Printf.ksprintf (fun s ->
        log := Printf.sprintf "%.9f %s" (Engine.now e) s :: !log) fmt
    in
    let fp =
      Fault.create topo
        ~on_crash:(fun n -> put "crash %d" n)
        ~on_restart:(fun n -> put "restart %d" n)
        ~on_ctrl_loss:(fun p ->
          put "ctrl %s" (match p with None -> "off" | Some p ->
            Printf.sprintf "%.17g" p))
        ~on_link:(fun a b ~up -> put "link %d-%d %b" a b up)
        (parsed spec)
    in
    Fault.arm fp;
    List.iter (fun h -> Engine.run ~until:h e) horizons;
    Fault.finish fp;
    let s = Fault.stats fp in
    let tor0 = topo.Topology.tors.(0) and agg0 = topo.Topology.aggs.(0) in
    let up =
      match Net.link_from topo.Topology.net tor0 agg0 with
      | Some l -> Link.is_up l
      | None -> Alcotest.fail "tor0-agg0 link missing"
    in
    ( List.rev !log,
      (s.Fault.transitions, s.Fault.link_down_events, s.Fault.crash_events),
      s.Fault.downtime_s,
      up )
  in
  let log1, counts1, down1, up1 = run [ 0.01 ] in
  let log2, counts2, down2, up2 =
    run [ 0.001; 0.0015; 0.002; 0.0035; 0.004; 0.01 ]
  in
  Alcotest.(check (list string)) "same transitions, same clocks" log1 log2;
  Alcotest.(check (triple int int int)) "same stats" counts1 counts2;
  Alcotest.(check (float 1e-12)) "same downtime" down1 down2;
  Alcotest.(check bool) "link settled up" true (up1 && up2);
  Alcotest.(check int) "6 directed transitions per pair x 3 flaps" 12
    (let t, _, _ = counts1 in t);
  Alcotest.(check (float 1e-12)) "3 x 0.5 ms downtime" 0.0015 down1

(* ---- arbitrator crash recovery ------------------------------------------ *)

(* A mid-run arbitrator crash: flows fall back to unguided DCTCP while the
   node is down, re-requests rebuild its soft state after restart, and the
   damage stays bounded by what plain DCTCP does on the same schedule. *)
let test_crash_recovery_bounded () =
  let sc = faulted ~flows:120 ~spec:crash_spec () in
  let pase = Runner.run Runner.pase sc in
  let dctcp = Runner.run Runner.Dctcp sc in
  Alcotest.(check int) "all PASE flows complete" 120 pase.Runner.completed;
  Alcotest.(check int) "none censored" 0 pase.Runner.censored;
  Alcotest.(check bool) "time-to-first-grant measured" true
    (Float.is_finite pase.Runner.recovery_s && pase.Runner.recovery_s > 0.);
  Alcotest.(check bool) "no recovery clock without a hierarchy" true
    (Float.is_nan dctcp.Runner.recovery_s);
  Alcotest.(check bool)
    (Printf.sprintf "PASE AFCT bounded by DCTCP (%.3f vs %.3f ms)"
       (pase.Runner.afct *. 1e3) (dctcp.Runner.afct *. 1e3))
    true
    (pase.Runner.afct <= dctcp.Runner.afct *. 1.05)

(* ---- control-message loss: expiry and re-request ------------------------ *)

(* With every control message lost, remote arbitrator entries stop being
   refreshed and expire after [state_expiry_rounds]; the flow reports
   arbitration unreachable. Once the loss window closes, the periodic host
   re-requests rebuild the soft state without any explicit resync. *)
let test_ctrl_loss_expiry_and_rerequest () =
  let cfg = { Config.default with Config.delegation = false } in
  let e, c, topo = small_tree () in
  let hier = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. 3e-4) in
  let h = topo.Topology.hosts in
  let flow =
    Flow.make ~id:1 ~src:h.(0) ~dst:h.(15) ~size_pkts:500 ~start_time:0. ()
  in
  let reachable = ref true in
  Hierarchy.add_flow hier ~flow
    ~criterion:(fun () -> 500.)
    ~demand:(fun () -> 1e9)
    ~unreachable:(fun lost -> reachable := not lost)
    ~apply:(fun ~queue:_ ~rref_bps:_ -> ())
    ();
  Hierarchy.start hier;
  (* Soft state held by switch-owned arbitrators (everything the remote,
     message-costing contacts maintain). *)
  let remote_entries () =
    List.fold_left
      (fun acc (a, b, _) ->
        match (Net.node_kind topo.Topology.net a, Net.node_kind topo.Topology.net b) with
        | Net.Switch, Net.Switch -> (
            match Hierarchy.arbitrator_of_link hier a b with
            | Some arb -> acc + Arbitrator.flows arb
            | None -> acc)
        | _ -> acc)
      0
      (Net.links topo.Topology.net)
  in
  let round_s = cfg.Config.arb_period in
  Engine.run ~until:(10. *. round_s) e;
  Alcotest.(check bool) "remote soft state established" true
    (remote_entries () > 0);
  Alcotest.(check bool) "arbitration reachable" true !reachable;
  (* Total loss: refreshes stop getting through. *)
  Hierarchy.set_ctrl_loss_override hier (Some 1.0);
  let expiry_s =
    float_of_int (cfg.Config.state_expiry_rounds + 4) *. round_s
  in
  Engine.run ~until:((10. *. round_s) +. expiry_s) e;
  Alcotest.(check bool) "losses counted" true (c.Counters.ctrl_lost > 0);
  Alcotest.(check int) "remote soft state expired" 0 (remote_entries ());
  Alcotest.(check bool) "flow reports unreachable" true (not !reachable);
  (* Loss window closes: periodic re-requests rebuild the state. *)
  Hierarchy.set_ctrl_loss_override hier None;
  Engine.run ~until:((10. *. round_s) +. expiry_s +. (5. *. round_s)) e;
  Hierarchy.stop hier;
  Alcotest.(check bool) "re-requests rebuilt soft state" true
    (remote_entries () > 0);
  Alcotest.(check bool) "reachable again" true !reachable

(* ---- attribution under faults ------------------------------------------- *)

(* The exact-sum invariant is not a fair-weather property: with a link flap
   blackholing packets (and with an arbitrator crash), every completed
   flow's components still sum to its FCT with float equality, and the
   flap's retransmission stalls actually land in rto_stall. *)
let test_attribution_exact_under_faults () =
  List.iter
    (fun (name, spec, protocol) ->
      let records = ref [] in
      let r =
        Runner.run ~attrib:true
          ~on_attrib:(fun ~size_pkts:_ rec_ -> records := rec_ :: !records)
          protocol
          (faulted ~flows:60 ~spec ())
      in
      Alcotest.(check int)
        (name ^ ": one record per completed flow")
        r.Runner.completed
        (List.length !records);
      List.iter
        (fun (rec_ : Delay.record) ->
          if not (Delay.check_sum rec_) then
            Alcotest.fail
              (Printf.sprintf "%s: flow %d components do not sum to fct" name
                 rec_.Delay.flow))
        !records;
      if name = "flap" then begin
        Alcotest.(check bool) (name ^ ": packets blackholed") true
          (r.Runner.blackholed_pkts > 0);
        let total_rto =
          List.fold_left
            (fun acc (rec_ : Delay.record) -> acc +. rec_.Delay.rto_stall)
            0. !records
        in
        Alcotest.(check bool) (name ^ ": rto_stall observed") true
          (total_rto > 0.)
      end)
    [
      ("flap", flap_spec, Runner.pase);
      ("crash", crash_spec, Runner.pase);
    ]

(* ---- hybrid classifier edges and fault-driven promotion ------------------ *)

(* The classifier has two halves — spec (size/long-lived vs threshold) and
   protocol whitelist — and both must behave at their edges: every flow
   fluid, no flow fluid, a size landing exactly on the threshold, and a
   fault yanking fluid flows back to packet level mid-run. *)

let hybrid_on = { Runner.enabled = true; fluid_threshold = 32768 }

let hstats (r : Runner.result) =
  match r.Runner.hybrid with
  | Some h -> h
  | None -> Alcotest.fail "hybrid accounting missing"

(* A scenario whose every measured flow has the same known size. The
   unchanged-statistics tests zero the background flows: long-lived flows
   are fluid-eligible regardless of size, and a live fluid allocation
   changes the physics the packet tier sees (that is the model working,
   not an identity the edge cases can assert through). *)
let constant_size ?(flows = 40) ?background bytes =
  let base = Scenario.left_right ~num_flows:flows ~seed:1 ~load:0.6 () in
  let background =
    Option.value background ~default:base.Scenario.background_flows
  in
  {
    base with
    Scenario.size_bytes = Dist.constant (float_of_int bytes);
    background_flows = background;
  }

let test_hybrid_all_fluid () =
  (* Every size above the threshold + fluid-capable protocol: the whole
     workload (measured flows and the two long-lived background flows)
     goes through the fluid tier, and every finite flow demotes exactly
     once to finish packet-level. *)
  let sc = constant_size 100_000 in
  let r = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  let h = hstats r in
  Alcotest.(check bool) "tier active" true h.Runner.hybrid_on;
  Alcotest.(check int) "all flows fluid"
    (40 + sc.Scenario.background_flows)
    h.Runner.fluid_flows;
  Alcotest.(check int) "every measured flow demoted once" 40
    h.Runner.fluid_demotions;
  Alcotest.(check int) "no fault demotions" 0 h.Runner.fault_demotions;
  Alcotest.(check int) "all complete" 40 r.Runner.completed;
  Alcotest.(check bool) "bytes advanced analytically" true
    (h.Runner.fluid_bytes > 0.);
  Alcotest.(check bool) "short-flow p99 empty (no packet-tier flows)" true
    (Float.is_nan h.Runner.short_p99)

let test_hybrid_all_packet () =
  (* Below-threshold sizes keep every flow packet-level even with the tier
     enabled; the packet simulation must be unperturbed (identical FCT
     statistics to a run without the hybrid option, which a zero fluid
     allocation guarantees). *)
  let sc = constant_size ~background:0 20_000 in
  let plain = Runner.run Runner.Dctcp sc in
  let r = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  let h = hstats r in
  Alcotest.(check bool) "tier active" true h.Runner.hybrid_on;
  Alcotest.(check int) "no flow fluid" 0 h.Runner.fluid_flows;
  Alcotest.(check int) "no demotions" 0 h.Runner.fluid_demotions;
  Alcotest.(check (float 0.)) "afct unchanged" plain.Runner.afct r.Runner.afct;
  Alcotest.(check (float 0.)) "p99 unchanged" plain.Runner.p99 r.Runner.p99;
  (* Non-whitelisted protocol: enabled but inert, statistics identical. *)
  let pf_plain = Runner.run Runner.Pfabric sc in
  let pf = Runner.run ~hybrid:hybrid_on Runner.Pfabric sc in
  let hpf = hstats pf in
  Alcotest.(check bool) "pfabric stays packet-only" false hpf.Runner.hybrid_on;
  Alcotest.(check int) "no pfabric fluid flows" 0 hpf.Runner.fluid_flows;
  Alcotest.(check (float 0.)) "pfabric afct unchanged" pf_plain.Runner.afct
    pf.Runner.afct;
  Alcotest.(check int) "pfabric events unchanged" pf_plain.Runner.events
    pf.Runner.events

let test_hybrid_threshold_exact () =
  (* Size exactly on the threshold: fluid-eligible by the >= rule, but the
     admitted flow is already at the demotion boundary, so it demotes
     synchronously with zero bytes advanced and runs packet-level from the
     first byte — per-flow statistics equal to a pure packet run. *)
  let spec =
    {
      Scenario.src = 0;
      dst = 1;
      size_bytes = 32768;
      start = 0.;
      deadline = None;
      long_lived = false;
      task = None;
    }
  in
  Alcotest.(check bool) "exactly-at-threshold is eligible" true
    (Scenario.fluid_eligible ~threshold_bytes:32768 spec);
  Alcotest.(check bool) "one byte below is not" false
    (Scenario.fluid_eligible ~threshold_bytes:32768
       { spec with Scenario.size_bytes = 32767 });
  let sc = constant_size ~background:0 32768 in
  let plain = Runner.run Runner.Dctcp sc in
  let r = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  let h = hstats r in
  Alcotest.(check int) "all measured flows admitted" 40 h.Runner.fluid_flows;
  Alcotest.(check int) "all demoted (instantly)" 40 h.Runner.fluid_demotions;
  Alcotest.(check (float 0.)) "instant demotion advanced nothing" 0.
    h.Runner.fluid_bytes;
  Alcotest.(check (float 0.)) "afct equals pure packet run" plain.Runner.afct
    r.Runner.afct;
  Alcotest.(check (float 0.)) "p99 equals pure packet run" plain.Runner.p99
    r.Runner.p99

let test_hybrid_fault_demotes () =
  (* A link-down on the agg-core bottleneck while above-threshold flows are
     mid-transfer: every fluid flow routed across it must be demoted by the
     fault (packet level owns loss/RTO behaviour), and the workload still
     completes through recovery. *)
  let sc =
    Scenario.with_faults
      (constant_size ~flows:60 150_000)
      (parsed "down:a=agg0,b=core0,at=0.004,up=0.02")
  in
  let r = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  let h = hstats r in
  Alcotest.(check bool) "fault forced demotions" true
    (h.Runner.fault_demotions > 0);
  Alcotest.(check bool) "fault demotions within total" true
    (h.Runner.fault_demotions <= h.Runner.fluid_demotions);
  Alcotest.(check int) "all flows complete despite the fault" 60
    r.Runner.completed;
  Alcotest.(check int) "none censored" 0 r.Runner.censored

let test_hybrid_rerun_and_fork_identical () =
  (* Hybrid determinism end to end: reruns are bit-identical, the fork pool
     reproduces serial bytes, and a faulted hybrid run replays too. *)
  let sc = faulted ~flows:60 () in
  let r1 = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  let r2 = Runner.run ~hybrid:hybrid_on Runner.Dctcp sc in
  Alcotest.(check bool) "hybrid faulted rerun bit-identical" true
    (encode r1 = encode r2);
  let grid =
    List.map
      (fun p -> (p, Scenario.left_right ~num_flows:50 ~seed:3 ~load:0.6 ()))
      [ Runner.pase; Runner.Dctcp; Runner.Pfabric ]
  in
  let serial =
    Parallel.run_jobs ~jobs:1 ~cache_dir:None ~hybrid:hybrid_on grid
  in
  let forked =
    Parallel.run_jobs ~jobs:3 ~cache_dir:None ~hybrid:hybrid_on grid
  in
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check bool)
        (Printf.sprintf "hybrid fork result %d identical" i)
        true
        (encode a = encode b))
    (List.combine serial forked)

let suite =
  [
    Alcotest.test_case "parse roundtrip and errors" `Quick test_parse_roundtrip;
    Alcotest.test_case "attribution exact under faults" `Slow
      test_attribution_exact_under_faults;
    Alcotest.test_case "create validates schedules" `Quick test_create_validates;
    Alcotest.test_case "flap blackholes and recovers" `Quick
      test_flap_blackholes_and_recovers;
    Alcotest.test_case "schedule changes the run" `Quick
      test_schedule_changes_the_run;
    Alcotest.test_case "parallel matches serial (faulted)" `Slow
      test_parallel_matches_serial_faulted;
    Alcotest.test_case "chunked matches one-shot" `Quick
      test_chunked_matches_one_shot;
    Alcotest.test_case "crash recovery bounded" `Slow test_crash_recovery_bounded;
    Alcotest.test_case "ctrl loss expiry and re-request" `Quick
      test_ctrl_loss_expiry_and_rerequest;
    Alcotest.test_case "hybrid: all-fluid edge" `Quick test_hybrid_all_fluid;
    Alcotest.test_case "hybrid: all-packet edge" `Quick test_hybrid_all_packet;
    Alcotest.test_case "hybrid: threshold-exact edge" `Quick
      test_hybrid_threshold_exact;
    Alcotest.test_case "hybrid: fault demotes mid-flow" `Quick
      test_hybrid_fault_demotes;
    Alcotest.test_case "hybrid: rerun and fork identical" `Slow
      test_hybrid_rerun_and_fork_identical;
  ]
