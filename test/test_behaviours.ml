(* Focused behavioural tests: the PASE reordering guard, DCTCP's alpha
   convergence, PDQ's termination-release timing, PASE probe accounting,
   and receiver ECN echo. *)

let prio_rig ?(hosts = 3) ?(limit_pkts = 500) () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ ->
        Prio_queue.create c ~bands:8 ~limit_pkts ~mark_threshold:20)
  in
  (e, c, topo)

(* The reordering guard's externally visible contract: promotions happen
   mid-flight (big flow drains, small flow promoted) and the system stays
   clean — every flow completes, nothing is misdelivered, and the promoted
   flow's completion is not delayed past the big flow's. *)
let test_reorder_guard_holds_sends () =
  let e, c, topo = prio_rig () in
  let h = topo.Topology.hosts in
  let cfg = Config.default in
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(2) ~data_bytes:1500 in
  let hier = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. rtt) in
  Hierarchy.start hier;
  let fcts = Hashtbl.create 4 in
  let launch id src size start =
    Engine.schedule_at e ~time:start (fun () ->
        let flow = Flow.make ~id ~src ~dst:h.(2) ~size_pkts:size ~start_time:start () in
        let recv = Receiver.create topo.Topology.net ~flow () in
        Pase_host.start
          (Pase_host.create topo.Topology.net hier ~flow ~cfg ~rtt ~nic_bps:1e9
             ~on_complete:(fun _ ~fct ->
               Receiver.stop recv;
               Hashtbl.replace fcts id fct)
             ()))
  in
  (* Small flow starts demoted behind the big one, then gets promoted when
     the big one finishes: the classic guard-triggering sequence. *)
  launch 1 h.(0) 80 0.;
  launch 2 h.(1) 120 0.0005;
  Engine.run ~until:0.1 e;
  Hierarchy.stop hier;
  Alcotest.(check int) "both completed" 2 (Hashtbl.length fcts);
  Alcotest.(check int) "no stray packets" 0 c.Counters.stray_pkts

let test_dctcp_alpha_converges_to_marking_fraction () =
  (* Feed a synthetic 25% marking pattern; alpha must converge near 0.25. *)
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:2 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  let flow =
    Flow.make ~id:1 ~src:topo.Topology.hosts.(0) ~dst:topo.Topology.hosts.(1)
      ~size_pkts:1_000_000 ~start_time:0. ()
  in
  let st = Ecn_cc.create_state () in
  let sender =
    Sender_base.create topo.Topology.net ~flow ~conf:Sender_base.default_conf
      ~on_complete:(fun _ ~fct:_ -> ())
      ()
  in
  for i = 0 to 4_000 do
    Ecn_cc.observe st sender ~ecn:(i mod 4 = 0) ~weight:1
  done;
  let alpha = Ecn_cc.alpha st in
  Alcotest.(check bool)
    (Printf.sprintf "alpha ~ 0.25 (got %.3f)" alpha)
    true
    (Float.abs (alpha -. 0.25) < 0.08)

let test_pdq_release_timing () =
  (* After a flow completes, its arbiter entry must disappear only after the
     one-way termination delay. *)
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:2 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:50)
  in
  let h = topo.Topology.hosts in
  let net = topo.Topology.net in
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(1) ~data_bytes:1500 in
  let arb = Pdq.Arbiter.create ~capacity_bps:1e9 in
  let flow = Flow.make ~id:1 ~src:h.(0) ~dst:h.(1) ~size_pkts:20 ~start_time:0. () in
  let recv = Receiver.create net ~flow () in
  let done_at = ref nan in
  Explicit_rate.start Pdq.policy net ~flow ~agents:[ arb ] ~rtt
    ~on_complete:(fun _ ~fct ->
      Receiver.stop recv;
      done_at := fct);
  Engine.run ~until:0.05 e;
  Alcotest.(check bool) "flow completed" true (not (Float.is_nan !done_at));
  Alcotest.(check int) "arbiter state released after termination" 0
    (Pdq.Arbiter.flows arb)

let test_pase_probe_counting () =
  (* A bottom-queue flow (window 1) behind four saturating flows in a tiny
     shared buffer keeps losing its lone packet to push-out: its timeouts
     must go through header-only probes, not data retransmissions. *)
  let e, c, topo = prio_rig ~hosts:8 ~limit_pkts:24 () in
  let h = topo.Topology.hosts in
  let cfg = { Config.default with Config.rto_low = 0.0003; num_queues = 4 } in
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(7) ~data_bytes:1500 in
  let hier = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. rtt) in
  Hierarchy.start hier;
  let mk id src size =
    let flow = Flow.make ~id ~src ~dst:h.(7) ~size_pkts:size ~start_time:0. () in
    let recv = Receiver.create topo.Topology.net ~flow () in
    let host =
      Pase_host.create topo.Topology.net hier ~flow ~cfg ~rtt ~nic_bps:1e9
        ~on_complete:(fun _ ~fct:_ -> Receiver.stop recv)
        ()
    in
    Pase_host.start host;
    host
  in
  let _f1 = mk 1 h.(0) 1500 in
  let _f2 = mk 2 h.(1) 1600 in
  let _f3 = mk 3 h.(2) 1700 in
  let _f4 = mk 4 h.(3) 1800 in
  let target = mk 5 h.(4) 2000 in
  Engine.run ~until:0.02 e;
  Hierarchy.stop hier;
  Alcotest.(check bool) "drops happened" true (c.Counters.dropped_pkts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "probes sent (%d)" (Pase_host.probes_sent target))
    true
    (Pase_host.probes_sent target > 0)

let test_receiver_echoes_ecn () =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:2 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.red_ecn c ~limit_pkts:100 ~mark_threshold:1)
  in
  let h = topo.Topology.hosts in
  let net = topo.Topology.net in
  let flow = Flow.make ~id:1 ~src:h.(0) ~dst:h.(1) ~size_pkts:10 ~start_time:0. () in
  let recv = Receiver.create net ~flow () in
  let echoes = ref [] in
  Net.register_flow net ~host:h.(0) ~flow:1 (fun pkt ->
      echoes := pkt.Packet.ecn_echo :: !echoes);
  (* K = 1: packet 0 seizes the transmitter, packet 1 enqueues into an
     empty queue (unmarked), packet 2 sees occupancy 1 >= K (marked). *)
  for seq = 0 to 2 do
    Net.send net
      (Packet.make ~flow:1 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Data ~size:1500
         ~seq ~ecn_capable:true ~sent_at:0. ())
  done;
  Engine.run e;
  Receiver.stop recv;
  Alcotest.(check (list bool)) "third ack echoes CE" [ false; false; true ]
    (List.rev !echoes)

let suite =
  [
    Alcotest.test_case "reorder guard" `Quick test_reorder_guard_holds_sends;
    Alcotest.test_case "dctcp alpha converges" `Quick test_dctcp_alpha_converges_to_marking_fraction;
    Alcotest.test_case "pdq release timing" `Quick test_pdq_release_timing;
    Alcotest.test_case "pase probe counting" `Quick test_pase_probe_counting;
    Alcotest.test_case "receiver echoes ECN" `Quick test_receiver_echoes_ecn;
  ]
