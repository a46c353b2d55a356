(* Transport machinery: Seg_store, Flow, and the Sender_base/Receiver pair:
   reliable delivery, analytic FCT, loss recovery, fast retransmit,
   probing, pacing. *)

let test_seg_store () =
  let s = Seg_store.create () in
  Alcotest.(check bool) "default unsent" true (Seg_store.get s 0 = Seg_store.Unsent);
  Alcotest.(check bool) "far index unsent" true
    (Seg_store.get s 100_000 = Seg_store.Unsent);
  Seg_store.set s 5 Seg_store.Inflight;
  Seg_store.set s 1_000 Seg_store.Acked;
  Alcotest.(check bool) "set/get" true (Seg_store.get s 5 = Seg_store.Inflight);
  Alcotest.(check bool) "growth preserves" true
    (Seg_store.get s 1_000 = Seg_store.Acked);
  Alcotest.(check bool) "neighbours untouched" true
    (Seg_store.get s 999 = Seg_store.Unsent)

let test_flow_helpers () =
  let f = Flow.make ~id:1 ~src:0 ~dst:1 ~size_pkts:10 ~start_time:0.5 ~deadline:0.2 () in
  Alcotest.(check (option (float 1e-12))) "absolute deadline" (Some 0.7)
    (Flow.absolute_deadline f);
  Alcotest.(check bool) "not long lived" false (Flow.is_long_lived f);
  Alcotest.(check int) "bytes to pkts rounds up" 2
    (Flow.size_pkts_of_bytes ~mss:1460 1461);
  Alcotest.(check int) "exact" 1 (Flow.size_pkts_of_bytes ~mss:1460 1460)

(* One host pair through a ToR, droptail queues unless specified. *)
let rig ?(hosts = 2) ?(qdisc = fun c ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100) () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps -> qdisc c ~rate_bps)
  in
  (e, c, topo)

let run_flow ?conf ?hooks (e, _c, topo) ~size_pkts =
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let flow = Flow.make ~id:1 ~src:h.(0) ~dst:h.(1) ~size_pkts ~start_time:0. () in
  let conf =
    match conf with
    | Some c -> c
    | None ->
        {
          Sender_base.default_conf with
          Sender_base.init_cwnd = 10.;
          init_rtt =
            Topology.base_rtt topo ~src:h.(0) ~dst:h.(1) ~data_bytes:1500;
        }
  in
  let recv = Receiver.create net ~flow () in
  let result = ref None in
  let sender =
    Sender_base.create net ~flow ~conf ?hooks
      ~on_complete:(fun _ ~fct ->
        Receiver.stop recv;
        result := Some fct)
      ()
  in
  Sender_base.start sender;
  Engine.run ~until:5.0 e;
  (sender, !result)

let test_single_flow_completes () =
  let rig = rig () in
  let sender, fct = run_flow rig ~size_pkts:50 in
  (match fct with
  | None -> Alcotest.fail "flow did not complete"
  | Some fct ->
      (* 50 pkts x 12us serialization ~ 0.6 ms; allow window ramp slack. *)
      Alcotest.(check bool) "fct sane" true (fct > 0.6e-3 && fct < 2e-3));
  Alcotest.(check bool) "sender completed" true (Sender_base.completed sender);
  Alcotest.(check int) "all acked" 50 (Sender_base.acked_pkts sender)

let test_single_flow_analytic_fct () =
  (* With cwnd larger than the flow, FCT ~ first-packet RTT + remaining
     serialization: 10us*2 +12us + ~12us + 49 x 12us + ack ~ 0.64ms. *)
  let rigv = rig () in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 100.;
      init_rtt = 100e-6;
    }
  in
  let _, fct = run_flow rigv ~conf ~size_pkts:50 in
  match fct with
  | None -> Alcotest.fail "no completion"
  | Some fct ->
      Alcotest.(check bool)
        (Printf.sprintf "near serialization bound (got %.3f ms)" (fct *. 1e3))
        true
        (fct > 0.60e-3 && fct < 0.75e-3)

let test_delivery_under_loss () =
  (* Tiny queue forces drops; reliability must still deliver everything. *)
  let rigv =
    rig ~qdisc:(fun c ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:5) ()
  in
  let e, c, _ = rigv in
  ignore e;
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 50.;
      (* bigger than queue: guarantees drops *)
      min_rto = 0.002;
      init_rtt = 100e-6;
    }
  in
  let sender, fct = run_flow rigv ~conf ~size_pkts:100 in
  Alcotest.(check bool) "some drops happened" true (c.Counters.dropped_pkts > 0);
  Alcotest.(check bool) "completed anyway" true (fct <> None);
  Alcotest.(check int) "every segment acked" 100 (Sender_base.acked_pkts sender)

let test_fast_retransmit_triggers () =
  let fired = ref 0 in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.on_fast_retransmit = (fun _ -> incr fired);
    }
  in
  let rigv =
    rig ~qdisc:(fun c ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:8) ()
  in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 40.;
      min_rto = 0.050;
      (* long RTO: recovery must come from dupacks *)
      init_rtt = 100e-6;
    }
  in
  let _, fct = run_flow rigv ~hooks ~conf ~size_pkts:60 in
  Alcotest.(check bool) "completed" true (fct <> None);
  Alcotest.(check bool) "fast retransmit fired" true (!fired > 0);
  (match fct with
  | Some fct ->
      Alcotest.(check bool) "recovered without RTO stall" true (fct < 0.050)
  | None -> ())

let test_rto_recovers_total_loss () =
  (* Queue of 1 packet and a huge initial burst: nearly everything drops;
     timeouts must recover. *)
  let rigv =
    rig ~qdisc:(fun c ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:2) ()
  in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 30.;
      min_rto = 0.001;
      init_rtt = 100e-6;
    }
  in
  let sender, fct = run_flow rigv ~conf ~size_pkts:40 in
  Alcotest.(check bool) "completed" true (fct <> None);
  Alcotest.(check int) "all acked" 40 (Sender_base.acked_pkts sender)

let test_probe_distinguishes_loss () =
  (* Receiver answers probes: a probed, received segment yields sack >= 0;
     a missing one yields sack = -1 (checked via sender state transition). *)
  let rigv = rig () in
  let e, _, topo = rigv in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let flow = Flow.make ~id:9 ~src:h.(0) ~dst:h.(1) ~size_pkts:5 ~start_time:0. () in
  let recv = Receiver.create net ~flow () in
  let replies = ref [] in
  Net.register_flow net ~host:h.(0) ~flow:9 (fun p ->
      replies := (p.Packet.kind, p.Packet.seq, p.Packet.sack) :: !replies);
  (* Deliver segment 2 only, then probe 2 and 0. *)
  Net.send net
    (Packet.make ~flow:9 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Data ~size:1500
       ~seq:2 ~sent_at:0. ());
  Net.send net
    (Packet.make ~flow:9 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Probe
       ~size:Packet.probe_bytes ~seq:2 ~sent_at:0. ());
  Net.send net
    (Packet.make ~flow:9 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Probe
       ~size:Packet.probe_bytes ~seq:0 ~sent_at:0. ());
  Engine.run e;
  Receiver.stop recv;
  let probe_acks =
    List.filter (fun (k, _, _) -> k = Packet.Probe_ack) (List.rev !replies)
  in
  match probe_acks with
  | [ (_, 2, sack2); (_, 0, sack0) ] ->
      Alcotest.(check int) "received segment acked by probe" 2 sack2;
      Alcotest.(check int) "missing segment reported" (-1) sack0
  | _ -> Alcotest.fail "expected two probe-acks"

let test_receiver_cumulative_ack () =
  let rigv = rig () in
  let e, _, topo = rigv in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let flow = Flow.make ~id:3 ~src:h.(0) ~dst:h.(1) ~size_pkts:10 ~start_time:0. () in
  let recv = Receiver.create net ~flow () in
  let acks = ref [] in
  Net.register_flow net ~host:h.(0) ~flow:3 (fun p ->
      acks := (p.Packet.ack, p.Packet.sack) :: !acks);
  let send seq =
    Net.send net
      (Packet.make ~flow:3 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Data ~size:1500
         ~seq ~sent_at:0. ())
  in
  send 0;
  send 2;
  (* gap at 1 *)
  send 1;
  Engine.run e;
  Receiver.stop recv;
  Alcotest.(check (list (pair int int)))
    "cum ack advances through gap"
    [ (1, 0); (1, 2); (3, 1) ]
    (List.rev !acks);
  Alcotest.(check int) "receiver cum" 3 (Receiver.cum_ack recv)

let test_pacing_rate_limits () =
  (* Paced sender at 100 Mbps: 50 x 1500 B takes >= 6 ms. *)
  let rigv = rig () in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.pacing_rate = (fun _ -> Some 100e6);
    }
  in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 1000.;
      init_rtt = 100e-6;
    }
  in
  let _, fct = run_flow rigv ~hooks ~conf ~size_pkts:50 in
  match fct with
  | None -> Alcotest.fail "no completion"
  | Some fct ->
      Alcotest.(check bool)
        (Printf.sprintf "paced (got %.2f ms)" (fct *. 1e3))
        true
        (fct >= 5.9e-3 && fct < 8e-3)

let test_allow_send_gate () =
  let gate = ref false in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.allow_send = (fun _ -> !gate);
    }
  in
  let rigv = rig () in
  let e, _, _ = rigv in
  ignore e;
  let _, fct = run_flow rigv ~hooks ~size_pkts:10 in
  Alcotest.(check bool) "gated flow cannot finish" true (fct = None)

let test_deterministic_fct () =
  let run () =
    let rigv = rig () in
    let _, fct = run_flow rigv ~size_pkts:80 in
    Option.get fct
  in
  Alcotest.(check (float 0.)) "identical runs" (run ()) (run ())

(* A window that outgrows the send-time ring's initial 16 slots, drops on
   an 8-packet droptail queue, fast retransmits and a single RTO. The FCT
   and final srtt are pinned to the values the per-segment hash table that
   the ring replaced produced: srtt folds in every RTT sample, so a sample
   taken from a retransmitted segment (Karn's rule) or from a stale slot
   would move it. *)
let test_send_time_ring_pinned () =
  let fast = ref 0 and rtos = ref 0 and peak_window = ref 0 in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.on_ack =
        (fun s ~ecn:_ ~newly_acked ->
          peak_window :=
            max !peak_window (Sender_base.sent_new_pkts s - Sender_base.cum_ack s);
          Sender_base.set_cwnd s
            (Sender_base.cwnd s +. float_of_int newly_acked));
      on_fast_retransmit =
        (fun s ->
          incr fast;
          Sender_base.set_cwnd s (Sender_base.cwnd s /. 2.));
      on_timeout =
        (fun _ ->
          incr rtos;
          `Default);
    }
  in
  let rigv =
    rig ~qdisc:(fun c ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:8) ()
  in
  let _, c, _ = rigv in
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 4.;
      min_rto = 0.002;
      init_rtt = 100e-6;
    }
  in
  let sender, fct = run_flow rigv ~hooks ~conf ~size_pkts:400 in
  Alcotest.(check bool) "window outgrew 16 slots" true (!peak_window > 16);
  Alcotest.(check bool) "drops" true (c.Counters.dropped_pkts > 0);
  Alcotest.(check bool) "fast retransmit" true (!fast > 0);
  Alcotest.(check int) "one RTO" 1 !rtos;
  Alcotest.(check (option (float 0.))) "pinned fct" (Some 0.010668639999999818) fct;
  Alcotest.(check (float 0.)) "pinned srtt" 0.00015599999997363613
    (Sender_base.srtt sender)

let suite =
  [
    Alcotest.test_case "seg store" `Quick test_seg_store;
    Alcotest.test_case "flow helpers" `Quick test_flow_helpers;
    Alcotest.test_case "single flow completes" `Quick test_single_flow_completes;
    Alcotest.test_case "analytic FCT" `Quick test_single_flow_analytic_fct;
    Alcotest.test_case "delivery under loss" `Quick test_delivery_under_loss;
    Alcotest.test_case "fast retransmit" `Quick test_fast_retransmit_triggers;
    Alcotest.test_case "RTO recovers total loss" `Quick test_rto_recovers_total_loss;
    Alcotest.test_case "probe distinguishes loss" `Quick test_probe_distinguishes_loss;
    Alcotest.test_case "receiver cumulative ack" `Quick test_receiver_cumulative_ack;
    Alcotest.test_case "pacing rate limits" `Quick test_pacing_rate_limits;
    Alcotest.test_case "allow_send gate" `Quick test_allow_send_gate;
    Alcotest.test_case "deterministic fct" `Quick test_deterministic_fct;
    Alcotest.test_case "send-time ring pinned" `Quick test_send_time_ring_pinned;
  ]
