(* Links: serialization + propagation timing, back-to-back pipelining.
   Net: routing, delivery, handlers. Topology: structure and base RTT. *)

let mk ?(flow = 0) ?(seq = 0) ?(size = 1500) ?(src = 0) ?(dst = 1) () =
  Packet.make ~flow ~src ~dst ~kind:Packet.Data ~size ~seq ~sent_at:0. ()

let test_link_timing () =
  let e = Engine.create () in
  let c = Counters.create () in
  let arrivals = ref [] in
  let link =
    Link.create e
      ~qdisc:(Queue_disc.droptail c ~limit_pkts:10)
      ~rate_bps:1e9 ~delay_s:10e-6
      ~deliver:(fun p -> arrivals := (Engine.now e, p.Packet.seq) :: !arrivals)
      ()
  in
  (* 1500 B at 1 Gbps = 12 us serialization + 10 us propagation = 22 us. *)
  Link.send link (mk ~seq:0 ());
  Engine.run e;
  (match !arrivals with
  | [ (t, 0) ] -> Alcotest.(check (float 1e-9)) "arrival at 22us" 22e-6 t
  | _ -> Alcotest.fail "expected exactly one arrival");
  Alcotest.(check int) "bytes txed" 1500 (Link.bytes_txed link)

let test_link_pipelining () =
  let e = Engine.create () in
  let c = Counters.create () in
  let arrivals = ref [] in
  let link =
    Link.create e
      ~qdisc:(Queue_disc.droptail c ~limit_pkts:10)
      ~rate_bps:1e9 ~delay_s:10e-6
      ~deliver:(fun p -> arrivals := (Engine.now e, p.Packet.seq) :: !arrivals)
      ()
  in
  (* Two back-to-back packets: second is serialized right after the first,
     so it arrives exactly one serialization time later. *)
  Link.send link (mk ~seq:0 ());
  Link.send link (mk ~seq:1 ());
  Engine.run e;
  (match List.rev !arrivals with
  | [ (t0, 0); (t1, 1) ] ->
      Alcotest.(check (float 1e-9)) "first at 22us" 22e-6 t0;
      Alcotest.(check (float 1e-9)) "second 12us later" 34e-6 t1
  | _ -> Alcotest.fail "expected two arrivals")

let test_link_respects_queue_priority () =
  let e = Engine.create () in
  let c = Counters.create () in
  let arrivals = ref [] in
  let link =
    Link.create e
      ~qdisc:(Prio_queue.create c ~bands:2 ~limit_pkts:10 ~mark_threshold:99)
      ~rate_bps:1e9 ~delay_s:0.
      ~deliver:(fun p -> arrivals := p.Packet.seq :: !arrivals)
      ()
  in
  (* First packet seizes the transmitter; among the queued rest, the
     high-priority one must leave ahead of earlier low-priority arrivals. *)
  let p0 = mk ~seq:0 () in
  p0.Packet.tos <- 1;
  let p1 = mk ~seq:1 () in
  p1.Packet.tos <- 1;
  let p2 = mk ~seq:2 () in
  p2.Packet.tos <- 0;
  Link.send link p0;
  Link.send link p1;
  Link.send link p2;
  Engine.run e;
  Alcotest.(check (list int)) "priority within queue" [ 0; 2; 1 ]
    (List.rev !arrivals)

let build_star () =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:4 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  (e, c, topo)

let test_net_route_star () =
  let _, _, topo = build_star () in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let tor = topo.Topology.tors.(0) in
  Alcotest.(check (list int)) "two-hop route" [ h.(0); tor; h.(3) ]
    (Net.route net ~src:h.(0) ~dst:h.(3) ())

let test_net_delivery_and_handlers () =
  let e, c, topo = build_star () in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let got = ref [] in
  Net.register_flow net ~host:h.(1) ~flow:7 (fun p -> got := p.Packet.seq :: !got);
  Net.send net
    (Packet.make ~flow:7 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Data ~size:1500
       ~seq:42 ~sent_at:0. ());
  Engine.run e;
  Alcotest.(check (list int)) "delivered" [ 42 ] !got;
  Alcotest.(check int) "no strays" 0 c.Counters.stray_pkts;
  (* After unregistering, delivery counts as stray. *)
  Net.unregister_flow net ~host:h.(1) ~flow:7;
  Net.send net
    (Packet.make ~flow:7 ~src:h.(0) ~dst:h.(1) ~kind:Packet.Data ~size:1500
       ~seq:43 ~sent_at:0. ());
  Engine.run e;
  Alcotest.(check int) "stray counted" 1 c.Counters.stray_pkts

let build_tree () =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.three_tier e c ~hosts_per_tor:4 ~tors:4 ~aggs:2 ~edge_rate_bps:1e9
      ~fabric_rate_bps:10e9 ~link_delay_s:25e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  (e, c, topo)

let test_tree_structure () =
  let _, _, topo = build_tree () in
  Alcotest.(check int) "hosts" 16 (Array.length topo.Topology.hosts);
  Alcotest.(check int) "tors" 4 (Array.length topo.Topology.tors);
  Alcotest.(check int) "aggs" 2 (Array.length topo.Topology.aggs);
  Alcotest.(check int) "cores" 1 (Array.length topo.Topology.cores)

let test_tree_routes () =
  let _, _, topo = build_tree () in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  (* Same rack: 2 hops via the ToR only. *)
  let intra = Net.route net ~src:h.(0) ~dst:h.(1) () in
  Alcotest.(check int) "intra-rack path length" 3 (List.length intra);
  (* Same agg, different racks: via ToR-Agg-ToR. *)
  let same_agg = Net.route net ~src:h.(0) ~dst:h.(4) () in
  Alcotest.(check int) "same-agg path length" 5 (List.length same_agg);
  (* Across the core: 6 links. *)
  let cross = Net.route net ~src:h.(0) ~dst:h.(15) () in
  Alcotest.(check int) "cross-core path length" 7 (List.length cross);
  Alcotest.(check bool) "crosses the core" true
    (List.mem topo.Topology.cores.(0) cross)

let test_tree_tor_agg_of () =
  let _, _, topo = build_tree () in
  let h = topo.Topology.hosts in
  Alcotest.(check int) "tor of host 0" topo.Topology.tors.(0)
    (Topology.tor_of topo h.(0));
  Alcotest.(check int) "tor of host 15" topo.Topology.tors.(3)
    (Topology.tor_of topo h.(15));
  Alcotest.(check int) "agg of tor 0" topo.Topology.aggs.(0)
    (Topology.agg_of topo topo.Topology.tors.(0));
  Alcotest.(check int) "agg of tor 3" topo.Topology.aggs.(1)
    (Topology.agg_of topo topo.Topology.tors.(3))

let test_base_rtt () =
  let _, _, topo = build_tree () in
  let h = topo.Topology.hosts in
  (* Cross-core: 6 links each way; propagation 12 x 25us = 300us, plus
     serialization of data (6 x 12us) and ack (6 x 0.32us). *)
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(15) ~data_bytes:1500 in
  Alcotest.(check bool) "rtt near 330-380us" true (rtt > 320e-6 && rtt < 390e-6);
  let intra = Topology.base_rtt topo ~src:h.(0) ~dst:h.(1) ~data_bytes:1500 in
  Alcotest.(check bool) "intra-rack rtt smaller" true (intra < rtt /. 2.)

let test_end_to_end_delivery_tree () =
  let e, _, topo = build_tree () in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let got = ref 0 in
  Net.register_flow net ~host:h.(15) ~flow:1 (fun _ -> incr got);
  for seq = 0 to 9 do
    Net.send net
      (Packet.make ~flow:1 ~src:h.(0) ~dst:h.(15) ~kind:Packet.Data ~size:1500
         ~seq ~sent_at:0. ())
  done;
  Engine.run e;
  Alcotest.(check int) "all delivered across core" 10 !got

(* Send one packet per flow between seeded random host pairs and compare
   the links it crossed (those whose [bytes_txed] moved) with the links
   along [Net.route ~flow]: forwarding must take the path [route] reports,
   including the per-flow choice among equal-cost next hops. *)
let check_forwarding_matches_route e (topo : Topology.t) ~flows =
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let links = Net.links net in
  let rng = Rng.create 17 in
  let delivered = ref 0 in
  for flow = 0 to flows - 1 do
    let src = h.(Rng.int rng (Array.length h)) in
    let rec pick_dst () =
      let d = h.(Rng.int rng (Array.length h)) in
      if d = src then pick_dst () else d
    in
    let dst = pick_dst () in
    let before = List.map (fun (_, _, l) -> Link.bytes_txed l) links in
    Net.register_flow net ~host:dst ~flow (fun _ -> incr delivered);
    Net.send net
      (Packet.make ~flow ~src ~dst ~kind:Packet.Data ~size:1500 ~seq:0
         ~sent_at:0. ());
    Engine.run e;
    Net.unregister_flow net ~host:dst ~flow;
    let crossed =
      List.filter_map
        (fun ((a, b, l), bytes0) ->
          if Link.bytes_txed l > bytes0 then Some (a, b) else None)
        (List.combine links before)
    in
    let rec hops = function
      | a :: (b :: _ as rest) -> (a, b) :: hops rest
      | _ -> []
    in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "flow %d %d->%d" flow src dst)
      (List.sort compare (hops (Net.route net ~flow ~src ~dst ())))
      crossed
  done;
  Alcotest.(check int) "every packet delivered" flows !delivered

let test_forwarding_matches_route_rack () =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:40 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  check_forwarding_matches_route e topo ~flows:200

let test_register_before_finalize () =
  let e = Engine.create () in
  let c = Counters.create () in
  let net = Net.create e c in
  let a = Net.add_host net in
  let sw = Net.add_switch net in
  let b = Net.add_host net in
  let got = ref 0 in
  Net.register_flow net ~host:b ~flow:3 (fun _ -> incr got);
  List.iter
    (fun (x, y) ->
      Net.connect net x y ~rate_bps:1e9 ~delay_s:10e-6 ~qdisc:(fun () ->
          Queue_disc.droptail c ~limit_pkts:10))
    [ (a, sw); (sw, b) ];
  Net.finalize net;
  Net.send net
    (Packet.make ~flow:3 ~src:a ~dst:b ~kind:Packet.Data ~size:1500 ~seq:0
       ~sent_at:0. ());
  Engine.run e;
  Alcotest.(check int) "delivered" 1 !got;
  Alcotest.(check int) "no strays" 0 c.Counters.stray_pkts

let suite =
  [
    Alcotest.test_case "link timing" `Quick test_link_timing;
    Alcotest.test_case "link pipelining" `Quick test_link_pipelining;
    Alcotest.test_case "link respects queue priority" `Quick test_link_respects_queue_priority;
    Alcotest.test_case "net route star" `Quick test_net_route_star;
    Alcotest.test_case "net delivery and handlers" `Quick test_net_delivery_and_handlers;
    Alcotest.test_case "tree structure" `Quick test_tree_structure;
    Alcotest.test_case "tree routes" `Quick test_tree_routes;
    Alcotest.test_case "tor/agg accessors" `Quick test_tree_tor_agg_of;
    Alcotest.test_case "base rtt" `Quick test_base_rtt;
    Alcotest.test_case "end-to-end delivery in tree" `Quick test_end_to_end_delivery_tree;
    Alcotest.test_case "forwarding follows route (rack)" `Quick
      test_forwarding_matches_route_rack;
    Alcotest.test_case "handler registered before finalize" `Quick
      test_register_before_finalize;
  ]
