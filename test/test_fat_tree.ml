(* Fat-tree topology and ECMP: structure, path multiplicity, per-flow path
   stability, spreading across cores, and end-to-end runs. *)

let build k =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.fat_tree e c ~k ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  (e, c, topo)

let test_structure () =
  let _, _, topo = build 4 in
  Alcotest.(check int) "hosts" 16 (Array.length topo.Topology.hosts);
  Alcotest.(check int) "edge switches" 8 (Array.length topo.Topology.tors);
  Alcotest.(check int) "agg switches" 8 (Array.length topo.Topology.aggs);
  Alcotest.(check int) "cores" 4 (Array.length topo.Topology.cores)

let test_k6_structure () =
  let _, _, topo = build 6 in
  Alcotest.(check int) "hosts" 54 (Array.length topo.Topology.hosts);
  Alcotest.(check int) "cores" 9 (Array.length topo.Topology.cores)

let test_rejects_odd_k () =
  let e = Engine.create () in
  let c = Counters.create () in
  Alcotest.check_raises "odd k"
    (Invalid_argument "Topology.fat_tree: k must be even and >= 2") (fun () ->
      ignore
        (Topology.fat_tree e c ~k:3 ~rate_bps:1e9 ~link_delay_s:10e-6
           ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:10)))

let test_path_lengths () =
  let _, _, topo = build 4 in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  (* Same edge: 2 hops; same pod: 4 hops; cross-pod: 6 hops. *)
  Alcotest.(check int) "same edge" 3 (List.length (Net.route net ~src:h.(0) ~dst:h.(1) ()));
  Alcotest.(check int) "same pod" 5 (List.length (Net.route net ~src:h.(0) ~dst:h.(2) ()));
  Alcotest.(check int) "cross pod" 7 (List.length (Net.route net ~src:h.(0) ~dst:h.(15) ()))

let test_path_multiplicity () =
  let _, _, topo = build 4 in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  (* k=4: 4 equal-cost paths between cross-pod hosts, 2 within a pod. *)
  Alcotest.(check int) "cross-pod paths" 4 (Net.path_count net ~src:h.(0) ~dst:h.(15));
  Alcotest.(check int) "same-pod paths" 2 (Net.path_count net ~src:h.(0) ~dst:h.(2));
  Alcotest.(check int) "same-edge path" 1 (Net.path_count net ~src:h.(0) ~dst:h.(1))

let test_flow_path_stable () =
  let _, _, topo = build 4 in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  for flow = 0 to 20 do
    let p1 = Net.route net ~flow ~src:h.(0) ~dst:h.(15) () in
    let p2 = Net.route net ~flow ~src:h.(0) ~dst:h.(15) () in
    Alcotest.(check (list int)) "same flow, same path" p1 p2
  done

let test_ecmp_spreads () =
  let _, _, topo = build 4 in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let cores = Array.to_list topo.Topology.cores in
  let used = Hashtbl.create 4 in
  for flow = 0 to 199 do
    let path = Net.route net ~flow ~src:h.(0) ~dst:h.(15) () in
    List.iter (fun n -> if List.mem n cores then Hashtbl.replace used n ()) path
  done;
  (* 200 flows must spread over several of the 4 cores. *)
  Alcotest.(check bool)
    (Printf.sprintf "cores used: %d" (Hashtbl.length used))
    true
    (Hashtbl.length used >= 3)

let test_end_to_end_delivery () =
  let e, _, topo = build 4 in
  let net = topo.Topology.net in
  let h = topo.Topology.hosts in
  let got = ref 0 in
  for flow = 1 to 8 do
    Net.register_flow net ~host:h.(15) ~flow (fun _ -> incr got);
    Net.send net
      (Packet.make ~flow ~src:h.(0) ~dst:h.(15) ~kind:Packet.Data ~size:1500
         ~seq:0 ~sent_at:0. ())
  done;
  Engine.run e;
  Alcotest.(check int) "all flows delivered over ECMP" 8 !got

let test_forwarding_matches_route () =
  let e, _, topo = build 4 in
  Test_link_net.check_forwarding_matches_route e topo ~flows:200

let test_runner_on_fat_tree () =
  let sc = Scenario.fat_tree_uniform ~k:4 ~num_flows:80 ~seed:3 ~load:0.5 () in
  List.iter
    (fun proto ->
      let r = Runner.run proto sc in
      Alcotest.(check int)
        (r.Runner.protocol ^ " completes")
        80 r.Runner.completed)
    [ Runner.pase; Runner.Dctcp; Runner.Pfabric ]

let suite =
  [
    Alcotest.test_case "structure k=4" `Quick test_structure;
    Alcotest.test_case "structure k=6" `Quick test_k6_structure;
    Alcotest.test_case "rejects odd k" `Quick test_rejects_odd_k;
    Alcotest.test_case "path lengths" `Quick test_path_lengths;
    Alcotest.test_case "path multiplicity" `Quick test_path_multiplicity;
    Alcotest.test_case "flow path stable" `Quick test_flow_path_stable;
    Alcotest.test_case "ECMP spreads" `Quick test_ecmp_spreads;
    Alcotest.test_case "end-to-end delivery" `Quick test_end_to_end_delivery;
    Alcotest.test_case "forwarding follows route" `Quick
      test_forwarding_matches_route;
    Alcotest.test_case "runner on fat-tree" `Slow test_runner_on_fat_tree;
  ]
