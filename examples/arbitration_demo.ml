(* Control-plane demo: watch PASE's arbitration decisions evolve as flows
   arrive and finish on one bottleneck link. Prints, at each arbitration
   event, the (queue, reference-rate) each flow holds — the mechanics of
   section 3.1 made visible.

   Run with: dune exec examples/arbitration_demo.exe *)

let () =
  let engine = Engine.create () in
  let counters = Counters.create () in
  let cfg = Config.default in
  let qdisc ~rate_bps:_ =
    Prio_queue.create counters ~bands:cfg.Config.num_queues ~limit_pkts:500
      ~mark_threshold:20
  in
  let topo =
    Topology.single_rack engine counters ~hosts:5 ~rate_bps:1e9
      ~link_delay_s:25e-6 ~qdisc
  in
  let h = topo.Topology.hosts in
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(4) ~data_bytes:1500 in
  let hier =
    Hierarchy.create engine counters cfg topo ~base_rate_bps:(8. *. 1500. /. rtt)
  in
  Hierarchy.start hier;
  let state = Hashtbl.create 8 in
  let show () =
    Printf.printf "t=%6.2f ms |" (Engine.now engine *. 1e3);
    Det_tbl.iter ~cmp:Int.compare
      (fun id (q, r) ->
        Printf.printf " flow%d: queue %d, Rref %4.0f Mbps |" id q (r /. 1e6))
      state;
    print_newline ()
  in
  (* Flows of decreasing size arriving 2 ms apart, all to host 4: each new,
     shorter flow takes over the top queue and demotes the others. *)
  let sizes = [ (1, 1500); (2, 700); (3, 250) ] in
  List.iteri
    (fun i (id, size_pkts) ->
      let start = float_of_int i *. 0.002 in
      Engine.schedule_at engine ~time:start (fun () ->
          Printf.printf "t=%6.2f ms >> flow%d arrives (%d pkts)\n"
            (Engine.now engine *. 1e3) id size_pkts;
          let flow =
            Flow.make ~id ~src:h.(i) ~dst:h.(4) ~size_pkts ~start_time:start ()
          in
          let recv = Receiver.create topo.Topology.net ~flow () in
          let on_complete _ ~fct =
            Receiver.stop recv;
            Hashtbl.remove state id;
            Printf.printf "t=%6.2f ms << flow%d done (fct %.2f ms)\n"
              (Engine.now engine *. 1e3) id (fct *. 1e3);
            show ()
          in
          let host =
            Pase_host.create topo.Topology.net hier ~flow ~cfg ~rtt ~nic_bps:1e9
              ~on_complete ()
          in
          Pase_host.start host;
          (* Sample this flow's assignment every arbitration period. *)
          let rec sample () =
            if not (Sender_base.completed (Pase_host.sender host)) then begin
              let q = Pase_host.queue host and r = Pase_host.rref_bps host in
              let changed =
                match Hashtbl.find_opt state id with
                | Some (q', r') -> q' <> q || r' <> r
                | None -> true
              in
              Hashtbl.replace state id (q, r);
              if changed then show ();
              Engine.schedule engine ~delay:cfg.Config.arb_period sample
            end
          in
          sample ()))
    sizes;
  Engine.run ~until:0.1 engine;
  Printf.printf "\n%d arbitration rounds, %d control messages (intra-rack: 0)\n"
    (Hierarchy.rounds hier) counters.Counters.ctrl_msgs
