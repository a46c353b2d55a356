(* Cross-cutting properties: end-to-end packet conservation, per-band FIFO
   order, pFabric dequeue against a naive oracle, and work conservation of
   the PASE data path. *)

let mk ?(flow = 0) ?(seq = 0) ?(prio = 0.) ?(tos = 0) () =
  Packet.make ~flow ~src:0 ~dst:1 ~kind:Packet.Data ~size:1500 ~seq ~prio ~tos
    ~sent_at:0. ()

(* Every injected packet is eventually delivered or dropped; nothing is
   duplicated or lost by the fabric itself. *)
let prop_net_conservation =
  QCheck.Test.make ~count:100 ~name:"network conserves packets end-to-end"
    QCheck.(pair (int_range 2 8) (list_of_size Gen.(int_range 1 60) (int_range 0 7)))
    (fun (hosts, dsts) ->
      let e = Engine.create () in
      let c = Counters.create () in
      let topo =
        Topology.single_rack e c ~hosts ~rate_bps:1e9 ~link_delay_s:10e-6
          ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:5)
      in
      let h = topo.Topology.hosts in
      let delivered = ref 0 in
      Array.iter
        (fun host ->
          Net.register_flow topo.Topology.net ~host ~flow:1 (fun _ ->
              incr delivered))
        h;
      let sent = ref 0 in
      List.iteri
        (fun i d ->
          let src = h.(i mod hosts) in
          let dst = h.(d mod hosts) in
          if src <> dst then begin
            incr sent;
            Net.send topo.Topology.net
              (Packet.make ~flow:1 ~src ~dst ~kind:Packet.Data ~size:1500
                 ~seq:i ~sent_at:0. ())
          end)
        dsts;
      Engine.run e;
      !delivered + c.Counters.dropped_pkts = !sent)

(* Within one priority band the queue is strictly FIFO. *)
let prop_prio_band_fifo =
  QCheck.Test.make ~count:200 ~name:"prio queue is FIFO within each band"
    QCheck.(list_of_size Gen.(int_range 1 80) (int_range 0 3))
    (fun toses ->
      let c = Counters.create () in
      let q =
        Prio_queue.create c ~bands:4 ~limit_pkts:10_000 ~mark_threshold:9_999
      in
      List.iteri (fun i tos -> q.Queue_disc.enqueue (mk ~seq:i ~tos ())) toses;
      let last_seq = Array.make 4 (-1) in
      let ok = ref true in
      let rec drain () =
        match q.Queue_disc.dequeue () with
        | None -> ()
        | Some p ->
            let band = p.Packet.tos in
            if p.Packet.seq < last_seq.(band) then ok := false;
            last_seq.(band) <- p.Packet.seq;
            drain ()
      in
      drain ();
      !ok)

(* pFabric dequeue equals a naive oracle: min (prio, seq) flow, earliest
   segment of that flow. *)
let prop_pfabric_oracle =
  QCheck.Test.make ~count:200 ~name:"pfabric dequeue matches oracle"
    QCheck.(list_of_size Gen.(int_range 1 40) (pair (int_range 0 5) (int_range 0 50)))
    (fun pkts ->
      let c = Counters.create () in
      let q = Pfabric_queue.create c ~limit_pkts:1000 in
      let model = ref [] in
      List.iteri
        (fun i (flow, prio) ->
          let p = mk ~flow ~seq:i ~prio:(float_of_int prio) () in
          q.Queue_disc.enqueue p;
          model := p :: !model)
        pkts;
      let oracle_pop () =
        match !model with
        | [] -> None
        | l ->
            let best =
              List.fold_left
                (fun acc p ->
                  match acc with
                  | None -> Some p
                  | Some b ->
                      if
                        p.Packet.prio < b.Packet.prio
                        || (p.Packet.prio = b.Packet.prio
                           && p.Packet.seq < b.Packet.seq)
                      then Some p
                      else acc)
                None l
            in
            let b = Option.get best in
            (* earliest segment of the chosen flow *)
            let chosen =
              List.fold_left
                (fun acc p ->
                  if p.Packet.flow = b.Packet.flow && p.Packet.seq < acc.Packet.seq
                  then p
                  else acc)
                b l
            in
            model := List.filter (fun p -> p != chosen) !model;
            Some chosen
      in
      let ok = ref true in
      let rec drain () =
        match (q.Queue_disc.dequeue (), oracle_pop ()) with
        | None, None -> ()
        | Some a, Some b ->
            if a.Packet.id <> b.Packet.id then ok := false else drain ()
        | _ -> ok := false
      in
      drain ();
      !ok)

(* Work conservation: with two PASE flows saturating one bottleneck, the
   bottleneck link transmits ~continuously until both finish. *)
let test_pase_work_conservation () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let cfg = Config.default in
  let topo =
    Topology.single_rack e c ~hosts:3 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ ->
        Prio_queue.create c ~bands:8 ~limit_pkts:500 ~mark_threshold:20)
  in
  let h = topo.Topology.hosts in
  let rtt = Topology.base_rtt topo ~src:h.(0) ~dst:h.(2) ~data_bytes:1500 in
  let hier = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. rtt) in
  Hierarchy.start hier;
  let finished = ref 0 in
  let end_time = ref 0. in
  List.iteri
    (fun i size_pkts ->
      let flow =
        Flow.make ~id:i ~src:h.(i) ~dst:h.(2) ~size_pkts ~start_time:0. ()
      in
      let recv = Receiver.create topo.Topology.net ~flow () in
      Pase_host.start
        (Pase_host.create topo.Topology.net hier ~flow ~cfg ~rtt ~nic_bps:1e9
           ~on_complete:(fun _ ~fct ->
             Receiver.stop recv;
             incr finished;
             end_time := Float.max !end_time fct)
           ()))
    [ 400; 400 ];
  Engine.run ~until:0.5 e;
  Hierarchy.stop hier;
  Alcotest.(check int) "both finished" 2 !finished;
  (* 800 segments on a 1 Gbps link take 9.7 ms back to back; demand >95%
     utilization of the bottleneck across the makespan. *)
  let ideal = 800. *. 1500. *. 8. /. 1e9 in
  Alcotest.(check bool)
    (Printf.sprintf "work conserving (makespan %.2f vs ideal %.2f ms)"
       (!end_time *. 1e3) (ideal *. 1e3))
    true
    (!end_time < ideal /. 0.95)

(* Random PASE/DCTCP mixes on random small scenarios must always deliver
   every flow (no deadlock, no lost completion). *)
let prop_runner_always_completes =
  QCheck.Test.make ~count:8 ~name:"runner completes every flow (random mixes)"
    QCheck.(pair (int_range 0 5) (int_range 1 1000))
    (fun (pidx, seed) ->
      let proto =
        match pidx with
        | 0 -> Runner.Dctcp
        | 1 -> Runner.Pfabric
        | 2 -> Runner.Pdq
        | 3 -> Runner.D3
        | 4 -> Runner.L2dct
        | _ -> Runner.pase
      in
      let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:40 ~seed ~load:0.6 () in
      let r = Runner.run proto sc in
      r.Runner.completed = 40 && r.Runner.censored = 0)

let suite =
  [
    Qseed.to_alcotest prop_net_conservation;
    Qseed.to_alcotest prop_prio_band_fifo;
    Qseed.to_alcotest prop_pfabric_oracle;
    Alcotest.test_case "pase work conservation" `Quick test_pase_work_conservation;
    Qseed.to_alcotest prop_runner_always_completes;
  ]
