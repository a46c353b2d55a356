(* Incast under the microscope: 19 workers answer one aggregator at the
   same instant. The fabric sampler on the aggregator's downlink shows how
   PASE serializes the fan-in (full utilization, bounded queue) while
   pFabric's line-rate start floods the port and sheds packets.

   Run with: dune exec examples/incast_telemetry.exe *)

let run_incast name ~make_qdisc ~make_host =
  Packet.reset_ids ();
  let engine = Engine.create () in
  let counters = Counters.create () in
  let topo =
    Topology.single_rack engine counters ~hosts:20 ~rate_bps:1e9
      ~link_delay_s:25e-6 ~qdisc:(make_qdisc counters)
  in
  let h = topo.Topology.hosts in
  let agg = h.(0) in
  let net = topo.Topology.net in
  let tor = Topology.tor_of topo agg in
  let downlink = Option.get (Net.link_from net tor agg) in
  let store = Series.store () in
  let sampler =
    Sampler.start engine ~store ~interval:0.5e-3
      ~links:[ ("downlink", downlink) ]
      ()
  in
  let fcts = ref [] in
  let setup = make_host engine counters topo in
  for i = 1 to 19 do
    let flow =
      (* ~100 KB response per worker *)
      Flow.make ~id:i ~src:h.(i) ~dst:agg ~size_pkts:68 ~start_time:0. ()
    in
    let recv = Receiver.create net ~flow () in
    setup ~flow ~on_complete:(fun _ ~fct ->
        Receiver.stop recv;
        fcts := fct :: !fcts;
        (* Freeze the measurement window when the fan-in drains. *)
        if List.length !fcts = 19 then begin
          Sampler.stop sampler;
          Engine.stop engine
        end)
  done;
  Engine.run ~until:0.2 engine;
  let values metric =
    List.filter_map
      (fun (s : Series.sample) ->
        if s.Series.metric = metric then Some s.Series.v else None)
      (Series.samples store)
  in
  Printf.printf
    "%-8s AFCT %6.2f ms | last %6.2f ms | downlink util %3.0f%% | peak queue \
     %3d pkts | drops %d\n"
    name
    (Summary.mean !fcts *. 1e3)
    (Summary.max !fcts *. 1e3)
    (Summary.mean (values "link.downlink.util") *. 100.)
    (int_of_float (List.fold_left Float.max 0. (values "q.downlink.pkts")))
    counters.Counters.dropped_pkts

let () =
  print_endline "19-worker incast onto one aggregator (68-segment responses)\n";
  (* PASE: arbitration serializes the workers through the priority bands. *)
  run_incast "PASE"
    ~make_qdisc:(fun counters ~rate_bps:_ ->
      Prio_queue.create counters ~bands:8 ~limit_pkts:500 ~mark_threshold:20)
    ~make_host:(fun engine counters topo ->
      let cfg = Config.default in
      let rtt =
        Topology.base_rtt topo ~src:topo.Topology.hosts.(1)
          ~dst:topo.Topology.hosts.(0) ~data_bytes:1500
      in
      let hier =
        Hierarchy.create engine counters cfg topo
          ~base_rate_bps:(8. *. 1500. /. rtt)
      in
      Hierarchy.start hier;
      fun ~flow ~on_complete ->
        Pase_host.start
          (Pase_host.create topo.Topology.net hier ~flow ~cfg ~rtt ~nic_bps:1e9
             ~on_complete ()));
  (* pFabric: everyone blasts a 38-segment window into a 76-packet port. *)
  run_incast "pFabric"
    ~make_qdisc:(fun counters ~rate_bps:_ ->
      Pfabric_queue.create counters ~limit_pkts:76)
    ~make_host:(fun _engine _counters topo ->
      fun ~flow ~on_complete ->
        let rtt =
          Topology.base_rtt topo ~src:flow.Flow.src ~dst:flow.Flow.dst
            ~data_bytes:1500
        in
        Sender_base.start
          (Pfabric_host.create topo.Topology.net ~flow
             ~conf:(Pfabric_host.conf ~init_rtt:rtt ())
             ~on_complete ()))
