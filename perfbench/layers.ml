(* The layer suite: each layer timed alone, through its public functions,
   on inputs sized like the workloads'. Every unit cost is the median over
   repetitions, with its quartiles. *)

(* Deterministic delays in [1 us, 101 us), precomputed so the timed loops
   pay no generator cost. *)
let delays =
  let rng = Rng.create 42 in
  Array.init 4096 (fun _ -> 1e-6 +. Rng.float rng 1e-4)

(* ---- Engine / Eheap ---------------------------------------------------- *)

(* [depth] self-rescheduling events: the heap stays [depth] deep while
   [pops] events execute. Filling the heap is not timed. *)
let churn ~depth ~pops () =
  let e = Engine.create () in
  let i = ref 0 in
  let rec step () =
    incr i;
    Engine.schedule e ~delay:delays.(!i land 4095) step
  in
  for k = 1 to depth do
    Engine.schedule e ~delay:delays.(k land 4095) step
  done;
  let _, wall = Measure.time (fun () -> Engine.run ~max_events:pops e) in
  wall *. 1e9 /. float_of_int (Engine.events_processed e)

(* The sender RTO pattern: each of 256 flows re-arms its timer one second
   out on every tick, so almost every heap slot dies unfired. One unit is a
   tick event plus its re-arm. *)
let rearm ~rounds () =
  let e = Engine.create () in
  let width = 256 in
  let timers = Array.init width (fun _ -> Engine.timer e ignore) in
  let remaining = ref rounds in
  let rec tick i () =
    Engine.timer_schedule e timers.(i) ~delay:1.0;
    if !remaining > 0 then begin
      decr remaining;
      Engine.schedule e ~delay:delays.(!remaining land 4095) (tick i)
    end
  in
  for i = 0 to width - 1 do
    Engine.schedule e ~delay:(float_of_int (i + 1) *. 1e-7) (tick i)
  done;
  let _, wall = Measure.time (fun () -> Engine.run ~until:0.5 e) in
  wall *. 1e9 /. float_of_int rounds

(* ---- Link / Net / queue disciplines -------------------------------------- *)

(* An engine whose heap holds 1024 idle far-future events, the depth of
   engine.ns_per_event.d1k, so the ledger can move a hop probe's events to a
   workload's depth by the difference of the two event costs. *)
let engine_at_d1k () =
  Packet.reset_ids ();
  let e = Engine.create () in
  for _ = 1 to 1024 do
    Engine.schedule e ~delay:1e3 ignore
  done;
  e

(* A burst of packets through a host-switch-switch-switch-host chain via
   [Net.send]: every hop is a transmit and a propagation event plus one
   droptail enqueue/dequeue. *)
let chain_hop ~pkts () =
  let e = engine_at_d1k () in
  let c = Counters.create () in
  let net = Net.create e c in
  let nodes =
    [ Net.add_host net; Net.add_switch net; Net.add_switch net; Net.add_switch net; Net.add_host net ]
  in
  let rec link = function
    | a :: (b :: _ as rest) ->
        Net.connect net a b ~rate_bps:1e9 ~delay_s:25e-6
          ~qdisc:(fun () -> Queue_disc.droptail c ~limit_pkts:(pkts + 1));
        link rest
    | _ -> ()
  in
  link nodes;
  Net.finalize net;
  let src = List.hd nodes and dst = List.nth nodes 4 in
  Net.register_flow net ~host:dst ~flow:0 ignore;
  let _, wall =
    Measure.time (fun () ->
        for seq = 0 to pkts - 1 do
          Net.send net
            (Packet.make ~flow:0 ~src ~dst ~kind:Packet.Data ~size:1500 ~seq ~sent_at:0. ())
        done;
        Engine.run ~until:1. e)
  in
  assert (c.Counters.delivered_pkts = pkts);
  wall *. 1e9 /. float_of_int c.Counters.dequeued_pkts

(* The same through a whole topology: 512 flows between random host pairs,
   so hops pick among equal-cost next hops and touch as many links, queues
   and flow handlers as a workload on that topology does. Packets leave in
   bursts of 1024, one every millisecond, which each drain before the next:
   about as many packets are live at once as in the workloads, whose peak
   heaps are 1.8k to 17k events deep. Sending all packets at once instead
   made a hop 1.2 to 1.6 times dearer, and the ledger over-predicted the
   rack workloads by up to 57%. *)
let fabric_hop ~topology ~pkts () =
  let e = engine_at_d1k () in
  let c = Counters.create () in
  let topo =
    topology e c ~rate_bps:1e9 ~link_delay_s:25e-6 ~qdisc:(fun ~rate_bps:_ ->
        Queue_disc.droptail c ~limit_pkts:1025)
  in
  let net = topo.Topology.net and hosts = topo.Topology.hosts in
  let nh = Array.length hosts in
  let rng = Rng.create 5 in
  let flows = 512 and burst = 1024 in
  let pairs =
    Array.init flows (fun f ->
        let s = Rng.int rng nh in
        let d = (s + 1 + Rng.int rng (nh - 1)) mod nh in
        Net.register_flow net ~host:hosts.(d) ~flow:f ignore;
        (hosts.(s), hosts.(d)))
  in
  let bursts = max 1 (pkts / burst) in
  let _, wall =
    Measure.time (fun () ->
        for b = 0 to bursts - 1 do
          Engine.schedule_at e ~time:(float_of_int b *. 1e-3) (fun () ->
              for i = 0 to burst - 1 do
                let f = i mod flows in
                let src, dst = pairs.(f) in
                Net.send net
                  (Packet.make ~flow:f ~src ~dst ~kind:Packet.Data ~size:1500 ~seq:b
                     ~sent_at:0. ())
              done)
        done;
        Engine.run ~until:(float_of_int bursts *. 1e-3 +. 1.) e)
  in
  assert (c.Counters.delivered_pkts = bursts * burst);
  wall *. 1e9 /. float_of_int c.Counters.dequeued_pkts

(* One enqueue plus one dequeue on a discipline holding [prefill] packets;
   the probe packet outranks the prefill, so occupancy stays constant. *)
let qdisc_op ~make ~prefill ~ops () =
  let c = Counters.create () in
  let q : Queue_disc.t = make c in
  for i = 0 to prefill - 1 do
    q.Queue_disc.enqueue
      (Packet.make ~flow:i ~src:0 ~dst:1 ~kind:Packet.Data ~size:1500 ~seq:i
         ~prio:(float_of_int i) ~tos:7 ~ecn_capable:true ~sent_at:0. ())
  done;
  let pkt =
    Packet.make ~flow:prefill ~src:0 ~dst:1 ~kind:Packet.Data ~size:1500 ~seq:0
      ~prio:(-1.) ~tos:3 ~ecn_capable:true ~sent_at:0. ()
  in
  let _, wall =
    Measure.time (fun () ->
        for _ = 1 to ops do
          q.Queue_disc.enqueue pkt;
          match q.Queue_disc.dequeue () with
          | Some p -> p.Packet.ecn_ce <- false
          | None -> ()
        done)
  in
  wall *. 1e9 /. float_of_int ops

(* ---- transports ---------------------------------------------------------- *)

(* One long flow alone on a 2-host 1 Gbps rack. Returns host seconds, the
   hops its packets made and the segments acknowledged. *)
let lone_flow ~proto ~pkts () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:2 ~rate_bps:1e9 ~link_delay_s:25e-6
      ~qdisc:(Workloads.qdisc_of proto c)
  in
  let net = topo.Topology.net in
  let src = topo.Topology.hosts.(0) and dst = topo.Topology.hosts.(1) in
  let rtt = Topology.base_rtt topo ~src ~dst ~data_bytes:1500 in
  let flow = Flow.make ~id:0 ~src ~dst ~size_pkts:pkts ~start_time:0. () in
  let recv = Receiver.create net ~flow ~ack_tos:0 ~ack_prio:0. () in
  let stop = ref (fun () -> ()) in
  let on_complete _ ~fct:_ =
    Receiver.stop recv;
    !stop ();
    Engine.stop e
  in
  (match proto with
  | Runner.Pase cfg ->
      let cfg = { cfg with Config.arb_period = Float.min cfg.Config.arb_period rtt } in
      let h = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. rtt) in
      Hierarchy.start h;
      (stop := fun () -> Hierarchy.stop h);
      Pase_host.start
        (Pase_host.create net h ~flow ~cfg ~rtt ~nic_bps:1e9 ~on_complete ())
  | Runner.Pfabric ->
      Sender_base.start
        (Pfabric_host.create net ~flow
           ~conf:(Pfabric_host.conf ~init_rtt:rtt ~init_cwnd:38. ())
           ~on_complete ())
  | Runner.Dctcp | Runner.D2tcp | Runner.L2dct | Runner.Pdq | Runner.D3 ->
      Sender_base.start
        (Dctcp.create net ~flow ~conf:(Dctcp.conf ~init_rtt:rtt ()) ~on_complete ()));
  let _, wall = Measure.time (fun () -> Engine.run ~until:10. e) in
  (wall, float_of_int c.Counters.dequeued_pkts, float_of_int pkts)

(* ---- arbitration --------------------------------------------------------- *)

let arb_inputs n =
  List.init n (fun i ->
      { Arbitration.flow = i; criterion = float_of_int (i * 37 mod n); demand_bps = 1e9 })

let assign ~n ~calls () =
  let inputs = arb_inputs n in
  let _, wall =
    Measure.time (fun () ->
        for _ = 1 to calls do
          ignore
            (Arbitration.assign ~capacity_bps:10e9 ~num_queues:8 ~base_rate_bps:1e5
               inputs)
        done)
  in
  wall *. 1e6 /. float_of_int calls

let arbitrate ~n ~calls () =
  let _, wall =
    Measure.time (fun () ->
        for _ = 1 to calls do
          let a = Arbitrator.create ~capacity_bps:10e9 () in
          for i = 0 to n - 1 do
            Arbitrator.upsert a ~flow:i ~criterion:(float_of_int (i * 37 mod n))
              ~demand_bps:1e9 ~now:0.
          done;
          Arbitrator.arbitrate a ~num_queues:8 ~base_rate_bps:1e5
        done)
  in
  wall *. 1e6 /. float_of_int calls

(* Arbitration rounds of the PASE hierarchy on a k=6 fat-tree with [flows]
   registered flows and no data traffic: host microseconds per round, and
   host nanoseconds per decision applied (a round's work grows with the
   flows it serves, which the applies count). *)
let hierarchy_round ~flows ~rounds () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.fat_tree e c ~k:6 ~rate_bps:1e9 ~link_delay_s:25e-6
      ~qdisc:(Workloads.qdisc_of Runner.pase c)
  in
  let hosts = topo.Topology.hosts in
  let nh = Array.length hosts in
  let rtt = Topology.base_rtt topo ~src:hosts.(0) ~dst:hosts.(nh - 1) ~data_bytes:1500 in
  let cfg =
    { Config.default with Config.arb_period = Float.min Config.default.Config.arb_period rtt }
  in
  let h = Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. rtt) in
  let rng = Rng.create 7 in
  let applies = ref 0 in
  for id = 0 to flows - 1 do
    let src = Rng.int rng nh in
    let dst = (src + 1 + Rng.int rng (nh - 1)) mod nh in
    let size = 1 + Rng.int rng 150 in
    let flow =
      Flow.make ~id ~src:hosts.(src) ~dst:hosts.(dst) ~size_pkts:size ~start_time:0. ()
    in
    Hierarchy.add_flow h ~flow
      ~criterion:(fun () -> float_of_int size)
      ~demand:(fun () -> 1e9)
      ~apply:(fun ~queue:_ ~rref_bps:_ -> incr applies)
      ()
  done;
  applies := 0;
  Hierarchy.start h;
  let _, wall =
    Measure.time (fun () ->
        Engine.run ~until:(float_of_int rounds *. cfg.Config.arb_period) e)
  in
  Hierarchy.stop h;
  ( wall *. 1e6 /. float_of_int (max 1 (Hierarchy.rounds h)),
    wall *. 1e9 /. float_of_int (max 1 !applies) )

(* ---- Fluid --------------------------------------------------------------- *)

(* Water-filling passes on a k=10 fat-tree with [live] long fluid flows:
   one short flow joins every 10 us (each arrival forces a pass) and leaves
   at the demotion boundary. The initial admission pass is not timed. *)
let fluid_pass ~live ~arrivals () =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.fat_tree e c ~k:10 ~rate_bps:1e9 ~link_delay_s:25e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  let hosts = topo.Topology.hosts in
  let nh = Array.length hosts in
  let fl =
    Fluid.create e topo.Topology.net ~demote_bytes:32768. ~min_interval:0. ()
  in
  let rng = Rng.create 11 in
  let admit id bytes =
    let src = Rng.int rng nh in
    let dst = (src + 1 + Rng.int rng (nh - 1)) mod nh in
    Fluid.admit fl ~id ~src:hosts.(src) ~dst:hosts.(dst) ~bytes
      ~on_demote:(fun ~remaining_bytes:_ ~rate_bps:_ -> ())
  in
  for id = 0 to live - 1 do
    admit id 1e12
  done;
  for k = 1 to arrivals do
    Engine.schedule_at e ~time:(float_of_int k *. 1e-5) (fun () -> admit (live + k) 60_000.)
  done;
  Engine.run ~until:1e-6 e;
  let before = (Fluid.stats fl).Fluid.recomputes in
  let _, wall =
    Measure.time (fun () -> Engine.run ~until:(float_of_int (arrivals + 1) *. 1e-5) e)
  in
  wall *. 1e6 /. float_of_int (max 1 ((Fluid.stats fl).Fluid.recomputes - before))

(* ---- stats --------------------------------------------------------------- *)

let records ~mode ~n () =
  let f = match mode with `Exact -> Fct.create () | `Streaming -> Fct.create_streaming ~seed:1 () in
  let _, wall =
    Measure.time (fun () ->
        for i = 0 to n - 1 do
          Fct.add_record f
            {
              Fct.flow = i;
              size_pkts = 1 + (i mod 137);
              start_time = float_of_int i *. 1e-6;
              fct = delays.(i land 4095);
              deadline = None;
              censored = false;
              ideal = Some 1e-5;
              task = None;
              fluid = false;
            }
        done)
  in
  wall *. 1e9 /. float_of_int n

(* ---- the suite ----------------------------------------------------------- *)

(* Every unit cost, as (name, unit, summary over repetitions). Quick mode
   shrinks inputs only where the shape of the measurement survives it. *)
let suite ~quick =
  let reps = if quick then 3 else 7 in
  let s n = if quick then max 1 (n / 10) else n in
  let timed name unit f =
    ( name,
      unit,
      Measure.span ("layer " ^ name) (fun () ->
          Measure.summarise (List.init reps (fun _ -> f ()))) )
  in
  (* The hop cost is subtracted from the lone flow's time, so both are
     measured back to back in each repetition: host drift between them would
     otherwise swamp the per-ACK remainder. *)
  let per_ack proto () =
    let hop_ns = chain_hop ~pkts:(s 20_000) () in
    let wall, hops, acks = lone_flow ~proto ~pkts:(s 20_000) () in
    ((wall *. 1e9) -. (hops *. hop_ns)) /. acks
  in
  let rounds =
    Measure.span "layer arb.round_us.k6" (fun () ->
        List.init reps (fun _ -> hierarchy_round ~flows:512 ~rounds:(s 200) ()))
  in
  [
    timed "engine.ns_per_event.d1k" "ns" (churn ~depth:1024 ~pops:(s 400_000));
    timed "engine.ns_per_event.d8k" "ns" (churn ~depth:8192 ~pops:(s 400_000));
    timed "engine.ns_per_event.d64k" "ns" (churn ~depth:65536 ~pops:(s 400_000));
    timed "engine.ns_per_rearm" "ns" (rearm ~rounds:(s 300_000));
    timed "link.ns_per_hop" "ns" (chain_hop ~pkts:(s 50_000));
    timed "link.ns_per_hop.rack40" "ns"
      (fabric_hop ~pkts:(s 50_000) ~topology:(Topology.single_rack ~hosts:40));
    timed "link.ns_per_hop.k6" "ns"
      (fabric_hop ~pkts:(s 50_000) ~topology:(Topology.fat_tree ~k:6));
    timed "link.ns_per_hop.k10" "ns"
      (fabric_hop ~pkts:(s 50_000) ~topology:(Topology.fat_tree ~k:10));
    timed "qdisc.prio.ns_per_op" "ns"
      (qdisc_op ~prefill:0 ~ops:(s 1_000_000) ~make:(fun c ->
           Prio_queue.create c ~bands:8 ~limit_pkts:500 ~mark_threshold:65));
    timed "qdisc.red_ecn.ns_per_op" "ns"
      (qdisc_op ~prefill:0 ~ops:(s 1_000_000) ~make:(fun c ->
           Queue_disc.red_ecn c ~limit_pkts:225 ~mark_threshold:65));
    timed "qdisc.pfabric.ns_per_op" "ns"
      (qdisc_op ~prefill:40 ~ops:(s 300_000) ~make:(fun c ->
           Pfabric_queue.create c ~limit_pkts:76));
    timed "qdisc.droptail.ns_per_op" "ns"
      (qdisc_op ~prefill:0 ~ops:(s 1_000_000) ~make:(fun c ->
           Queue_disc.droptail c ~limit_pkts:225));
    timed "transport.dctcp.ns_per_ack" "ns" (per_ack Runner.Dctcp);
    timed "transport.pase.ns_per_ack" "ns" (per_ack Runner.pase);
    timed "transport.pfabric.ns_per_ack" "ns" (per_ack Runner.Pfabric);
    timed "arb.assign_us.n16" "us" (assign ~n:16 ~calls:(s 20_000));
    timed "arb.assign_us.n128" "us" (assign ~n:128 ~calls:(s 3_000));
    timed "arb.assign_us.n1024" "us" (assign ~n:1024 ~calls:(s 300));
    timed "arb.arbitrate_us.n128" "us" (arbitrate ~n:128 ~calls:(s 2_000));
    ("arb.round_us.k6", "us", Measure.summarise (List.map fst rounds));
    ("arb.ns_per_apply", "ns", Measure.summarise (List.map snd rounds));
    timed "fluid.pass_us.live256" "us" (fluid_pass ~live:256 ~arrivals:(s 400));
    timed "fluid.pass_us.live2048" "us" (fluid_pass ~live:2048 ~arrivals:(s 100));
    timed "stats.exact.ns_per_record" "ns" (records ~mode:`Exact ~n:(s 300_000));
    timed "stats.stream.ns_per_record" "ns" (records ~mode:`Streaming ~n:(s 300_000));
  ]
