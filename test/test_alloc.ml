(* Allocation guards for the control-plane passes. [Gc.minor_words] is
   deterministic for a given binary, so these are exact checks, not timing
   ones: an arbitration round may allocate a small constant per decision
   it applies, and a water-filling pass a small constant per live fluid
   flow. A pass that rebuilds lists, options, closures or sorted copies of
   its tables per round exceeds these bounds many times over. *)

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let fat_tree k =
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.fat_tree e c ~k ~rate_bps:1e9 ~link_delay_s:25e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
  in
  (e, c, topo)

(* 512 registered flows with no data on k=6: steady-state rounds. *)
let round_words_per_apply () =
  Packet.reset_ids ();
  let e, c, topo = fat_tree 6 in
  let hosts = topo.Topology.hosts in
  let nh = Array.length hosts in
  let cfg = { Config.default with Config.arb_period = 1e-4 } in
  let h = Hierarchy.create e c cfg topo ~base_rate_bps:1e5 in
  let rng = Rng.create 7 in
  let applies = ref 0 in
  for id = 0 to 511 do
    let src = Rng.int rng nh in
    let dst = (src + 1 + Rng.int rng (nh - 1)) mod nh in
    let size = float_of_int (1 + Rng.int rng 150) in
    Hierarchy.add_flow h
      ~flow:(Flow.make ~id ~src:hosts.(src) ~dst:hosts.(dst) ~size_pkts:1 ~start_time:0. ())
      ~criterion:(fun () -> size)
      ~demand:(fun () -> 1e9)
      ~apply:(fun ~queue:_ ~rref_bps:_ -> incr applies)
      ()
  done;
  Hierarchy.start h;
  Engine.run ~until:(20. *. cfg.Config.arb_period) e;
  applies := 0;
  let w = words (fun () -> Engine.run ~until:(60. *. cfg.Config.arb_period) e) in
  Hierarchy.stop h;
  w /. float_of_int !applies

(* 512 long fluid flows on k=6; each short arrival forces a pass. *)
let pass_words_per_live () =
  let e, _, topo = fat_tree 6 in
  let hosts = topo.Topology.hosts in
  let nh = Array.length hosts in
  let fl = Fluid.create e topo.Topology.net ~demote_bytes:32768. () in
  let rng = Rng.create 11 in
  let admit id bytes =
    let src = Rng.int rng nh in
    let dst = (src + 1 + Rng.int rng (nh - 1)) mod nh in
    Fluid.admit fl ~id ~src:hosts.(src) ~dst:hosts.(dst) ~bytes
      ~on_demote:(fun ~remaining_bytes:_ ~rate_bps:_ -> ())
  in
  let live = 512 and arrivals = 40 in
  for id = 0 to live - 1 do
    admit id 1e12
  done;
  Engine.run ~until:1e-6 e;
  for k = 1 to arrivals do
    Engine.schedule_at e ~time:(float_of_int k *. 1e-5) (fun () -> admit (live + k) 60_000.)
  done;
  (* Warm up: the first arrivals grow the scratch arrays. *)
  Engine.run ~until:5.5e-5 e;
  let before = (Fluid.stats fl).Fluid.recomputes in
  let w = words (fun () -> Engine.run ~until:(float_of_int (arrivals + 1) *. 1e-5) e) in
  let passes = (Fluid.stats fl).Fluid.recomputes - before in
  w /. float_of_int passes /. float_of_int live

(* A warm 40-host rack under [Net.send]: 512 flows between random host
   pairs, packets in bursts of 1024 that drain before the next burst. The
   first bursts grow the queues, rings and event lanes; the rest measure
   the steady state, per packet-hop. *)
let hop_words () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:40 ~rate_bps:1e9 ~link_delay_s:25e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:1025)
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
  let send_burst b () =
    for i = 0 to burst - 1 do
      let f = i mod flows in
      let src, dst = pairs.(f) in
      Net.send net
        (Packet.make ~flow:f ~src ~dst ~kind:Packet.Data ~size:1500 ~seq:b
           ~sent_at:0. ())
    done
  in
  let bursts first n =
    for b = first to first + n - 1 do
      Engine.schedule_at e ~time:(float_of_int b *. 1e-3) (send_burst b)
    done;
    Engine.run ~until:(float_of_int (first + n) *. 1e-3) e
  in
  bursts 0 4;
  let hops = c.Counters.dequeued_pkts in
  let w = words (fun () -> bursts 4 16) in
  w /. float_of_int (c.Counters.dequeued_pkts - hops)

(* Measured at about 24 and 9 words. On these rigs, a round that sorted
   its tables through [Det_tbl] and rebuilt its inputs as lists took about
   500 words per decision, and the rescanning water-fill about 400 per
   live flow. *)
let test_round () =
  let w = round_words_per_apply () in
  if w > 32. then Alcotest.failf "%.1f minor words per applied decision (bound 32)" w

let test_pass () =
  let w = pass_words_per_live () in
  if w > 16. then Alcotest.failf "%.1f minor words per live flow per pass (bound 16)" w

(* Measured at about 11.8 words; the engine and links before FIFO lanes
   took about 16.0 on the same rig. Most of what is left is boxed floats:
   the clock at each event, and a transmission's serialization time. *)
let test_hop () =
  let w = hop_words () in
  if w > 12. then Alcotest.failf "%.2f minor words per packet-hop (bound 12)" w

let suite =
  [
    Alcotest.test_case "packet hop" `Quick test_hop;
    Alcotest.test_case "arbitration round" `Quick test_round;
    Alcotest.test_case "water-filling pass" `Quick test_pass;
  ]
