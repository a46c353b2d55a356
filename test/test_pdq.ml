(* PDQ: arbiter allocation (SJF/EDF order, suppressed demand, Early Start)
   and host behaviour (preemption, switching overhead). *)

let arb cap = Pdq.Arbiter.create ~capacity_bps:cap

let upd a ~flow ~rem ?(nic = 1e9) ?(use = 1e9) ?deadline () =
  Pdq.Arbiter.update a ~flow ~remaining_pkts:rem ~nic_bps:nic ~usable_bps:use
    ~deadline

let alloc a flow = Pdq.Arbiter.allocation a ~flow ~rtt:150e-6 ~mss_bits:11680.

let test_single_flow_full_rate () =
  let a = arb 1e9 in
  upd a ~flow:1 ~rem:100 ();
  Alcotest.(check (float 1.)) "full rate" 1e9 (alloc a 1)

let test_sjf_order () =
  let a = arb 1e9 in
  upd a ~flow:1 ~rem:1000 ();
  upd a ~flow:2 ~rem:100 ();
  (* Shorter flow wins the link; longer is paused. *)
  Alcotest.(check (float 1.)) "short gets link" 1e9 (alloc a 2);
  Alcotest.(check (float 1.)) "long paused" 0. (alloc a 1)

let test_edf_beats_sjf () =
  let a = arb 1e9 in
  upd a ~flow:1 ~rem:10 ();
  upd a ~flow:2 ~rem:1000 ~deadline:0.01 ();
  (* Deadline flow outranks a shorter non-deadline flow. *)
  Alcotest.(check (float 1.)) "deadline flow first" 1e9 (alloc a 2);
  Alcotest.(check (float 1.)) "other paused" 0. (alloc a 1)

let test_suppressed_demand_frees_capacity () =
  let a = arb 1e9 in
  (* Flow 1 is shortest but bottlenecked elsewhere (usable 0): it must not
     block flow 2. *)
  upd a ~flow:1 ~rem:10 ~use:0. ();
  upd a ~flow:2 ~rem:100 ();
  Alcotest.(check (float 1.)) "blocked flow still offered rate" 1e9 (alloc a 1);
  Alcotest.(check (float 1.)) "next flow gets the capacity" 1e9 (alloc a 2)

let test_partial_suppression () =
  let a = arb 1e9 in
  upd a ~flow:1 ~rem:10 ~use:0.4e9 ();
  upd a ~flow:2 ~rem:100 ();
  Alcotest.(check (float 1e6)) "remainder to second flow" 0.6e9 (alloc a 2)

let test_early_start () =
  let a = arb 1e9 in
  (* Flow 1 finishes within one RTT at full rate (10 pkts ~ 117us < 150us):
     Early Start lets flow 2 begin immediately. *)
  upd a ~flow:1 ~rem:10 ();
  upd a ~flow:2 ~rem:100 ();
  Alcotest.(check (float 1.)) "successor admitted early" 1e9 (alloc a 2);
  (* A longer leader does consume the link. *)
  let a2 = arb 1e9 in
  upd a2 ~flow:1 ~rem:100 ();
  upd a2 ~flow:2 ~rem:200 ();
  Alcotest.(check (float 1.)) "no early start for long leader" 0. (alloc a2 2)

let test_remove () =
  let a = arb 1e9 in
  upd a ~flow:1 ~rem:10 ();
  upd a ~flow:2 ~rem:100 ();
  Pdq.Arbiter.remove a ~flow:1;
  Alcotest.(check int) "one left" 1 (Pdq.Arbiter.flows a);
  Alcotest.(check (float 1.)) "survivor promoted" 1e9 (alloc a 2)

(* Shared arbiters across flows need a common registry: rebuild rig-level. *)
let rig_with_arbiters () =
  Packet.reset_ids ();
  let e = Engine.create () in
  let c = Counters.create () in
  let topo =
    Topology.single_rack e c ~hosts:4 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:24)
  in
  let net = topo.Topology.net in
  let arbs = Hashtbl.create 8 in
  let arbiters_for src dst =
    let rec links acc = function
      | a :: (b :: _ as rest) ->
          let arb =
            match Hashtbl.find_opt arbs (a, b) with
            | Some x -> x
            | None ->
                let l = Option.get (Net.link_from net a b) in
                let x = Pdq.Arbiter.create ~capacity_bps:(Link.rate_bps l) in
                Hashtbl.replace arbs (a, b) x;
                x
          in
          links (arb :: acc) rest
      | _ -> List.rev acc
    in
    links [] (Net.route net ~src ~dst ())
  in
  let launch ~id ~src ~dst ~size_pkts ~start =
    let result = ref None in
    Engine.schedule_at e ~time:start (fun () ->
        let flow = Flow.make ~id ~src ~dst ~size_pkts ~start_time:start () in
        let recv = Receiver.create net ~flow () in
        let rtt = Topology.base_rtt topo ~src ~dst ~data_bytes:1500 in
        let on_complete _ ~fct =
          Receiver.stop recv;
          result := Some fct
        in
        Explicit_rate.start Pdq.policy net ~flow ~agents:(arbiters_for src dst)
          ~rtt ~on_complete);
    result
  in
  (e, topo, launch)

let test_host_single_flow () =
  let e, topo, launch = rig_with_arbiters () in
  let h = topo.Topology.hosts in
  let r = launch ~id:1 ~src:h.(0) ~dst:h.(1) ~size_pkts:100 ~start:0. in
  Engine.run ~until:0.5 e;
  match !r with
  | None -> Alcotest.fail "flow did not complete"
  | Some fct ->
      (* 100 pkts ~ 1.2 ms serialization + ~2 RTT setup. *)
      Alcotest.(check bool)
        (Printf.sprintf "near line rate (%.2f ms)" (fct *. 1e3))
        true
        (fct > 1.2e-3 && fct < 2.2e-3)

let test_host_preemption () =
  let e, topo, launch = rig_with_arbiters () in
  let h = topo.Topology.hosts in
  let big = launch ~id:1 ~src:h.(0) ~dst:h.(3) ~size_pkts:400 ~start:0. in
  let small = launch ~id:2 ~src:h.(1) ~dst:h.(3) ~size_pkts:40 ~start:0.001 in
  Engine.run ~until:0.5 e;
  match (!big, !small) with
  | Some fb, Some fs ->
      (* The small flow preempts: it finishes close to its isolated time,
         the big flow pays for it. *)
      Alcotest.(check bool)
        (Printf.sprintf "small fast (%.2f ms)" (fs *. 1e3))
        true (fs < 1.5e-3);
      Alcotest.(check bool) "big paid preemption" true (fb > 4.8e-3)
  | _ -> Alcotest.fail "flows did not finish"

let test_host_counts_ctrl_msgs () =
  let e, topo, launch = rig_with_arbiters () in
  let h = topo.Topology.hosts in
  let c = Net.counters topo.Topology.net in
  let _ = launch ~id:1 ~src:h.(0) ~dst:h.(1) ~size_pkts:100 ~start:0. in
  Engine.run ~until:0.5 e;
  Alcotest.(check bool) "control messages counted" true (c.Counters.ctrl_msgs > 0)

let suite =
  [
    Alcotest.test_case "single flow full rate" `Quick test_single_flow_full_rate;
    Alcotest.test_case "SJF order" `Quick test_sjf_order;
    Alcotest.test_case "EDF beats SJF" `Quick test_edf_beats_sjf;
    Alcotest.test_case "suppressed demand" `Quick test_suppressed_demand_frees_capacity;
    Alcotest.test_case "partial suppression" `Quick test_partial_suppression;
    Alcotest.test_case "early start" `Quick test_early_start;
    Alcotest.test_case "remove" `Quick test_remove;
    Alcotest.test_case "host single flow" `Quick test_host_single_flow;
    Alcotest.test_case "host preemption" `Quick test_host_preemption;
    Alcotest.test_case "host counts ctrl msgs" `Quick test_host_counts_ctrl_msgs;
  ]
