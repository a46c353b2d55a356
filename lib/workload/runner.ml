type protocol = Dctcp | D2tcp | L2dct | Pfabric | Pdq | D3 | Pase of Config.t

let name = function
  | Dctcp -> "DCTCP"
  | D2tcp -> "D2TCP"
  | L2dct -> "L2DCT"
  | Pfabric -> "pFabric"
  | Pdq -> "PDQ"
  | D3 -> "D3"
  | Pase cfg ->
      if not cfg.Config.use_ref_rate then "PASE-DCTCP"
      else if cfg.Config.local_only then "PASE-local"
      else if cfg.Config.scheduling = Config.Task_aware then "PASE-task"
      else "PASE"

let pase = Pase Config.default

(* Hybrid fidelity: which protocols may carry fluid (flow-level) traffic.
   ECN-based transports converge to a fair share on long flows, which is
   exactly what the max-min fluid model computes; PASE's rate assignment is
   approximated by the same fair share while a flow is fluid (arbitration
   re-engages at demotion). pFabric/PDQ/D3 schedule packets by remaining
   size or explicit per-flow rates — collapsing them to a fair share would
   change the very mechanism under study, so they stay packet-level. *)
let fluid_capable = function
  | Dctcp | D2tcp | L2dct | Pase _ -> true
  | Pfabric | Pdq | D3 -> false

type hybrid = { enabled : bool; fluid_threshold : int }

let default_fluid_threshold = 32768

type hybrid_stats = {
  hybrid_on : bool;
  threshold_bytes : int;
  fluid_flows : int;  (* classifier sent to the fluid tier *)
  fluid_demotions : int;  (* total demotions to packet level *)
  fault_demotions : int;  (* demotions forced by path faults *)
  fluid_recomputes : int;  (* rate-allocation passes *)
  fluid_bytes : float;  (* bytes advanced analytically *)
  short_p99 : float;  (* p99 FCT of flows the classifier left packet-level *)
}

type result = {
  scenario : string;
  protocol : string;
  load : float;
  fct : Fct.t;
  afct : float;
  p99 : float;
  p999 : float;
  app_throughput : float;
  loss_rate : float;
  ctrl_msgs : int;
  ctrl_msg_rate : float;
  duration : float;
  events : int;
  completed : int;
  censored : int;
  stray_pkts : int;
  (* Fault plane: all zero / nan for fault-free runs. *)
  faults_injected : int;
  blackholed_pkts : int;
  ctrl_lost_msgs : int;
  link_downtime_s : float;
  recovery_s : float;  (* nan when no crash recovered *)
  afct_baseline : float;  (* fault-free AFCT of the same scenario; nan if n/a *)
  afct_inflation : float;  (* afct /. afct_baseline; nan if n/a *)
  attrib : Attrib.t option;
      (* per-flow delay attribution aggregate; None unless run ~attrib *)
  hybrid : hybrid_stats option;
      (* hybrid fidelity accounting; None unless run ~hybrid *)
  coflow : Coflow.t option;
      (* coflow (task-group) CCT aggregate; None when no spec carries a
         task id *)
  peak_heap : int;
  sched_profile : (string * int) list;
  (* GC deltas over the run, profiling runs only (zero otherwise). Like
     wall_s they depend on process state: never byte-compare them. *)
  gc_minor_words : float;
  gc_promoted_words : float;
  gc_major_collections : int;
}

(* Running state of one task group (incast query or coflow job) while its
   member records stream in; folded into the Coflow aggregate at the end of
   the run, in sorted task-id order. *)
type group = {
  mutable first_start : float;
  mutable last_end : float;
  mutable members : int;
  mutable any_censored : bool;
  mutable group_deadline : float option;  (* min over member deadlines *)
}

let mss = 1460

(* ECN marking threshold K, scaled with link speed as in the DCTCP
   guidelines (65 packets at 10 Gbps, 20 at 1 Gbps). *)
let mark_threshold_for rate_bps = if rate_bps >= 5e9 then 65 else 20

let qdisc_for protocol counters ~rtt =
  (* Packets of one edge-link (1 Gbps) bandwidth-delay product. *)
  let bdp_pkts rate_bps =
    rate_bps *. rtt /. float_of_int (8 * (mss + Packet.header_bytes))
  in
  match protocol with
  | Dctcp | D2tcp | L2dct ->
      fun ~rate_bps ->
        Queue_disc.red_ecn counters ~limit_pkts:225
          ~mark_threshold:(mark_threshold_for rate_bps)
  | Pfabric ->
      (* Table 3 verbatim: 76-packet ports (= 2 x the BDP the paper sizes
         against). *)
      fun ~rate_bps:_ -> Pfabric_queue.create counters ~limit_pkts:76
  | Pdq ->
      (* PDQ argues for (and depends on) near-empty queues: it provisions
         only a little over one BDP of buffering. Rate-update staleness
         under heavy churn then surfaces as drops + RTOs, the flow-switching
         cost Fig 2 measures. *)
      fun ~rate_bps ->
        let scale = if rate_bps >= 5e9 then 10. else 1. in
        let limit = max 12 (int_of_float (1.6 *. scale *. bdp_pkts 1e9)) in
        Queue_disc.droptail counters ~limit_pkts:limit
  | D3 -> fun ~rate_bps:_ -> Queue_disc.droptail counters ~limit_pkts:225
  | Pase cfg ->
      fun ~rate_bps ->
        Prio_queue.create counters ~bands:cfg.Config.num_queues
          ~limit_pkts:cfg.Config.queue_limit_pkts
          ~mark_threshold:(mark_threshold_for rate_bps)

(* A protocol's control plane, as the fault plane and the end of the run
   drive it. End-host transports (the DCTCP family, pFabric) have none. *)
type control = {
  crash : int -> unit;  (* the node loses the control state it runs *)
  restart : int -> unit;
  ctrl_loss : float option -> unit;  (* open ([Some p]) or close a window *)
  link_down : int -> int -> unit;
  stop : unit -> unit;  (* end of run *)
}

let no_control =
  {
    crash = ignore;
    restart = ignore;
    ctrl_loss = ignore;
    link_down = (fun _ _ -> ());
    stop = ignore;
  }

(* Per-link control agents (PDQ arbiters, D3 routers), created on first use
   along a flow's route and keyed by directed link. A crashed switch loses
   the agents of its outgoing links; a down link loses both directions'.
   Returns the control hooks and a sender starter that hands [start] the
   agents on the flow's path. *)
let link_agents net ~create ~clear start =
  let agents = Hashtbl.create 32 in
  let agent a b =
    match Hashtbl.find_opt agents (a, b) with
    | Some x -> x
    | None ->
        let link =
          match Net.link_from net a b with Some l -> l | None -> assert false
        in
        let x = create ~capacity_bps:(Link.rate_bps link) in
        Hashtbl.replace agents (a, b) x;
        x
  in
  let rec along acc = function
    | a :: (b :: _ as rest) -> along (agent a b :: acc) rest
    | _ -> List.rev acc
  in
  let clear_link key = Option.iter clear (Hashtbl.find_opt agents key) in
  ( {
      no_control with
      crash =
        (fun node ->
          Det_tbl.iter (fun (a, _) x -> if a = node then clear x) agents);
      link_down =
        (fun a b ->
          clear_link (a, b);
          clear_link (b, a));
    },
    fun (spec : Scenario.flow_spec) ~flow ~init_rtt ~init_cwnd:_ ~on_complete ->
      let route =
        Net.route net ~flow:flow.Flow.id ~src:spec.Scenario.src
          ~dst:spec.Scenario.dst ()
      in
      start ~flow (along [] route) ~init_rtt ~on_complete )

let rec run ?(profile = false) ?horizon ?(stats = `Exact) ?on_record
    ?(attrib = false) ?on_attrib ?series ?hybrid protocol scenario =
  (match hybrid with
  | Some h when h.fluid_threshold <= 0 ->
      invalid_arg "Runner.run: fluid threshold must be positive"
  | _ -> ());
  (* Fault-free baseline for AFCT inflation, run first so the faulted run's
     process-global state (packet ids, trace clock) is the fresh one.
     Skipped under tracing: the baseline's events would pollute the sinks.
     The baseline inherits [stats] and [hybrid] (same memory and fidelity
     profile) but never spills records, never samples and never attributes:
     only the measured run's flows belong in the stream (and Delay is
     process-global, like Trace). *)
  let afct_baseline =
    if scenario.Scenario.faults = [] || Trace.on () then nan
    else
      (run ?horizon ~stats ?hybrid protocol (Scenario.with_faults scenario []))
        .afct
  in
  let attrib_agg = if attrib then Some (Attrib.create ()) else None in
  if attrib then Delay.enable ();
  Packet.reset_ids ();
  let engine = Engine.create () in
  Engine.set_profiling engine profile;
  let counters = Counters.create () in
  let qdisc = qdisc_for protocol counters ~rtt:(Scenario.nominal_rtt scenario) in
  let plan = Scenario.build scenario engine counters ~qdisc in
  let topo = plan.Scenario.topo in
  let net = topo.Topology.net in
  (* The fluid tier exists only when hybrid is enabled for a whitelisted
     protocol; with [None] every coupling hook below compiles to a
     pattern-match on a constant and the packet path is untouched. *)
  let fluid_tier =
    match hybrid with
    | Some h when h.enabled && fluid_capable protocol ->
        (* DCTCP-family fluid flows hold ~K (the marking threshold) of
           standing backlog at their bottleneck; packet-tier traffic waits
           behind it in the full engine, so the fluid tier pushes the
           equivalent latency. PASE's arbitration paces senders to
           allocated rates and keeps queues near-empty: no term. *)
        let standing_of =
          match protocol with
          | Dctcp | D2tcp | L2dct ->
              (* 3/4 K: the sawtooth oscillates below the threshold, so the
                 time-average backlog sits under K (calibrated on the
                 fat-tree accuracy harness; see DESIGN.md §15). *)
              fun rate_bps ->
                0.75
                *. float_of_int (mark_threshold_for rate_bps)
                *. float_of_int (8 * (mss + Packet.header_bytes))
                /. rate_bps
          | Pase _ | Pfabric | Pdq | D3 -> fun _ -> 0.
        in
        Some
          (Fluid.create engine net
             ~demote_bytes:(float_of_int h.fluid_threshold)
             ~standing_of
             (* One pass per topology RTT: congestion control cannot
                re-converge faster anyway, and it decouples allocation cost
                from the flow churn rate at scale. *)
             ~min_interval:(Scenario.nominal_rtt scenario) ())
    | Some _ | None -> None
  in
  let fct =
    match stats with
    | `Exact -> Fct.create ()
    | `Streaming -> Fct.create_streaming ~seed:scenario.Scenario.seed ()
  in
  (* Task groups (incast queries, coflow jobs) under construction: keyed by
     task id, folded into the Coflow aggregate after the run. *)
  let coflow_groups : (int, group) Hashtbl.t = Hashtbl.create 64 in
  let coflow_track (r : Fct.record) =
    match r.Fct.task with
    | None -> ()
    | Some tid ->
        let g =
          match Hashtbl.find_opt coflow_groups tid with
          | Some g -> g
          | None ->
              let g =
                {
                  first_start = infinity;
                  last_end = neg_infinity;
                  members = 0;
                  any_censored = false;
                  group_deadline = None;
                }
              in
              Hashtbl.replace coflow_groups tid g;
              g
        in
        g.members <- g.members + 1;
        if r.Fct.start_time < g.first_start then g.first_start <- r.Fct.start_time;
        let finish = r.Fct.start_time +. r.Fct.fct in
        if finish > g.last_end then g.last_end <- finish;
        if r.Fct.censored then g.any_censored <- true;
        (match r.Fct.deadline with
        | Some d ->
            g.group_deadline <-
              Some
                (match g.group_deadline with
                | None -> d
                | Some d0 -> Float.min d0 d)
        | None -> ())
  in
  (* Every record goes through here: aggregate, then spill to the caller's
     sink (the CLI's JSONL stream) if one is attached. *)
  let record r =
    Fct.add_record fct r;
    coflow_track r;
    match on_record with Some f -> f r | None -> ()
  in
  (* Each protocol wired once: its arbitration hierarchy (PASE only), the
     control hooks the fault plane and the end of the run drive, and how a
     flow's sender attaches to it. [init_cwnd] seeds a flow demoted from
     the fluid tier. *)
  let hierarchy, control, start_sender =
    match protocol with
    | Dctcp | D2tcp | L2dct ->
        let create =
          match protocol with
          | D2tcp -> D2tcp.create
          | L2dct -> L2dct.create
          | Dctcp | Pfabric | Pdq | D3 | Pase _ -> Dctcp.create
        in
        ( None,
          no_control,
          fun _spec ~flow ~init_rtt ~init_cwnd ~on_complete ->
            (* D2TCP and L2DCT share DCTCP's sender configuration. *)
            let conf = Dctcp.conf ~init_rtt () in
            let conf =
              match init_cwnd with
              | Some w -> { conf with Sender_base.init_cwnd = w }
              | None -> conf
            in
            Sender_base.start (create net ~flow ~conf ~on_complete ()) )
    | Pfabric ->
        ( None,
          no_control,
          fun _spec ~flow ~init_rtt ~init_cwnd:_ ~on_complete ->
            (* Table 3 verbatim: flows start at a 38-segment window (line
               rate for over an RTT on every topology evaluated). *)
            Sender_base.start
              (Pfabric_host.create net ~flow
                 ~conf:(Pfabric_host.conf ~init_rtt ~init_cwnd:38. ())
                 ~on_complete ()) )
    | Pdq ->
        let control, start =
          link_agents net ~create:Pdq.Arbiter.create ~clear:Pdq.Arbiter.clear
            (fun ~flow arbiters ~init_rtt ~on_complete ->
              Pdq.start
                (Pdq.create net ~flow ~arbiters ~rtt:init_rtt
                   ~conf:(Pdq.conf ~init_rtt ()) ~on_complete ()))
        in
        (None, control, start)
    | D3 ->
        let control, start =
          link_agents net ~create:D3.Router.create ~clear:D3.Router.clear
            (fun ~flow routers ~init_rtt ~on_complete ->
              D3.start
                (D3.create net ~flow ~routers ~rtt:init_rtt
                   ~conf:(D3.conf ~init_rtt ()) ~on_complete ()))
        in
        (None, control, start)
    | Pase cfg ->
        let base_rate_bps =
          8. *. float_of_int (mss + Packet.header_bytes) /. plan.Scenario.rtt
        in
        (* Arbitration runs once per RTT (sec 3.1); track the topology's. *)
        let arb_cfg =
          {
            cfg with
            Config.arb_period = Float.min cfg.Config.arb_period plan.Scenario.rtt;
          }
        in
        let h = Hierarchy.create engine counters arb_cfg topo ~base_rate_bps in
        Hierarchy.start h;
        ( Some h,
          {
            crash = Hierarchy.fail_node h;
            restart = Hierarchy.recover_node h;
            ctrl_loss = Hierarchy.set_ctrl_loss_override h;
            link_down = (fun _ _ -> ());
            stop = (fun () -> Hierarchy.stop h);
          },
          fun (spec : Scenario.flow_spec) ~flow ~init_rtt ~init_cwnd:_
              ~on_complete ->
            (* Task-aware scheduling: all flows of a task share one
               criterion, tasks served in arrival order (task ids are
               assigned in arrival order by the scenario). *)
            let criterion_override =
              match (cfg.Config.scheduling, spec.Scenario.task) with
              | Config.Task_aware, Some task ->
                  Some (fun () -> float_of_int task)
              | (Config.Task_aware | Config.Srpt | Config.Edf), _ -> None
            in
            Pase_host.start
              (Pase_host.create net h ~flow ~cfg ~rtt:init_rtt
                 ~nic_bps:topo.Topology.edge_rate_bps ?criterion_override
                 ~on_complete ()) )
  in
  let fault_plane =
    match scenario.Scenario.faults with
    | [] -> None
    | events ->
        let on_link a b ~up =
          (* A down link demotes every fluid flow crossing it: loss and
             recovery behaviour need the packet engine. *)
          (match fluid_tier with
          | Some fl -> Fluid.on_link_change fl a b ~up
          | None -> ());
          if not up then control.link_down a b
        in
        Some
          (Fault.create topo ~on_crash:control.crash
             ~on_restart:control.restart ~on_ctrl_loss:control.ctrl_loss
             ~on_link events)
  in
  let measured =
    List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs
  in
  let total_measured = List.length measured in
  let completed = ref 0 in
  (* Flows still open at the horizon: spec plus the launch-time size and
     zero-load FCT, so censored records carry the same [ideal] and [task]
     fields as completed ones. *)
  let open_flows : (int, Scenario.flow_spec * int * float) Hashtbl.t =
    Hashtbl.create 256
  in
  let next_id = ref 0 in
  (* Fidelity tag: the classifier decision, recorded even when hybrid is
     configured but disabled, so a packet-only comparison run cuts the
     identical short-flow subset (see Fct.packet_tier_percentile). *)
  let classify (spec : Scenario.flow_spec) =
    match hybrid with
    | Some h ->
        fluid_capable protocol
        && Scenario.fluid_eligible ~threshold_bytes:h.fluid_threshold spec
    | None -> false
  in
  let launch (spec : Scenario.flow_spec) =
    let id = !next_id in
    incr next_id;
    let size_pkts =
      if spec.Scenario.long_lived then Flow.long_lived_size
      else Flow.size_pkts_of_bytes ~mss spec.Scenario.size_bytes
    in
    let launched_at = Engine.now engine in
    let init_rtt =
      Topology.base_rtt topo ~src:spec.Scenario.src ~dst:spec.Scenario.dst
        ~data_bytes:(mss + Packet.header_bytes)
    in
    (* Zero-load FCT: base RTT plus serialization of the remaining train at
       the edge rate (slowdown denominator). *)
    let ideal =
      init_rtt
      +. float_of_int ((size_pkts - 1) * 8 * (mss + Packet.header_bytes))
         /. topo.Topology.edge_rate_bps
    in
    if not spec.Scenario.long_lived then
      Hashtbl.replace open_flows id (spec, size_pkts, ideal);
    let fluid_tag = classify spec in
    (* Start — or restart, after fluid demotion — the packet-level life of
       the flow. For a never-fluid flow the arguments are the full size and
       original deadline and this is exactly the pre-hybrid launch path. *)
    let start_packet ~remaining_pkts ~deadline ~init_cwnd () =
      let flow =
        Flow.make ~id ~src:spec.Scenario.src ~dst:spec.Scenario.dst
          ~size_pkts:remaining_pkts ~start_time:(Engine.now engine) ?deadline ()
      in
      let recv = Receiver.create net ~flow ~ack_tos:0 ~ack_prio:0. () in
      let on_complete _sender ~fct:_ =
        Receiver.stop recv;
        (match fluid_tier with
        | Some fl -> Fluid.unregister_packet fl ~id
        | None -> ());
        if not spec.Scenario.long_lived then begin
          Hashtbl.remove open_flows id;
          record
            {
              Fct.flow = id;
              size_pkts;
              start_time = launched_at;
              (* Full span, covering any fluid phase of a demoted flow. For
                 a never-fluid flow this is bit-identical to the sender's
                 reported fct: same subtraction, same operands. *)
              fct = Engine.now engine -. launched_at;
              deadline = spec.Scenario.deadline;
              censored = false;
              ideal = Some ideal;
              task = spec.Scenario.task;
              fluid = fluid_tag;
            };
          (match attrib_agg with
          | Some agg -> (
              match Delay.take ~flow:id with
              | Some r ->
                  Attrib.add agg ~size_pkts r;
                  (match on_attrib with
                  | Some f -> f ~size_pkts r
                  | None -> ())
              | None -> ())
          | None -> ());
          incr completed;
          if !completed = total_measured then Engine.stop engine
        end
      in
      (match fluid_tier with
      | Some fl ->
          Fluid.register_packet fl ~id ~src:spec.Scenario.src
            ~dst:spec.Scenario.dst
      | None -> ());
      start_sender spec ~flow ~init_rtt ~init_cwnd ~on_complete
    in
    match fluid_tier with
    | Some fl when fluid_tag ->
        (* Fluid phase first; [on_demote] fires exactly once (synchronously
           when the size is already at the boundary) and hands the packet
           tail over with the settled remaining bytes and last fluid rate. *)
        let bytes =
          if spec.Scenario.long_lived then infinity
          else float_of_int spec.Scenario.size_bytes
        in
        Fluid.admit fl ~id ~src:spec.Scenario.src ~dst:spec.Scenario.dst ~bytes
          ~on_demote:(fun ~remaining_bytes ~rate_bps ->
            let now = Engine.now engine in
            let remaining_pkts =
              (* A fault can demote a long-lived flow with infinite
                 remaining bytes: it continues long-lived at packet level. *)
              if remaining_bytes >= 1e15 then Flow.long_lived_size
              else
                Flow.size_pkts_of_bytes ~mss
                  (max 1 (int_of_float (ceil remaining_bytes)))
            in
            let deadline =
              Option.map
                (fun d -> Float.max 1e-6 (d -. (now -. launched_at)))
                spec.Scenario.deadline
            in
            (* Seed the demoted window near the fluid rate so the packet
               tail resumes at speed instead of slow-starting. *)
            let init_cwnd =
              if rate_bps <= 0. then None
              else
                Some
                  (Float.max 2.
                     (rate_bps *. init_rtt
                     /. float_of_int (8 * (mss + Packet.header_bytes))))
            in
            start_packet ~remaining_pkts ~deadline ~init_cwnd ())
    | Some _ | None ->
        start_packet ~remaining_pkts:size_pkts ~deadline:spec.Scenario.deadline
          ~init_cwnd:None ()
  in
  List.iter
    (fun spec ->
      Engine.schedule_at ~label:"flow-launch" engine ~time:spec.Scenario.start
        (fun () -> launch spec))
    plan.Scenario.specs;
  let last_arrival =
    List.fold_left (fun acc s -> Float.max acc s.Scenario.start) 0.
      plan.Scenario.specs
  in
  let horizon =
    match horizon with Some h -> h | None -> last_arrival +. 5.0
  in
  (match fault_plane with Some fp -> Fault.arm fp | None -> ());
  (* Fabric sampler: observes the finalized topology's links at a fixed
     sim-time cadence, plus arbitration-plane counters. Pure observation —
     results are unchanged whether or not it runs. *)
  let sampler =
    match series with
    | None -> None
    | Some (store, interval) ->
        let links =
          List.map
            (fun (a, b, l) -> (Printf.sprintf "%d-%d" a b, l))
            (Net.links net)
        in
        let extra () =
          let base =
            [
              ("ctrl.msgs", float_of_int counters.Counters.ctrl_msgs);
              ("ctrl.lost", float_of_int counters.Counters.ctrl_lost);
            ]
          in
          match hierarchy with
          | Some h ->
              ("arb.rounds", float_of_int (Hierarchy.rounds h))
              :: ("arb.count", float_of_int (Hierarchy.arbitrator_count h))
              :: base
          | None -> base
        in
        Some (Sampler.start engine ~store ~interval ~links ~extra ())
  in
  Engine.run ~until:horizon engine;
  (match sampler with Some s -> Sampler.stop s | None -> ());
  control.stop ();
  (match fault_plane with Some fp -> Fault.finish fp | None -> ());
  let end_time = Engine.now engine in
  (* Flows still open at the horizon are censored. Sorted traversal: the
     record order below is the record order in the published result. *)
  Det_tbl.iter
    (fun id ((spec : Scenario.flow_spec), size_pkts, ideal) ->
      record
        {
          Fct.flow = id;
          size_pkts;
          start_time = spec.Scenario.start;
          fct = Float.max 0. (end_time -. spec.Scenario.start);
          deadline = spec.Scenario.deadline;
          censored = true;
          ideal = Some ideal;
          task = spec.Scenario.task;
          fluid = classify spec;
        })
    open_flows;
  let prof = Engine.profile engine in
  let afct = Fct.afct fct in
  let link_downtime_s =
    match fault_plane with
    | Some fp -> (Fault.stats fp).Fault.downtime_s
    | None -> 0.
  in
  let recovery_s =
    match hierarchy with
    | Some h -> (
        match Hierarchy.recovery_s h with Some s -> s | None -> nan)
    | None -> nan
  in
  if attrib then Delay.disable ();
  (* All-workers-finish: CCT spans the group's first start to its last
     member's finish. Sorted task order makes t-digest insertion — and so
     every published quantile — byte-stable across runs and processes. *)
  let coflow_agg =
    if Hashtbl.length coflow_groups = 0 then None
    else begin
      let agg = Coflow.create () in
      Det_tbl.iter
        (fun _tid g ->
          Coflow.observe agg
            ~cct:(Float.max 0. (g.last_end -. g.first_start))
            ~width:g.members ~censored:g.any_censored
            ~deadline:g.group_deadline)
        coflow_groups;
      Some agg
    end
  in
  let hybrid_stats =
    match hybrid with
    | None -> None
    | Some h ->
        let fs =
          match fluid_tier with
          | Some fl ->
              (* Settle censored fluid flows to the end time so the
                 analytic byte count covers the whole run. *)
              Fluid.flush fl;
              Fluid.stats fl
          | None ->
              {
                Fluid.admitted = 0;
                demotions = 0;
                fault_demotions = 0;
                recomputes = 0;
                bytes_advanced = 0.;
                live = 0;
              }
        in
        Some
          {
            hybrid_on = Option.is_some fluid_tier;
            threshold_bytes = h.fluid_threshold;
            fluid_flows = fs.Fluid.admitted;
            fluid_demotions = fs.Fluid.demotions;
            fault_demotions = fs.Fluid.fault_demotions;
            fluid_recomputes = fs.Fluid.recomputes;
            fluid_bytes = fs.Fluid.bytes_advanced;
            short_p99 = Fct.packet_tier_percentile fct 99.;
          }
  in
  {
    scenario = scenario.Scenario.name;
    protocol = name protocol;
    load = scenario.Scenario.load;
    fct;
    afct;
    p99 = Fct.percentile fct 99.;
    p999 = Fct.percentile fct 99.9;
    app_throughput = Fct.deadline_met_fraction fct;
    loss_rate = Counters.loss_rate counters;
    ctrl_msgs = counters.Counters.ctrl_msgs;
    ctrl_msg_rate =
      (if end_time > 0. then float_of_int counters.Counters.ctrl_msgs /. end_time
       else 0.);
    duration = end_time;
    events = Engine.events_processed engine;
    completed = !completed;
    censored = Fct.censored_count fct;
    stray_pkts = counters.Counters.stray_pkts;
    faults_injected = Fault.count scenario.Scenario.faults;
    blackholed_pkts = counters.Counters.blackholed_pkts;
    ctrl_lost_msgs = counters.Counters.ctrl_lost;
    link_downtime_s;
    recovery_s;
    afct_baseline;
    afct_inflation = afct /. afct_baseline;
    attrib = attrib_agg;
    hybrid = hybrid_stats;
    coflow = coflow_agg;
    peak_heap = prof.Engine.peak_heap;
    sched_profile = prof.Engine.sites;
    gc_minor_words = prof.Engine.minor_words;
    gc_promoted_words = prof.Engine.promoted_words;
    gc_major_collections = prof.Engine.major_collections;
  }
