(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index). Simulator
   performance is measured by perfbench/, not here.

   Usage:
     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- fig9a fig2   # a subset
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- --quiet ...  # no progress chatter on stderr

   Environment:
     PASE_FLOWS      measured flows per run            (default 800)
     PASE_LOADS      comma-separated loads, e.g. 0.2,0.5,0.9
     PASE_SEED       workload seed                     (default 1)
     PASE_JOBS       worker processes (also --jobs=N)  (default: online cores)
     PASE_CACHE_DIR  on-disk result cache ("0" = off)  (default .pase-cache) *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> default)
  | None -> default

let env_loads name default =
  match Sys.getenv_opt name with
  | Some v ->
      String.split_on_char ',' v
      |> List.filter_map float_of_string_opt
      |> fun l -> if l = [] then default else l
  | None -> default

let n_flows = env_int "PASE_FLOWS" 800
let seed = env_int "PASE_SEED" 1

let loads =
  env_loads "PASE_LOADS" [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

let ms v = v *. 1e3
let fmt_ms v = Printf.sprintf "%.3f" v
let fmt_pct v = Printf.sprintf "%.1f" v

(* --quiet silences per-run progress chatter on stderr; results on stdout
   are unaffected. *)
let quiet = ref false

let progress fmt =
  Printf.ksprintf
    (fun s -> if not !quiet then Printf.eprintf "  [bench] %s\n%!" s)
    fmt

(* Worker-pool width: --jobs=N beats PASE_JOBS beats online cores. Set once
   in main before any experiment runs. *)
let jobs = ref None

(* Several figures share runs (e.g. 9a and 9b); memoize by configuration on
   top of Parallel's on-disk cache. Each figure prefetches its whole grid so
   the misses fan out to the worker pool instead of running one by one. *)
let memo : (string, Runner.result) Hashtbl.t = Hashtbl.create 64

let prefetch pairs =
  let fresh = ref [] in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (proto, scenario) ->
      let key = Parallel.job_key proto scenario in
      if not (Hashtbl.mem memo key || Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        fresh := (key, (proto, scenario)) :: !fresh
      end)
    pairs;
  match List.rev !fresh with
  | [] -> ()
  | fresh ->
      let results =
        Parallel.run_jobs ?jobs:!jobs
          ~on_result:(fun _ ~cached ~wall r ->
            progress "%s / %s @ %.0f%%: afct %.3f ms (%s)" r.Runner.protocol
              r.Runner.scenario
              (r.Runner.load *. 100.)
              (ms r.Runner.afct)
              (if cached then "cached" else Printf.sprintf "%.1fs wall" wall))
          (List.map snd fresh)
      in
      List.iter2
        (fun (key, _) r -> Hashtbl.replace memo key r)
        fresh results

let run proto scenario =
  let key = Parallel.job_key proto scenario in
  match Hashtbl.find_opt memo key with
  | Some r -> r
  | None ->
      prefetch [ (proto, scenario) ];
      Hashtbl.find memo key

let grid protocols scenarios =
  List.concat_map
    (fun scenario -> List.map (fun p -> (p, scenario)) protocols)
    scenarios

let sweep ~title ~columns ~protocols ~scenario ~metric ~fmt_y =
  prefetch (grid protocols (List.map (fun load -> scenario ~load) loads));
  let rows =
    List.map
      (fun load ->
        ( load *. 100.,
          List.map (fun p -> metric (run p (scenario ~load))) protocols ))
      loads
  in
  Series.print ~fmt_y (Series.make ~title ~x_label:"load(%)" ~columns ~rows)

let pase_edf = Runner.Pase { Config.default with Config.scheduling = Config.Edf }

let pase_no_opts =
  Runner.Pase
    { Config.default with Config.early_pruning = false; delegation = false }

let pase_local = Runner.Pase { Config.default with Config.local_only = true }
let pase_dctcp = Runner.Pase { Config.default with Config.use_ref_rate = false }
let pase_queues k = Runner.Pase { Config.default with Config.num_queues = k }

(* ------------------------------------------------------------------ *)
(* Section 2 motivation figures                                         *)

let fig1 () =
  sweep
    ~title:
      "Figure 1: application throughput vs load (deadline flows, intra-rack)"
    ~columns:[ "pFabric"; "D2TCP"; "DCTCP" ]
    ~protocols:[ Runner.Pfabric; Runner.D2tcp; Runner.Dctcp ]
    ~scenario:(fun ~load ->
      Scenario.deadline_intra_rack ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f")

let fig2 () =
  sweep
    ~title:"Figure 2: AFCT (ms) vs load, PDQ vs DCTCP (intra-rack all-to-all)"
    ~columns:[ "PDQ"; "DCTCP" ]
    ~protocols:[ Runner.Pdq; Runner.Dctcp ]
    ~scenario:(fun ~load ->
      Scenario.intra_rack_medium ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

(* Figure 3 toy example: three flows, local (pFabric) prioritization stalls
   flow 3 while end-to-end arbitration (PASE) runs it alongside flow 1. *)
let fig3 () =
  let run_toy proto =
    Packet.reset_ids ();
    let e = Engine.create () in
    let c = Counters.create () in
    let cfg = Config.default in
    let qdisc ~rate_bps:_ =
      match proto with
      | `Pfabric -> Pfabric_queue.create c ~limit_pkts:76
      | `Pase ->
          Prio_queue.create c ~bands:cfg.Config.num_queues ~limit_pkts:500
            ~mark_threshold:20
    in
    let topo =
      Topology.single_rack e c ~hosts:4 ~rate_bps:1e9 ~link_delay_s:25e-6 ~qdisc
    in
    let h = topo.Topology.hosts in
    let net = topo.Topology.net in
    let hier =
      Hierarchy.create e c cfg topo ~base_rate_bps:(8. *. 1500. /. 1.5e-4)
    in
    (match proto with `Pase -> Hierarchy.start hier | `Pfabric -> ());
    let fcts = Hashtbl.create 4 in
    (* F1: src1 -> dst1 (smallest = highest priority), F2: src2 -> dst1,
       F3: src2 -> dst2 (largest = lowest priority). F2 shares its source
       link with F3 and its destination link with F1. *)
    let launch id src dst size =
      let flow = Flow.make ~id ~src ~dst ~size_pkts:size ~start_time:0. () in
      let recv = Receiver.create net ~flow () in
      let rtt = Topology.base_rtt topo ~src ~dst ~data_bytes:1500 in
      let on_complete _ ~fct =
        Receiver.stop recv;
        Hashtbl.replace fcts id fct
      in
      match proto with
      | `Pfabric ->
          Sender_base.start
            (Pfabric_host.create net ~flow
               ~conf:(Pfabric_host.conf ~init_rtt:rtt ())
               ~on_complete ())
      | `Pase ->
          Pase_host.start
            (Pase_host.create net hier ~flow ~cfg ~rtt ~nic_bps:1e9
               ~on_complete ())
    in
    launch 1 h.(0) h.(2) 800;
    launch 2 h.(1) h.(2) 900;
    launch 3 h.(1) h.(3) 1000;
    Engine.run ~until:1.0 e;
    Hierarchy.stop hier;
    ( (fun id -> try ms (Hashtbl.find fcts id) with Not_found -> nan),
      c.Counters.dropped_pkts )
  in
  let pf, pf_drops = run_toy `Pfabric in
  let pa, pa_drops = run_toy `Pase in
  Series.print_table
    ~title:
      "Figure 3 (toy): local prioritization stalls flow 3; arbitration does not"
    ~header:[ "flow"; "pFabric FCT(ms)"; "PASE FCT(ms)" ]
    [
      [ "F1 (high prio, s1->d1)"; fmt_ms (pf 1); fmt_ms (pa 1) ];
      [ "F2 (medium,   s2->d1)"; fmt_ms (pf 2); fmt_ms (pa 2) ];
      [ "F3 (low,      s2->d2)"; fmt_ms (pf 3); fmt_ms (pa 3) ];
      [ "drops"; string_of_int pf_drops; string_of_int pa_drops ];
    ]

let fig4 () =
  sweep
    ~title:"Figure 4: pFabric loss rate (%) vs load (worker-aggregator rack)"
    ~columns:[ "pFabric" ]
    ~protocols:[ Runner.Pfabric ]
    ~scenario:(fun ~load ->
      Scenario.worker_uniform ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> r.Runner.loss_rate *. 100.)
    ~fmt_y:fmt_pct

(* ------------------------------------------------------------------ *)
(* Tables                                                               *)

let tab1 () =
  Series.print_table ~title:"Table 1: transport strategies compared"
    ~header:[ "strategy"; "pros"; "cons"; "examples" ]
    [
      [
        "Self-adjusting endpoints";
        "ease of deployment";
        "no strict priority scheduling";
        "DCTCP, D2TCP, L2DCT";
      ];
      [
        "Arbitration";
        "strict priority; fast convergence";
        "flow switching overhead; imprecise rates";
        "D3, PDQ";
      ];
      [
        "In-network prioritization";
        "work conservation; low switching overhead";
        "few priority queues; switch-local decisions";
        "pFabric";
      ];
    ]

let tab2 () =
  Series.print_table
    ~title:"Table 2: priority queues and ECN in commodity ToR switches"
    ~header:[ "switch"; "vendor"; "queues"; "ECN" ]
    (List.map
       (fun (model, vendor, queues, ecn) ->
         [ model; vendor; string_of_int queues; (if ecn then "Yes" else "No") ])
       Config.switch_survey)

let tab3 () =
  Series.print_table ~title:"Table 3: default parameter settings"
    ~header:[ "scheme"; "parameters" ]
    [
      [ "DCTCP"; "qSize = 225 pkts, K = 65 (10G) / 20 (1G)" ];
      [ "D2TCP"; "markingThresh = 65 (10G) / 20 (1G)" ];
      [ "L2DCT"; "minRTO = 10 ms" ];
      [ "pFabric"; "qSize = 76 pkts, initCwnd = 38, minRTO = 1 ms" ];
      [
        "PASE";
        "qSize = 500 pkts, minRTO = 10 ms (top) / 200 ms (others), numQue = 8";
      ];
      [ "PDQ"; "qSize ~ 1.3 x BDP, ES window = 1 RTT" ];
    ]

(* ------------------------------------------------------------------ *)
(* Section 4.2 macro-benchmarks                                         *)

let left_right ~load = Scenario.left_right ~num_flows:n_flows ~seed ~load ()

let fig9a () =
  sweep
    ~title:"Figure 9a: AFCT (ms) vs load, PASE vs L2DCT vs DCTCP (left-right)"
    ~columns:[ "PASE"; "L2DCT"; "DCTCP" ]
    ~protocols:[ Runner.pase; Runner.L2dct; Runner.Dctcp ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

let cdf_figure ~title ~protocols ~columns ~scenario =
  prefetch (grid protocols [ scenario ]);
  let results = List.map (fun p -> run p scenario) protocols in
  let points = 20 in
  let cdfs =
    List.map
      (fun r -> Fct.cdf ~points r.Runner.fct)
      results
  in
  let rows =
    List.init points (fun i ->
        let q = float_of_int (i + 1) /. float_of_int points in
        (q, List.map (fun cdf -> ms (fst (List.nth cdf i))) cdfs))
  in
  Series.print ~fmt_y:fmt_ms
    (Series.make ~title ~x_label:"quantile"
       ~columns:(List.map (fun c -> c ^ " FCT(ms)") columns)
       ~rows)

let fig9b () =
  cdf_figure ~title:"Figure 9b: FCT CDF at 70% load (left-right)"
    ~protocols:[ Runner.pase; Runner.L2dct; Runner.Dctcp ]
    ~columns:[ "PASE"; "L2DCT"; "DCTCP" ]
    ~scenario:(left_right ~load:0.7)

let fig9c () =
  sweep
    ~title:
      "Figure 9c: application throughput vs load, PASE vs D2TCP vs DCTCP \
       (deadline intra-rack)"
    ~columns:[ "PASE"; "D2TCP"; "DCTCP" ]
    ~protocols:[ pase_edf; Runner.D2tcp; Runner.Dctcp ]
    ~scenario:(fun ~load ->
      Scenario.deadline_intra_rack ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f")

let fig10a () =
  sweep
    ~title:
      "Figure 10a: 99th-percentile FCT (ms) vs load, PASE vs pFabric \
       (left-right)"
    ~columns:[ "PASE"; "pFabric" ]
    ~protocols:[ Runner.pase; Runner.Pfabric ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.p99)
    ~fmt_y:fmt_ms

let fig10b () =
  cdf_figure
    ~title:"Figure 10b: FCT CDF at 70% load, PASE vs pFabric (left-right)"
    ~protocols:[ Runner.pase; Runner.Pfabric ]
    ~columns:[ "PASE"; "pFabric" ]
    ~scenario:(left_right ~load:0.7)

let fig10c () =
  prefetch
    (grid
       [ Runner.pase; Runner.Pfabric ]
       (List.map
          (fun load -> Scenario.worker_aggregator ~num_flows:n_flows ~seed ~load ())
          loads));
  let rows =
    List.map
      (fun load ->
        let scenario =
          Scenario.worker_aggregator ~num_flows:n_flows ~seed ~load ()
        in
        let pase = run Runner.pase scenario in
        let pfab = run Runner.Pfabric scenario in
        let improvement =
          (pfab.Runner.afct -. pase.Runner.afct) /. pfab.Runner.afct *. 100.
        in
        (load *. 100., [ ms pase.Runner.afct; ms pfab.Runner.afct; improvement ]))
      loads
  in
  Series.print ~fmt_y:fmt_ms
    (Series.make
       ~title:
         "Figure 10c: AFCT (ms) vs load, PASE vs pFabric (all-to-all \
          intra-rack, round-robin aggregators)"
       ~x_label:"load(%)"
       ~columns:[ "PASE"; "pFabric"; "improvement(%)" ]
       ~rows)

(* ------------------------------------------------------------------ *)
(* Section 4.3 micro-benchmarks                                         *)

let fig11 () =
  prefetch
    (grid [ Runner.pase; pase_no_opts ] (List.map (fun load -> left_right ~load) loads));
  let rows =
    List.map
      (fun load ->
        let scenario = left_right ~load in
        let on = run Runner.pase scenario in
        let off = run pase_no_opts scenario in
        let afct_gain =
          (off.Runner.afct -. on.Runner.afct) /. off.Runner.afct *. 100.
        in
        let msg_cut =
          (off.Runner.ctrl_msg_rate -. on.Runner.ctrl_msg_rate)
          /. Float.max 1. off.Runner.ctrl_msg_rate
          *. 100.
        in
        (load *. 100., [ afct_gain; msg_cut ]))
      loads
  in
  Series.print ~fmt_y:fmt_pct
    (Series.make
       ~title:
         "Figure 11: gains from arbitration optimizations (early pruning + \
          delegation), left-right"
       ~x_label:"load(%)"
       ~columns:[ "AFCT improvement(%)"; "overhead reduction(%)" ]
       ~rows)

let fig12a () =
  sweep
    ~title:
      "Figure 12a: AFCT (ms), end-to-end arbitration vs local-only \
       (left-right)"
    ~columns:[ "arbitration=ON"; "arbitration=OFF (local)" ]
    ~protocols:[ Runner.pase; pase_local ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

let fig12b () =
  (* Queue scarcity bites where single flows saturate the bottleneck (1 Gbps
     links): on the 10 Gbps left-right bottleneck ten flows share each band
     and the queue count barely matters, so this ablation runs intra-rack. *)
  sweep
    ~title:"Figure 12b: AFCT (ms) vs number of priority queues (intra-rack)"
    ~columns:[ "3 queues"; "4 queues"; "6 queues"; "8 queues" ]
    ~protocols:[ pase_queues 3; pase_queues 4; pase_queues 6; pase_queues 8 ]
    ~scenario:(fun ~load ->
      Scenario.intra_rack_medium ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

let fig13a () =
  sweep
    ~title:
      "Figure 13a: AFCT (ms), PASE vs PASE-DCTCP (no reference rate), \
       intra-rack"
    ~columns:[ "PASE"; "PASE-DCTCP" ]
    ~protocols:[ Runner.pase; pase_dctcp ]
    ~scenario:(fun ~load ->
      Scenario.intra_rack_medium ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

let fig13b () =
  sweep
    ~title:"Figure 13b: testbed replica AFCT (ms), PASE vs DCTCP (10 nodes)"
    ~columns:[ "PASE"; "DCTCP" ]
    ~protocols:[ Runner.pase; Runner.Dctcp ]
    ~scenario:(fun ~load -> Scenario.testbed ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms

let probe_ablation () =
  let fast_low = { Config.default with Config.rto_low = 0.010 } in
  prefetch
    (grid
       [
         Runner.Pase fast_low;
         Runner.Pase { fast_low with Config.use_probes = false };
       ]
       (List.filter_map
          (fun load ->
            if load < 0.75 then None
            else Some (Scenario.worker_aggregator ~num_flows:n_flows ~seed ~load ()))
          loads));
  let rows =
    List.filter_map
      (fun load ->
        if load < 0.75 then None
        else
          (* Both arms use a fast low-queue RTO so that parking in a low
             band does trigger timeouts; the probes-arm recovers with 40 B
             probes, the other retransmits full windows spuriously. *)
          let scenario =
            Scenario.worker_aggregator ~num_flows:n_flows ~seed ~load ()
          in
          let fast_low = { Config.default with Config.rto_low = 0.010 } in
          let with_probes = run (Runner.Pase fast_low) scenario in
          let without =
            run (Runner.Pase { fast_low with Config.use_probes = false }) scenario
          in
          let gain =
            (without.Runner.afct -. with_probes.Runner.afct)
            /. without.Runner.afct *. 100.
          in
          Some
            ( load *. 100.,
              [ ms with_probes.Runner.afct; ms without.Runner.afct; gain ] ))
      loads
  in
  if rows = [] then print_endline "probe ablation: no loads >= 0.75 selected"
  else
    Series.print ~fmt_y:fmt_ms
      (Series.make
         ~title:"Probing ablation (sec 4.3.2): PASE with vs without probes"
         ~x_label:"load(%)"
         ~columns:[ "probes"; "no probes"; "gain(%)" ]
         ~rows)


(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures                                *)

(* All three arbitration-based designs plus the deadline-aware endpoint
   baseline on the deadline workload: D3's FCFS greedy allocation against
   PDQ's preemptive EDF and PASE's EDF arbitration (Table 1's lineage). *)
let ext_deadline () =
  sweep
    ~title:
      "Extension: deadline-aware designs compared (fraction of deadlines \
       met, intra-rack)"
    ~columns:[ "PASE (EDF)"; "PDQ"; "D3"; "D2TCP" ]
    ~protocols:[ pase_edf; Runner.Pdq; Runner.D3; Runner.D2tcp ]
    ~scenario:(fun ~load ->
      Scenario.deadline_intra_rack ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f")

(* Robustness: arbitration messages dropped with probability p. Soft state
   plus expiry keeps PASE correct; performance degrades gracefully toward
   local-only behaviour. *)
let ext_robust () =
  let probs = [ 0.0; 0.1; 0.3; 0.5; 0.8 ] in
  prefetch
    (List.map
       (fun p ->
         ( Runner.Pase { Config.default with Config.ctrl_loss_prob = p },
           left_right ~load:0.8 ))
       probs);
  let rows =
    List.map
      (fun p ->
        let proto =
          Runner.Pase { Config.default with Config.ctrl_loss_prob = p }
        in
        let r = run proto (left_right ~load:0.8) in
        (p *. 100., [ ms r.Runner.afct; ms r.Runner.p99 ]))
      probs
  in
  Series.print ~fmt_y:fmt_ms
    (Series.make
       ~title:
         "Extension: PASE under arbitration-message loss (left-right, 80% \
          load)"
       ~x_label:"msg loss(%)"
       ~columns:[ "AFCT(ms)"; "p99(ms)" ]
       ~rows)

(* Per-size breakdown and slowdown, the standard FCT decomposition. *)
let ext_buckets () =
  let scenario = left_right ~load:0.8 in
  let protocols =
    [ Runner.pase; Runner.Pfabric; Runner.L2dct; Runner.Dctcp ]
  in
  prefetch (grid protocols [ scenario ]);
  let rows =
    List.map
      (fun proto ->
        let r = run proto scenario in
        let f = r.Runner.fct in
        let b lo hi = Fct.bucket_afct f ~lo ~hi *. 1e3 in
        [
          r.Runner.protocol;
          Printf.sprintf "%.3f" (b 0 35);
          Printf.sprintf "%.3f" (b 35 90);
          Printf.sprintf "%.3f" (b 90 max_int);
          Printf.sprintf "%.2f" (Fct.mean_slowdown f);
          Printf.sprintf "%.2f" (Fct.p99_slowdown f);
        ])
      protocols
  in
  Series.print_table
    ~title:
      "Extension: AFCT by flow size and slowdown (left-right, 80% load; \
       sizes in segments)"
    ~header:
      [ "protocol"; "(0,50KB)"; "[50,130)KB"; ">=130KB"; "mean slowdown";
        "p99 slowdown" ]
    rows


(* Task-aware scheduling (sec 3.1.1's task-id criterion, after Baraat):
   whole queries (tasks) are scheduled FIFO instead of interleaving their
   flows by size. Metric: query (task) completion time. *)
let ext_task () =
  let pase_task =
    Runner.Pase { Config.default with Config.scheduling = Config.Task_aware }
  in
  prefetch
    (grid
       [ Runner.pase; pase_task ]
       (List.filter_map
          (fun load ->
            if load < 0.35 then None
            else
              Some
                (Scenario.worker_aggregator ~aggregators:4 ~num_flows:n_flows
                   ~seed ~load ()))
          loads));
  let rows =
    List.filter_map
      (fun load ->
        if load < 0.35 then None
        else
          (* Four hot aggregators: queries overlap, so task interleaving
             matters. *)
          let scenario =
            Scenario.worker_aggregator ~aggregators:4 ~num_flows:n_flows ~seed
              ~load ()
          in
          let stats proto =
            let r = run proto scenario in
            let ts = Fct.task_completion_times r.Runner.fct in
            (Summary.mean ts *. 1e3, Summary.percentile 99. ts *. 1e3)
          in
          let srpt_mean, srpt_p99 = stats Runner.pase in
          let task_mean, task_p99 = stats pase_task in
          Some (load *. 100., [ task_mean; srpt_mean; task_p99; srpt_p99 ]))
      loads
  in
  Series.print ~fmt_y:fmt_ms
    (Series.make
       ~title:
         "Extension: task-aware vs SRPT arbitration (query completion \
          times, worker-aggregator)"
       ~x_label:"load(%)"
       ~columns:
         [ "task mean"; "SRPT mean"; "task p99"; "SRPT p99" ]
       ~rows)


(* Fat-tree + ECMP (extension): the same protocols on a k=6 fat-tree with
   uniform random pairs — PASE needs no changes beyond its generic
   path-walking arbitration. *)
let ext_fattree () =
  prefetch
    (grid
       [ Runner.pase; Runner.Pfabric; Runner.Dctcp ]
       (List.filter_map
          (fun load ->
            if load < 0.25 then None
            else Some (Scenario.fat_tree_uniform ~k:6 ~num_flows:n_flows ~seed ~load ()))
          loads));
  let rows =
    List.filter_map
      (fun load ->
        if load < 0.25 then None
        else
          let scenario =
            Scenario.fat_tree_uniform ~k:6 ~num_flows:n_flows ~seed ~load ()
          in
          let afct p = ms (run p scenario).Runner.afct in
          Some
            ( load *. 100.,
              [ afct Runner.pase; afct Runner.Pfabric; afct Runner.Dctcp ] ))
      loads
  in
  Series.print ~fmt_y:fmt_ms
    (Series.make
       ~title:"Extension: k=6 fat-tree (54 hosts, ECMP), AFCT (ms)"
       ~x_label:"load(%)"
       ~columns:[ "PASE"; "pFabric"; "DCTCP" ]
       ~rows)


(* Empirical flow-size mixes (extension): the web-search and data-mining
   CDFs the transport literature evaluates on. Mice-vs-elephant separation
   is where SRPT-style scheduling pays off most. *)
let ext_empirical () =
  let rows scenario_of =
    prefetch
      (grid
         [ Runner.pase; Runner.Pfabric; Runner.Dctcp ]
         (List.filter_map
            (fun load ->
              if load < 0.45 || load > 0.85 then None
              else Some (scenario_of ~load))
            loads));
    List.filter_map
      (fun load ->
        if load < 0.45 || load > 0.85 then None
        else
          let scenario = scenario_of ~load in
          let stats proto =
            let r = run proto scenario in
            (ms r.Runner.afct, Fct.mean_slowdown r.Runner.fct)
          in
          let pa, pa_s = stats Runner.pase in
          let pf, pf_s = stats Runner.Pfabric in
          let dc, dc_s = stats Runner.Dctcp in
          Some (load *. 100., [ pa; pf; dc; pa_s; pf_s; dc_s ]))
      loads
  in
  List.iter
    (fun (title, scenario_of) ->
      Series.print ~fmt_y:fmt_ms
        (Series.make ~title ~x_label:"load(%)"
           ~columns:
             [ "PASE afct"; "pFabric afct"; "DCTCP afct"; "PASE slowdn";
               "pFab slowdn"; "DCTCP slowdn" ]
           ~rows:(rows scenario_of)))
    [
      ( "Extension: web-search flow sizes (AFCT ms / mean slowdown)",
        fun ~load -> Scenario.web_search ~num_flows:(n_flows / 2) ~seed ~load () );
      ( "Extension: data-mining flow sizes (AFCT ms / mean slowdown)",
        fun ~load -> Scenario.data_mining ~num_flows:(n_flows / 2) ~seed ~load () );
    ]

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("tab1", "Table 1: strategy comparison", tab1);
    ("tab2", "Table 2: commodity switch survey", tab2);
    ("tab3", "Table 3: parameter settings", tab3);
    ("fig1", "Fig 1: D2TCP/DCTCP vs pFabric app throughput", fig1);
    ("fig2", "Fig 2: PDQ vs DCTCP AFCT", fig2);
    ("fig3", "Fig 3: toy multi-link example", fig3);
    ("fig4", "Fig 4: pFabric loss rate", fig4);
    ("fig9a", "Fig 9a: PASE vs L2DCT vs DCTCP AFCT", fig9a);
    ("fig9b", "Fig 9b: FCT CDF at 70% load", fig9b);
    ("fig9c", "Fig 9c: deadline app throughput", fig9c);
    ("fig10a", "Fig 10a: PASE vs pFabric p99 FCT", fig10a);
    ("fig10b", "Fig 10b: PASE vs pFabric CDF", fig10b);
    ("fig10c", "Fig 10c: PASE vs pFabric all-to-all AFCT", fig10c);
    ("fig11", "Fig 11: arbitration optimization gains", fig11);
    ("fig12a", "Fig 12a: end-to-end vs local arbitration", fig12a);
    ("fig12b", "Fig 12b: number of priority queues", fig12b);
    ("fig13a", "Fig 13a: PASE vs PASE-DCTCP", fig13a);
    ("fig13b", "Fig 13b: testbed replica", fig13b);
    ("probe", "Probing ablation (sec 4.3.2)", probe_ablation);
    ("ext-deadline", "Extension: arbitration designs on deadlines", ext_deadline);
    ("ext-robust", "Extension: control-plane message loss", ext_robust);
    ("ext-buckets", "Extension: per-size AFCT and slowdown", ext_buckets);
    ("ext-task", "Extension: task-aware scheduling", ext_task);
    ("ext-fattree", "Extension: fat-tree + ECMP", ext_fattree);
    ("ext-empirical", "Extension: web-search/data-mining flow sizes", ext_empirical);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  quiet := List.mem "--quiet" args;
  jobs :=
    List.find_map
      (fun a ->
        let prefix = "--jobs=" in
        let plen = String.length prefix in
        if String.length a > plen && String.sub a 0 plen = prefix then
          int_of_string_opt (String.sub a plen (String.length a - plen))
        else None)
      args;
  if List.mem "--list" args then
    List.iter (fun (id, desc, _) -> Printf.printf "%-8s %s\n" id desc) experiments
  else begin
    let ids =
      List.filter
        (fun a -> not (String.length a > 2 && String.sub a 0 2 = "--"))
        args
    in
    let selected =
      match ids with
      | [] -> experiments
      | ids -> List.filter (fun (id, _, _) -> List.mem id ids) experiments
    in
    if selected = [] then begin
      prerr_endline "no matching experiments; use --list";
      exit 1
    end;
    Printf.printf "PASE reproduction benchmarks (flows/run = %d, seed = %d)\n"
      n_flows seed;
    List.iter
      (fun (id, _, f) ->
        progress "=== %s ===" id;
        f ())
      selected
  end
