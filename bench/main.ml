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
     PASE_CACHE_DIR  on-disk result cache ("0" = off)  (default .pase-cache)

   Each experiment declares the (protocol, scenario) cells it needs. The
   cells of every selected experiment run as one batch on the fork pool of
   [Parallel], which serves the cache and simulates a cell shared by
   several figures once; the tables print after the batch, in
   [experiments] order. Bad input is rejected before anything runs. *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* An unset or empty variable takes the default. *)
let env name parse default =
  match Sys.getenv_opt name with None | Some "" -> default | Some v -> parse v

let n_flows =
  env "PASE_FLOWS"
    (fun v ->
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> n
      | Some _ | None -> fail "PASE_FLOWS must be an integer >= 1, got %S" v)
    800

let seed =
  env "PASE_SEED"
    (fun v ->
      match int_of_string_opt (String.trim v) with
      | Some n -> n
      | None -> fail "PASE_SEED must be an integer, got %S" v)
    1

let loads =
  env "PASE_LOADS"
    (fun v ->
      List.map
        (fun s ->
          match float_of_string_opt (String.trim s) with
          | Some l when l > 0. && l <= 1. -> l
          | Some _ | None ->
              fail "PASE_LOADS: each load must be a number in (0, 1], got %S" s)
        (String.split_on_char ',' v))
    [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9 ]

(* PASE_JOBS is read and checked by [Parallel]; --jobs=N overrides it. *)
let default_jobs =
  try Parallel.default_jobs () with Invalid_argument e -> fail "%s" e

let ms v = v *. 1e3
let fmt_ms v = Printf.sprintf "%.3f" v
let fmt_pct v = Printf.sprintf "%.1f" v

(* Percentage by which [v] improves on [base]. *)
let gain ~base v = (base -. v) /. base *. 100.

(* --quiet silences per-run progress chatter on stderr; results on stdout
   are unaffected. *)
let quiet = ref false

let progress fmt =
  Printf.ksprintf
    (fun s -> if not !quiet then Printf.eprintf "  [bench] %s\n%!" s)
    fmt

(* What an experiment runs and how it prints: [print] gets the results of
   [cells] in order. Tables and the fig3 toy have no cells. *)
type experiment = {
  id : string;
  descr : string;
  cells : Parallel.job list;
  print : Runner.result list -> unit;
}

(* [take n l] splits [l] after its first [n] elements. *)
let rec take n l =
  if n = 0 then ([], l)
  else
    match l with
    | x :: rest ->
        let xs, rest = take (n - 1) rest in
        (x :: xs, rest)
    | [] -> invalid_arg "take"

let on protocols scenario = List.map (fun p -> (p, scenario)) protocols
let table f = ([], fun _ -> f ())

(* One row per x of [xs] (printed as a percentage): [cells x] are the row's
   cells in column order and [row] maps their results to its columns. *)
let sweep ?(x_label = "load(%)") ~title ~columns ~fmt_y ~xs ~cells row =
  let per_x = List.map (fun x -> (x, cells x)) xs in
  ( List.concat_map snd per_x,
    fun results ->
      let _, rows =
        List.fold_left_map
          (fun results (x, cs) ->
            let mine, rest = take (List.length cs) results in
            (rest, (x *. 100., row mine)))
          results per_x
      in
      Series.print ~fmt_y (Series.make ~title ~x_label ~columns ~rows) )

(* The common shape: [protocols] on [scenario ~load] at each load of [xs],
   one metric per protocol. *)
let load_sweep ?(xs = loads) ~title ~columns ~protocols ~scenario ~metric
    ~fmt_y () =
  sweep ~title ~columns ~fmt_y ~xs
    ~cells:(fun load -> on protocols (scenario ~load))
    (List.map metric)

(* Rows of the two-arm figures: [f a b] over the results of the two arms. *)
let two f = function [ a; b ] -> f a b | _ -> invalid_arg "two"

let cdf_figure ~title ~protocols ~columns ~scenario =
  ( on protocols scenario,
    fun results ->
      let points = 20 in
      let cdfs = List.map (fun r -> Fct.cdf ~points r.Runner.fct) results in
      let rows =
        List.init points (fun i ->
            let q = float_of_int (i + 1) /. float_of_int points in
            (q, List.map (fun cdf -> ms (fst (List.nth cdf i))) cdfs))
      in
      Series.print ~fmt_y:fmt_ms
        (Series.make ~title ~x_label:"quantile"
           ~columns:(List.map (fun c -> c ^ " FCT(ms)") columns)
           ~rows) )

let pase_edf = Runner.Pase { Config.default with Config.scheduling = Config.Edf }

let pase_no_opts =
  Runner.Pase
    { Config.default with Config.early_pruning = false; delegation = false }

let pase_local = Runner.Pase { Config.default with Config.local_only = true }
let pase_dctcp = Runner.Pase { Config.default with Config.use_ref_rate = false }
let pase_queues k = Runner.Pase { Config.default with Config.num_queues = k }

let deadline_intra_rack ~load =
  Scenario.deadline_intra_rack ~num_flows:n_flows ~seed ~load ()

let intra_rack ~load =
  Scenario.intra_rack_medium ~num_flows:n_flows ~seed ~load ()

let left_right ~load = Scenario.left_right ~num_flows:n_flows ~seed ~load ()

let worker_aggregator ~load =
  Scenario.worker_aggregator ~num_flows:n_flows ~seed ~load ()

(* ------------------------------------------------------------------ *)
(* Section 2 motivation figures                                         *)

let fig1 =
  load_sweep
    ~title:
      "Figure 1: application throughput vs load (deadline flows, intra-rack)"
    ~columns:[ "pFabric"; "D2TCP"; "DCTCP" ]
    ~protocols:[ Runner.Pfabric; Runner.D2tcp; Runner.Dctcp ]
    ~scenario:deadline_intra_rack
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f") ()

let fig2 =
  load_sweep
    ~title:"Figure 2: AFCT (ms) vs load, PDQ vs DCTCP (intra-rack all-to-all)"
    ~columns:[ "PDQ"; "DCTCP" ]
    ~protocols:[ Runner.Pdq; Runner.Dctcp ]
    ~scenario:intra_rack
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

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

let fig4 =
  load_sweep
    ~title:"Figure 4: pFabric loss rate (%) vs load (worker-aggregator rack)"
    ~columns:[ "pFabric" ]
    ~protocols:[ Runner.Pfabric ]
    ~scenario:(fun ~load ->
      Scenario.worker_uniform ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> r.Runner.loss_rate *. 100.)
    ~fmt_y:fmt_pct ()

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

let fig9a =
  load_sweep
    ~title:"Figure 9a: AFCT (ms) vs load, PASE vs L2DCT vs DCTCP (left-right)"
    ~columns:[ "PASE"; "L2DCT"; "DCTCP" ]
    ~protocols:[ Runner.pase; Runner.L2dct; Runner.Dctcp ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

let fig9b =
  cdf_figure ~title:"Figure 9b: FCT CDF at 70% load (left-right)"
    ~protocols:[ Runner.pase; Runner.L2dct; Runner.Dctcp ]
    ~columns:[ "PASE"; "L2DCT"; "DCTCP" ]
    ~scenario:(left_right ~load:0.7)

let fig9c =
  load_sweep
    ~title:
      "Figure 9c: application throughput vs load, PASE vs D2TCP vs DCTCP \
       (deadline intra-rack)"
    ~columns:[ "PASE"; "D2TCP"; "DCTCP" ]
    ~protocols:[ pase_edf; Runner.D2tcp; Runner.Dctcp ]
    ~scenario:deadline_intra_rack
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f") ()

let fig10a =
  load_sweep
    ~title:
      "Figure 10a: 99th-percentile FCT (ms) vs load, PASE vs pFabric \
       (left-right)"
    ~columns:[ "PASE"; "pFabric" ]
    ~protocols:[ Runner.pase; Runner.Pfabric ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.p99)
    ~fmt_y:fmt_ms ()

let fig10b =
  cdf_figure
    ~title:"Figure 10b: FCT CDF at 70% load, PASE vs pFabric (left-right)"
    ~protocols:[ Runner.pase; Runner.Pfabric ]
    ~columns:[ "PASE"; "pFabric" ]
    ~scenario:(left_right ~load:0.7)

let fig10c =
  sweep
    ~title:
      "Figure 10c: AFCT (ms) vs load, PASE vs pFabric (all-to-all \
       intra-rack, round-robin aggregators)"
    ~columns:[ "PASE"; "pFabric"; "improvement(%)" ]
    ~fmt_y:fmt_ms ~xs:loads
    ~cells:(fun load ->
      on [ Runner.pase; Runner.Pfabric ] (worker_aggregator ~load))
    (two (fun pase pfab ->
         [
           ms pase.Runner.afct;
           ms pfab.Runner.afct;
           gain ~base:pfab.Runner.afct pase.Runner.afct;
         ]))

(* ------------------------------------------------------------------ *)
(* Section 4.3 micro-benchmarks                                         *)

let fig11 =
  sweep
    ~title:
      "Figure 11: gains from arbitration optimizations (early pruning + \
       delegation), left-right"
    ~columns:[ "AFCT improvement(%)"; "overhead reduction(%)" ]
    ~fmt_y:fmt_pct ~xs:loads
    ~cells:(fun load -> on [ Runner.pase; pase_no_opts ] (left_right ~load))
    (two (fun on off ->
         [
           gain ~base:off.Runner.afct on.Runner.afct;
           (off.Runner.ctrl_msg_rate -. on.Runner.ctrl_msg_rate)
           /. Float.max 1. off.Runner.ctrl_msg_rate
           *. 100.;
         ]))

let fig12a =
  load_sweep
    ~title:
      "Figure 12a: AFCT (ms), end-to-end arbitration vs local-only \
       (left-right)"
    ~columns:[ "arbitration=ON"; "arbitration=OFF (local)" ]
    ~protocols:[ Runner.pase; pase_local ]
    ~scenario:left_right
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

(* Queue scarcity bites where single flows saturate the bottleneck (1 Gbps
   links): on the 10 Gbps left-right bottleneck ten flows share each band
   and the queue count barely matters, so this ablation runs intra-rack. *)
let fig12b =
  load_sweep
    ~title:"Figure 12b: AFCT (ms) vs number of priority queues (intra-rack)"
    ~columns:[ "3 queues"; "4 queues"; "6 queues"; "8 queues" ]
    ~protocols:[ pase_queues 3; pase_queues 4; pase_queues 6; pase_queues 8 ]
    ~scenario:intra_rack
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

let fig13a =
  load_sweep
    ~title:
      "Figure 13a: AFCT (ms), PASE vs PASE-DCTCP (no reference rate), \
       intra-rack"
    ~columns:[ "PASE"; "PASE-DCTCP" ]
    ~protocols:[ Runner.pase; pase_dctcp ]
    ~scenario:intra_rack
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

let fig13b =
  load_sweep
    ~title:"Figure 13b: testbed replica AFCT (ms), PASE vs DCTCP (10 nodes)"
    ~columns:[ "PASE"; "DCTCP" ]
    ~protocols:[ Runner.pase; Runner.Dctcp ]
    ~scenario:(fun ~load -> Scenario.testbed ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

(* Both arms use a fast low-queue RTO so that parking in a low band does
   trigger timeouts; the probes-arm recovers with 40 B probes, the other
   retransmits full windows spuriously. *)
let probe_ablation =
  match List.filter (fun load -> load >= 0.75) loads with
  | [] ->
      table (fun () ->
          print_endline "probe ablation: no loads >= 0.75 selected")
  | xs ->
      let fast_low = { Config.default with Config.rto_low = 0.010 } in
      sweep ~title:"Probing ablation (sec 4.3.2): PASE with vs without probes"
        ~columns:[ "probes"; "no probes"; "gain(%)" ]
        ~fmt_y:fmt_ms ~xs
        ~cells:(fun load ->
          on
            [
              Runner.Pase fast_low;
              Runner.Pase { fast_low with Config.use_probes = false };
            ]
            (worker_aggregator ~load))
        (two (fun with_probes without ->
             [
               ms with_probes.Runner.afct;
               ms without.Runner.afct;
               gain ~base:without.Runner.afct with_probes.Runner.afct;
             ]))

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's figures                                *)

(* All three arbitration-based designs plus the deadline-aware endpoint
   baseline on the deadline workload: D3's FCFS greedy allocation against
   PDQ's preemptive EDF and PASE's EDF arbitration (Table 1's lineage). *)
let ext_deadline =
  load_sweep
    ~title:
      "Extension: deadline-aware designs compared (fraction of deadlines \
       met, intra-rack)"
    ~columns:[ "PASE (EDF)"; "PDQ"; "D3"; "D2TCP" ]
    ~protocols:[ pase_edf; Runner.Pdq; Runner.D3; Runner.D2tcp ]
    ~scenario:deadline_intra_rack
    ~metric:(fun r -> r.Runner.app_throughput)
    ~fmt_y:(Printf.sprintf "%.3f") ()

(* Robustness: arbitration messages dropped with probability p. Soft state
   plus expiry keeps PASE correct; performance degrades gracefully toward
   local-only behaviour. *)
let ext_robust =
  sweep ~x_label:"msg loss(%)"
    ~title:
      "Extension: PASE under arbitration-message loss (left-right, 80% load)"
    ~columns:[ "AFCT(ms)"; "p99(ms)" ]
    ~fmt_y:fmt_ms
    ~xs:[ 0.0; 0.1; 0.3; 0.5; 0.8 ]
    ~cells:(fun p ->
      [
        ( Runner.Pase { Config.default with Config.ctrl_loss_prob = p },
          left_right ~load:0.8 );
      ])
    (List.concat_map (fun r -> [ ms r.Runner.afct; ms r.Runner.p99 ]))

(* Per-size breakdown and slowdown, the standard FCT decomposition. *)
let ext_buckets =
  ( on
      [ Runner.pase; Runner.Pfabric; Runner.L2dct; Runner.Dctcp ]
      (left_right ~load:0.8),
    fun results ->
      Series.print_table
        ~title:
          "Extension: AFCT by flow size and slowdown (left-right, 80% load; \
           sizes in segments)"
        ~header:
          [ "protocol"; "(0,50KB)"; "[50,130)KB"; ">=130KB"; "mean slowdown";
            "p99 slowdown" ]
        (List.map
           (fun r ->
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
           results) )

(* Task-aware scheduling (sec 3.1.1's task-id criterion, after Baraat):
   whole queries (tasks) are scheduled FIFO instead of interleaving their
   flows by size. Metric: query (task) completion time. Four hot
   aggregators: queries overlap, so task interleaving matters. *)
let ext_task =
  let pase_task =
    Runner.Pase { Config.default with Config.scheduling = Config.Task_aware }
  in
  sweep
    ~title:
      "Extension: task-aware vs SRPT arbitration (query completion times, \
       worker-aggregator)"
    ~columns:[ "task mean"; "SRPT mean"; "task p99"; "SRPT p99" ]
    ~fmt_y:fmt_ms
    ~xs:(List.filter (fun load -> load >= 0.35) loads)
    ~cells:(fun load ->
      on [ pase_task; Runner.pase ]
        (Scenario.worker_aggregator ~aggregators:4 ~num_flows:n_flows ~seed
           ~load ()))
    (fun results ->
      let times =
        List.map (fun r -> Fct.task_completion_times r.Runner.fct) results
      in
      List.map (fun ts -> Summary.mean ts *. 1e3) times
      @ List.map (fun ts -> Summary.percentile 99. ts *. 1e3) times)

(* Fat-tree + ECMP (extension): the same protocols on a k=6 fat-tree with
   uniform random pairs — PASE needs no changes beyond its generic
   path-walking arbitration. *)
let ext_fattree =
  load_sweep
    ~xs:(List.filter (fun load -> load >= 0.25) loads)
    ~title:"Extension: k=6 fat-tree (54 hosts, ECMP), AFCT (ms)"
    ~columns:[ "PASE"; "pFabric"; "DCTCP" ]
    ~protocols:[ Runner.pase; Runner.Pfabric; Runner.Dctcp ]
    ~scenario:(fun ~load ->
      Scenario.fat_tree_uniform ~k:6 ~num_flows:n_flows ~seed ~load ())
    ~metric:(fun r -> ms r.Runner.afct)
    ~fmt_y:fmt_ms ()

(* Empirical flow-size mixes (extension): the web-search and data-mining
   CDFs the transport literature evaluates on. Mice-vs-elephant separation
   is where SRPT-style scheduling pays off most. *)
let ext_empirical =
  let figure (title, scenario) =
    sweep ~title
      ~columns:
        [ "PASE afct"; "pFabric afct"; "DCTCP afct"; "PASE slowdn";
          "pFab slowdn"; "DCTCP slowdn" ]
      ~fmt_y:fmt_ms
      ~xs:(List.filter (fun load -> load >= 0.45 && load <= 0.85) loads)
      ~cells:(fun load ->
        on [ Runner.pase; Runner.Pfabric; Runner.Dctcp ] (scenario ~load))
      (fun results ->
        List.map (fun r -> ms r.Runner.afct) results
        @ List.map (fun r -> Fct.mean_slowdown r.Runner.fct) results)
  in
  let web, web_print =
    figure
      ( "Extension: web-search flow sizes (AFCT ms / mean slowdown)",
        fun ~load ->
          Scenario.web_search ~num_flows:(n_flows / 2) ~seed ~load () )
  in
  let mining, mining_print =
    figure
      ( "Extension: data-mining flow sizes (AFCT ms / mean slowdown)",
        fun ~load ->
          Scenario.data_mining ~num_flows:(n_flows / 2) ~seed ~load () )
  in
  ( web @ mining,
    fun results ->
      let first, rest = take (List.length web) results in
      web_print first;
      mining_print rest )

(* ------------------------------------------------------------------ *)

let experiments =
  List.map
    (fun (id, descr, (cells, print)) -> { id; descr; cells; print })
    [
      ("tab1", "Table 1: strategy comparison", table tab1);
      ("tab2", "Table 2: commodity switch survey", table tab2);
      ("tab3", "Table 3: parameter settings", table tab3);
      ("fig1", "Fig 1: D2TCP/DCTCP vs pFabric app throughput", fig1);
      ("fig2", "Fig 2: PDQ vs DCTCP AFCT", fig2);
      ("fig3", "Fig 3: toy multi-link example", table fig3);
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
  let jobs = ref None and list = ref false and ids = ref [] in
  List.iter
    (fun a ->
      match a with
      | "--quiet" -> quiet := true
      | "--list" -> list := true
      | _ when String.starts_with ~prefix:"--jobs=" a -> (
          let v = String.sub a 7 (String.length a - 7) in
          match int_of_string_opt v with
          | Some n when n >= 1 -> jobs := Some n
          | Some _ | None -> fail "--jobs must be a positive integer, got %S" v)
      | _ when String.starts_with ~prefix:"-" a ->
          fail "unknown option %S (want --list, --quiet or --jobs=N)" a
      | _ when List.exists (fun e -> e.id = a) experiments -> ids := a :: !ids
      | _ -> fail "unknown experiment %S; use --list" a)
    (List.tl (Array.to_list Sys.argv));
  if !list then
    List.iter (fun e -> Printf.printf "%-8s %s\n" e.id e.descr) experiments
  else begin
    let selected =
      match !ids with
      | [] -> experiments
      | ids -> List.filter (fun e -> List.mem e.id ids) experiments
    in
    Printf.printf "PASE reproduction benchmarks (flows/run = %d, seed = %d)\n"
      n_flows seed;
    let results =
      Parallel.run_jobs
        ~jobs:(Option.value !jobs ~default:default_jobs)
        ~on_result:(fun _ ~cached ~wall r ->
          progress "%s / %s @ %.0f%%: afct %.3f ms (%s)" r.Runner.protocol
            r.Runner.scenario
            (r.Runner.load *. 100.)
            (ms r.Runner.afct)
            (if cached then "cached" else Printf.sprintf "%.1fs wall" wall))
        (List.concat_map (fun e -> e.cells) selected)
    in
    ignore
      (List.fold_left
         (fun results e ->
           progress "=== %s ===" e.id;
           let mine, rest = take (List.length e.cells) results in
           e.print mine;
           rest)
         results selected)
  end
