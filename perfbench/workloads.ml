(* The four benchmark workloads. Their names are stable: digests, the
   README baseline and later comparisons cite them. Each is a list of
   simulation jobs built from the workload seed; the simulator only ever
   sees the generated scenarios. *)

type t = {
  name : string;
  jobs : seed:int -> quick:bool -> Parallel.job list;
  hybrid : Runner.hybrid option;
  sweep : bool;  (** many jobs over the fork pool; otherwise one in-process run *)
  attrib_rep : bool;  (** also times an attributed run ([attrib_wall_s]) *)
  p99_twin : bool;  (** reports the hybrid tier's short-flow p99 error *)
  hop_cost : string;  (** the layer-suite hop cost the ledger charges *)
}

let pase_with f = Runner.Pase (f Config.default)

(* The eleven protocol configurations of the incast sweep, as `pase_sim`
   names them. *)
let sweep_protocols =
  [
    Runner.pase;
    pase_with (fun c -> { c with Config.scheduling = Config.Edf });
    pase_with (fun c -> { c with Config.local_only = true });
    pase_with (fun c -> { c with Config.use_ref_rate = false });
    pase_with (fun c -> { c with Config.scheduling = Config.Task_aware });
    Runner.Dctcp;
    Runner.D2tcp;
    Runner.L2dct;
    Runner.Pfabric;
    Runner.Pdq;
    Runner.D3;
  ]

let default_hybrid =
  { Runner.enabled = true; fluid_threshold = Runner.default_fluid_threshold }

(* Web-search sizes are heavy-tailed, so the bytes 800 flows offer, and
   with them the run's cost, depend on the seed: on seeds 1 to 10 the event
   count ranges from 6.9M to 9.0M. So the workload takes the shortest
   prefix of the seed's arrivals that offers [flows] mean-sized flows'
   worth of bytes: 700 to 888 flows on those seeds, with 7.54M to 7.67M
   events. Flows are drawn in order, so a prefix of a longer scenario is
   the shorter scenario. *)
let web_search_bytes ~flows ~seed =
  let load = 0.6 in
  let probe = Scenario.web_search ~num_flows:(4 * flows) ~seed ~load () in
  let target = float_of_int flows *. probe.Scenario.size_bytes.Dist.mean in
  let counters = Counters.create () in
  let plan =
    Scenario.build probe (Engine.create ()) counters ~qdisc:(fun ~rate_bps:_ ->
        Queue_disc.droptail counters ~limit_pkts:1)
  in
  let rec prefix n bytes = function
    | s :: rest when bytes < target -> prefix (n + 1) (bytes +. float_of_int s.Scenario.size_bytes) rest
    | _ -> n
  in
  let measured = List.filter (fun s -> not s.Scenario.long_lived) plan.Scenario.specs in
  Scenario.web_search ~num_flows:(prefix 0 0. measured) ~seed ~load ()

let all =
  [
    (* The paper's protocol on a multipath fabric: engine, 8-band priority
       queues and PASE arbitration on a mid-depth heap; no fluid tier. *)
    {
      name = "fattree-pase";
      jobs =
        (fun ~seed ~quick ->
          let num_flows = if quick then 300 else 3000 in
          [ (Runner.pase, Scenario.fat_tree_uniform ~k:6 ~num_flows ~seed ~load:0.6 ()) ]);
      hybrid = None;
      sweep = false;
      attrib_rep = true;
      p99_twin = true;
      hop_cost = "link.ns_per_hop.k6";
    };
    (* Heavy-tailed sizes make this bound by per-packet cost; no
       arbitration and no fluid tier, so it is the bypass case for changes
       to lib/core and Fluid. *)
    {
      name = "websearch-dctcp";
      jobs =
        (fun ~seed ~quick ->
          let num_flows = if quick then 80 else 800 in
          [ (Runner.Dctcp, web_search_bytes ~flows:num_flows ~seed) ]);
      hybrid = None;
      sweep = false;
      attrib_rep = false;
      p99_twin = true;
      hop_cost = "link.ns_per_hop.rack40";
    };
    (* The scale point: deepest heap, active water-filling allocator, many
       arbitration applies and FCT records. 8000 flows rather than 20k: a
       20k-flow run takes 13 to 22 s on a 2.1 GHz Xeon, so a run of the
       benchmark could time it only once, and host noise went straight into
       the result; 8000 flows leave room for two or three. *)
    {
      name = "k10-hybrid";
      jobs =
        (fun ~seed ~quick ->
          let num_flows = if quick then 1000 else 8000 in
          [ (Runner.pase, Scenario.fat_tree_uniform ~k:10 ~num_flows ~seed ~load:0.6 ()) ]);
      hybrid = Some default_hybrid;
      sweep = false;
      attrib_rep = false;
      p99_twin = false;
      hop_cost = "link.ns_per_hop.k10";
    };
    (* Many short runs, so per-job costs (fork, pipe, codec, cache, build,
       stats finalisation) are a large share; the only workload with pFabric,
       PDQ and D3, and the only one reading the cache next to writing it. *)
    {
      name = "incast-sweep";
      jobs =
        (fun ~seed ~quick ->
          let num_flows = if quick then 40 else 400 in
          List.concat_map
            (fun load ->
              List.map
                (fun proto ->
                  (proto, Scenario.worker_aggregator ~num_flows ~seed ~load ()))
                sweep_protocols)
            [ 0.3; 0.6; 0.9 ]);
      hybrid = None;
      sweep = true;
      attrib_rep = false;
      p99_twin = false;
      hop_cost = "link.ns_per_hop.rack40";
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Worker-pool width: only the sweep forks, at most two workers. *)
let pool_width w =
  if w.sweep then min 2 (Domain.recommended_domain_count ()) else 1

(* The queue discipline each protocol's runs attach to every link,
   following the runner's choice, so a build here allocates what the build
   inside a run does. *)
let qdisc_of proto counters ~rate_bps =
  let mark = if rate_bps >= 5e9 then 65 else 20 in
  match proto with
  | Runner.Pase cfg ->
      Prio_queue.create counters ~bands:cfg.Config.num_queues
        ~limit_pkts:cfg.Config.queue_limit_pkts ~mark_threshold:mark
  | Runner.Dctcp | Runner.D2tcp | Runner.L2dct ->
      Queue_disc.red_ecn counters ~limit_pkts:225 ~mark_threshold:mark
  | Runner.Pfabric -> Pfabric_queue.create counters ~limit_pkts:76
  | Runner.Pdq | Runner.D3 -> Queue_disc.droptail counters ~limit_pkts:225

(* Which per-ACK unit cost a protocol's runs are charged in the ledger. *)
let ack_class = function
  | Runner.Pase _ -> "pase"
  | Runner.Pfabric -> "pfabric"
  | Runner.Dctcp | Runner.D2tcp | Runner.L2dct | Runner.Pdq | Runner.D3 -> "dctcp"

type plan = {
  specs : int;  (** generated measured flow specs, over all jobs *)
  spec_bytes : float;  (** bytes those specs carry *)
}

let build (proto, scenario) =
  let counters = Counters.create () in
  Scenario.build scenario (Engine.create ()) counters ~qdisc:(qdisc_of proto counters)

let plan w ~seed ~quick =
  let measured (proto, scenario) =
    List.filter (fun s -> not s.Scenario.long_lived) (build (proto, scenario)).Scenario.specs
  in
  let specs = List.concat_map measured (w.jobs ~seed ~quick) in
  {
    specs = List.length specs;
    spec_bytes =
      List.fold_left (fun acc s -> acc +. float_of_int s.Scenario.size_bytes) 0. specs;
  }

(* [n] set-up times in seconds, each a [Scenario.build] of every job's
   scenario on a fresh engine. Builds are pure and take milliseconds, so
   callers take the median of many, drawn across the whole run. Set-ups
   shorter than 5 ms are timed in batches of about that length (the sample
   is the batch mean), which keeps timer and scheduler jitter from
   dominating. A full major collection before each sample keeps the
   garbage of the previous one from being charged to it. The first call in
   a process builds for half a second untimed: the first few large builds
   run up to twice as slow while the major heap grows. *)
let heap_grown = ref false

let setup_samples w ~seed ~quick ~n =
  let jobs = w.jobs ~seed ~quick in
  let setup () = List.iter (fun j -> ignore (build j)) jobs in
  let start = Measure.now () in
  while not !heap_grown && Measure.now () -. start < 0.5 do
    setup ()
  done;
  heap_grown := true;
  let _, once = Measure.time setup in
  let batch = max 1 (int_of_float (0.005 /. once)) in
  List.init n (fun _ ->
      Gc.full_major ();
      let _, t =
        Measure.time (fun () ->
            Measure.span "Scenario.build" (fun () ->
                for _ = 1 to batch do
                  setup ()
                done))
      in
      t /. float_of_int batch)
