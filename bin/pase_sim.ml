(* pase_sim: command-line front end for single experiments.

   Examples:
     pase_sim run --scenario left-right --protocol pase --load 0.7
     pase_sim run --scenario worker-aggregator --protocol pfabric --load 0.9 --flows 2000
     pase_sim run --scenario testbed --load 0.6 --json
     pase_sim compare --scenario deadline --load 0.8 --jobs 8
     pase_sim list

   `compare` fans the protocols out to a fork-based worker pool (--jobs /
   PASE_JOBS, default: online cores) and both subcommands reuse the on-disk
   result cache (PASE_CACHE_DIR, default .pase-cache; --no-cache skips). *)

let scenarios =
  [
    ( "left-right",
      "160-host three-tier tree; left subtree sends to right subtree",
      fun ~num_flows ~seed ~load -> Scenario.left_right ~num_flows ~seed ~load () );
    ( "deadline",
      "20-host rack, U[100,500] KB flows with U[5,25] ms deadlines",
      fun ~num_flows ~seed ~load ->
        Scenario.deadline_intra_rack ~num_flows ~seed ~load () );
    ( "intra-rack",
      "20-host rack, U[100,500] KB flows, random pairs",
      fun ~num_flows ~seed ~load ->
        Scenario.intra_rack_medium ~num_flows ~seed ~load () );
    ( "worker-aggregator",
      "40-host search rack, query fan-in to round-robin aggregators",
      fun ~num_flows ~seed ~load ->
        Scenario.worker_aggregator ~num_flows ~seed ~load () );
    ( "worker-uniform",
      "40-host search rack, random worker/aggregator pairs",
      fun ~num_flows ~seed ~load ->
        Scenario.worker_uniform ~num_flows ~seed ~load () );
    ( "testbed",
      "10-node 1 Gbps rack (testbed replica), 9 clients -> 1 server",
      fun ~num_flows ~seed ~load -> Scenario.testbed ~num_flows ~seed ~load () );
    ( "web-search",
      "40-host rack, empirical web-search flow sizes (heavy-tailed)",
      fun ~num_flows ~seed ~load -> Scenario.web_search ~num_flows ~seed ~load () );
    ( "data-mining",
      "40-host rack, empirical data-mining flow sizes (heavier tail)",
      fun ~num_flows ~seed ~load -> Scenario.data_mining ~num_flows ~seed ~load () );
    ( "hadoop",
      "40-host rack, empirical hadoop flow sizes (shuffle-heavy tail)",
      fun ~num_flows ~seed ~load ->
        Scenario.empirical ~dist:Dist.hadoop_bytes ~num_flows ~seed ~load () );
    ( "fat-tree",
      "k=6 fat-tree (54 hosts), uniform random pairs over ECMP",
      fun ~num_flows ~seed ~load ->
        Scenario.fat_tree_uniform ~k:6 ~num_flows ~seed ~load () );
    ( "fat-tree-k10",
      "k=10 fat-tree (250 hosts), uniform random pairs over ECMP",
      fun ~num_flows ~seed ~load ->
        Scenario.fat_tree_uniform ~k:10 ~num_flows ~seed ~load () );
    ( "hotspot",
      "k=6 fat-tree with rack-level skew: half the traffic targets one rack",
      fun ~num_flows ~seed ~load ->
        Scenario.hotspot ~k:6 ~num_flows ~seed ~load () );
    ( "traffic-matrix",
      "k=6 fat-tree driven by a seeded random rack-to-rack demand matrix",
      fun ~num_flows ~seed ~load ->
        Scenario.traffic_matrix ~k:6 ~num_flows ~seed ~load () );
  ]

let protocols =
  [
    ("pase", Runner.pase);
    ("pase-edf", Runner.Pase { Config.default with Config.scheduling = Config.Edf });
    ("pase-local", Runner.Pase { Config.default with Config.local_only = true });
    ("pase-dctcp", Runner.Pase { Config.default with Config.use_ref_rate = false });
    ("pase-task", Runner.Pase { Config.default with Config.scheduling = Config.Task_aware });
    ("dctcp", Runner.Dctcp);
    ("d2tcp", Runner.D2tcp);
    ("l2dct", Runner.L2dct);
    ("pfabric", Runner.Pfabric);
    ("pdq", Runner.Pdq);
    ("d3", Runner.D3);
  ]

let find_scenario name =
  match List.find_opt (fun (n, _, _) -> n = name) scenarios with
  | Some (_, _, f) -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S (see `pase_sim list`)" name)

let find_protocol name =
  match List.assoc_opt name protocols with
  | Some p -> Ok p
  | None ->
      Error (Printf.sprintf "unknown protocol %S (see `pase_sim list`)" name)

let fault_rows (r : Runner.result) =
  if r.Runner.faults_injected = 0 then []
  else
    let f v = if Float.is_nan v then "n/a" else Printf.sprintf "%.3f" v in
    [
      [ "faults injected"; string_of_int r.Runner.faults_injected ];
      [ "blackholed pkts"; string_of_int r.Runner.blackholed_pkts ];
      [ "ctrl msgs lost"; string_of_int r.Runner.ctrl_lost_msgs ];
      [
        "link downtime (ms)"; Printf.sprintf "%.3f" (r.Runner.link_downtime_s *. 1e3);
      ];
      [
        "recovery (ms)";
        (if Float.is_nan r.Runner.recovery_s then "n/a"
         else Printf.sprintf "%.3f" (r.Runner.recovery_s *. 1e3));
      ];
      [ "AFCT inflation"; f r.Runner.afct_inflation ];
    ]

let hybrid_rows (r : Runner.result) =
  match r.Runner.hybrid with
  | None -> []
  | Some h ->
      [
        [ "hybrid"; (if h.Runner.hybrid_on then "on" else "off (tagging only)") ];
        [ "fluid threshold (B)"; string_of_int h.Runner.threshold_bytes ];
        [ "fluid flows"; string_of_int h.Runner.fluid_flows ];
        [ "fluid demotions"; string_of_int h.Runner.fluid_demotions ];
        [ "fault demotions"; string_of_int h.Runner.fault_demotions ];
        [ "fluid recomputes"; string_of_int h.Runner.fluid_recomputes ];
        [ "fluid bytes"; Printf.sprintf "%.0f" h.Runner.fluid_bytes ];
        [
          "short-flow p99 (ms)";
          (if Float.is_nan h.Runner.short_p99 then "n/a"
           else Printf.sprintf "%.3f" (h.Runner.short_p99 *. 1e3));
        ];
      ]

let coflow_rows (r : Runner.result) =
  match r.Runner.coflow with
  | None -> []
  | Some c ->
      let ms v =
        if Float.is_nan v then "n/a" else Printf.sprintf "%.3f" (v *. 1e3)
      in
      [
        [
          "coflows";
          Printf.sprintf "%d (%d censored)" (Coflow.coflows c)
            (Coflow.censored c);
        ];
        [ "coflow member flows"; string_of_int (Coflow.flows c) ];
        [ "CCT mean (ms)"; ms (Coflow.cct_mean c) ];
        [ "CCT p50 (ms)"; ms (Coflow.cct_quantile c 0.5) ];
        [ "CCT p99 (ms)"; ms (Coflow.cct_quantile c 0.99) ];
        [
          "coflow deadline met";
          (if Coflow.deadline_total c = 0 then "n/a"
           else
             Printf.sprintf "%d/%d (%.3f)" (Coflow.deadline_met c)
               (Coflow.deadline_total c)
               (Coflow.deadline_met_frac c));
        ];
      ]

let print_result (r : Runner.result) =
  Series.print_table
    ~title:
      (Printf.sprintf "%s on %s at %.0f%% load" r.Runner.protocol
         r.Runner.scenario (r.Runner.load *. 100.))
    ~header:[ "metric"; "value" ]
    ([
      [ "AFCT (ms)"; Printf.sprintf "%.3f" (r.Runner.afct *. 1e3) ];
      [ "99th pct FCT (ms)"; Printf.sprintf "%.3f" (r.Runner.p99 *. 1e3) ];
      [ "99.9th pct FCT (ms)"; Printf.sprintf "%.3f" (r.Runner.p999 *. 1e3) ];
      [
        "deadline met";
        (if Float.is_nan r.Runner.app_throughput then "n/a"
         else Printf.sprintf "%.3f" r.Runner.app_throughput);
      ];
      [ "loss rate (%)"; Printf.sprintf "%.2f" (r.Runner.loss_rate *. 100.) ];
      [ "control msgs"; string_of_int r.Runner.ctrl_msgs ];
      [ "control msgs/s"; Printf.sprintf "%.0f" r.Runner.ctrl_msg_rate ];
      [ "flows completed"; string_of_int r.Runner.completed ];
      [ "flows censored"; string_of_int r.Runner.censored ];
      [ "simulated time (s)"; Printf.sprintf "%.4f" r.Runner.duration ];
      [ "events"; string_of_int r.Runner.events ];
    ]
    @ (match Fct.sketch_info r.Runner.fct with
      | None -> []
      | Some sk ->
          [
            [
              "stats mode";
              Printf.sprintf "streaming (t-digest delta=%.0f, %d centroids)"
                sk.Fct.sk_delta sk.Fct.sk_centroids;
            ];
            [
              "p99 rank error";
              Printf.sprintf "%.4f" (Fct.quantile_rank_error r.Runner.fct 99.);
            ];
          ])
    @ coflow_rows r @ hybrid_rows r @ fault_rows r)

open Cmdliner

let load_arg =
  let doc = "Offered load on the scenario's bottleneck, in (0, 1]." in
  Arg.(value & opt float 0.5 & info [ "load"; "l" ] ~docv:"LOAD" ~doc)

let flows_arg =
  let doc = "Number of measured flows." in
  Arg.(value & opt int 800 & info [ "flows"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Workload seed (runs are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let scenario_arg =
  let doc = "Scenario name (see `pase_sim list`)." in
  Arg.(value & opt string "left-right" & info [ "scenario"; "s" ] ~docv:"NAME" ~doc)

let protocol_arg =
  let doc = "Protocol name (see `pase_sim list`)." in
  Arg.(value & opt string "pase" & info [ "protocol"; "p" ] ~docv:"NAME" ~doc)

let jobs_arg =
  let doc =
    "Worker processes for parallel simulation (default: \\$(b,PASE_JOBS) or \
     the number of online cores)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let no_cache_arg =
  let doc = "Do not read or write the on-disk result cache." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let json_arg =
  let doc = "Print the result as JSON instead of a table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_arg =
  let doc =
    "Write a packet-level event trace to $(docv). Tracing disables the \
     result cache for this run (a cached result has no trace)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc = "Trace format: $(b,jsonl) (one JSON object per line) or $(b,text) \
             (ns-2-style one-liners)." in
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("text", `Text) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FMT" ~doc)

let trace_limit_arg =
  let doc =
    "With $(b,--trace): keep only the most recent $(docv) events in a \
     bounded in-memory ring and write them out at the end of the run. The \
     summary reports how many earlier events the ring dropped."
  in
  Arg.(value & opt (some int) None & info [ "trace-limit" ] ~docv:"N" ~doc)

let attrib_arg =
  let doc =
    "Enable per-flow delay attribution and spill one JSON object per \
     completed flow to $(docv) (JSONL): FCT decomposed into serialization, \
     propagation, queueing, arbitration wait and RTO stall (the components \
     sum exactly to the FCT). The result also embeds per-band component \
     aggregates. Disables the result cache for this run."
  in
  Arg.(value & opt (some string) None & info [ "attrib" ] ~docv:"FILE" ~doc)

let series_arg =
  let doc =
    "Sample per-link utilization, per-band queue depths/drops and \
     arbitrator state on a fixed sim-time grid and spill one JSON object \
     per sample to $(docv) (JSONL). Disables the result cache for this \
     run."
  in
  Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)

let series_interval_arg =
  let doc = "Sampling period for $(b,--series), in simulated seconds." in
  Arg.(
    value & opt float 1e-3 & info [ "series-interval" ] ~docv:"SECONDS" ~doc)

let trace_filter_arg =
  let doc =
    "Comma-separated trace filters: $(b,flow=N), $(b,kind=NAME) (e.g. drop, \
     enqueue, cwnd, arb-alloc), $(b,link=A-B). Repeating a key widens that \
     filter; distinct keys intersect."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-filter" ] ~docv:"SPEC" ~doc)

let profile_arg =
  let doc =
    "Enable engine profiling: per-schedule-site event counts, reported in \
     the table / JSON output."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let stream_results_arg =
  let doc =
    "Spill one JSON object per flow record to $(docv) (JSONL) as the run \
     executes, and switch to bounded-memory streaming statistics (exact \
     Welford means, t-digest percentiles within a documented rank-error \
     bound). Disables the result cache for this run (a cached result has \
     no spill)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "stream-results" ] ~docv:"FILE" ~doc)

let exact_stats_arg =
  let doc =
    "With $(b,--stream-results): keep the exact in-memory statistics \
     (byte-identical to a plain run) while still spilling records. Without \
     $(b,--stream-results) this is the default and has no effect."
  in
  Arg.(value & flag & info [ "exact-stats" ] ~doc)

let hybrid_arg =
  let doc =
    "Enable the hybrid fluid/packet engine: flows at or above the fluid \
     threshold (and long-lived background flows) advance as max-min fair \
     rate shares and demote to packet level for their final bytes (or when \
     a fault touches their path). Only fluid-capable protocols (DCTCP \
     family, PASE) use the fluid tier; others run packet-level but still \
     tag records with the classifier decision."
  in
  Arg.(value & flag & info [ "hybrid" ] ~doc)

let fluid_threshold_arg =
  let doc =
    "Fluid classifier threshold in bytes (flows of at least $(docv) bytes \
     are fluid-eligible; demotion fires when remaining bytes fall to \
     $(docv)). Implies record tagging even without $(b,--hybrid), so a \
     packet-only run cuts the identical short-flow subset for accuracy \
     comparison."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "fluid-threshold" ] ~docv:"BYTES" ~doc)

let workload_arg =
  let doc =
    "Override the scenario's flow-size distribution with a built-in \
     empirical CDF: $(b,websearch), $(b,datamining) or $(b,hadoop) \
     (case/dash/underscore-insensitive). Mutually exclusive with $(b,--cdf)."
  in
  Arg.(value & opt (some string) None & info [ "workload" ] ~docv:"NAME" ~doc)

let cdf_arg =
  let doc =
    "Override the scenario's flow-size distribution with a user-supplied \
     empirical CDF table: a whitespace-separated two-column \
     $(b,<bytes> <cum-prob>) file ($(b,#) comments and blank lines \
     ignored), probabilities non-decreasing and ending at 1. Mutually \
     exclusive with $(b,--workload)."
  in
  Arg.(value & opt (some string) None & info [ "cdf" ] ~docv:"FILE" ~doc)

let coflows_arg =
  let doc =
    "Turn arrivals into coflow jobs: $(b,width=N) or $(b,width=LO-HI) \
     member flows per job (uniform over the range), optionally \
     $(b,,deadline=S) or $(b,,deadline=LO-HI) seconds shared by every \
     member. Jobs arrive Poisson at the per-flow rate divided by the mean \
     width; the result carries coflow-completion-time (CCT) and \
     deadline-met aggregates. Not valid on incast scenarios (queries are \
     already task groups)."
  in
  Arg.(value & opt (some string) None & info [ "coflows" ] ~docv:"SPEC" ~doc)

(* "N" or "LO-HI" (plain decimals; scientific notation only for single
   values, since '-' is the range separator). *)
let parse_range ~what s =
  let s = String.trim s in
  match float_of_string_opt s with
  | Some v when v > 0. && Float.is_finite v -> Ok (Dist.constant v)
  | Some _ -> Error (Printf.sprintf "%s must be positive, got %S" what s)
  | None -> (
      match String.split_on_char '-' s with
      | [ a; b ] -> (
          match (float_of_string_opt a, float_of_string_opt b) with
          | Some a, Some b when a > 0. && b >= a && Float.is_finite b ->
              Ok (Dist.uniform a b)
          | Some _, Some _ ->
              Error
                (Printf.sprintf "%s range %S must satisfy 0 < LO <= HI" what s)
          | _ -> Error (Printf.sprintf "bad %s %S (want N or LO-HI)" what s))
      | _ -> Error (Printf.sprintf "bad %s %S (want N or LO-HI)" what s))

(* Fold a comma-separated "key=value" flag value through [step], stopping
   at the first error. A syntax error names the bad [what] item. *)
let fold_fields ~what spec init step =
  match Fault.parse_fields spec with
  | Error item -> Error (Printf.sprintf "bad %s %S (want key=value)" what item)
  | Ok fields ->
      List.fold_left
        (fun acc (key, value) -> Result.bind acc (fun a -> step a key value))
        (Ok init) fields

let parse_coflows spec =
  let fields =
    fold_fields ~what:"coflows item" spec (None, None)
      (fun (width, deadline) key value ->
        match key with
        | "width" ->
            parse_range ~what:"coflow width" value
            |> Result.map (fun w -> (Some w, deadline))
        | "deadline" ->
            parse_range ~what:"coflow deadline" value
            |> Result.map (fun d -> (width, Some d))
        | _ -> Error (Printf.sprintf "unknown coflows key %S" key))
  in
  match fields with
  | Error e -> Error e
  | Ok (None, _) -> Error "coflows spec needs width=N or width=LO-HI"
  | Ok (Some w, deadline) -> Ok (w, deadline)

(* Resolve --workload / --cdf into a size-distribution override. *)
let resolve_sizes ~workload ~cdf =
  match (workload, cdf) with
  | Some _, Some _ -> Error "--workload and --cdf are mutually exclusive"
  | Some name, None -> (
      match Dist.builtin name with
      | Some d -> Ok (Some d)
      | None ->
          Error
            (Printf.sprintf
               "unknown workload %S (want websearch, datamining or hadoop)"
               name))
  | None, Some file -> (
      match Dist.of_cdf_file file with
      | Ok d -> Ok (Some d)
      | Error e -> Error ("--cdf: " ^ e))
  | None, None -> Ok None

(* Apply --workload/--cdf and --coflows to a built scenario. *)
let customize scn ~sizes ~coflows =
  let scn =
    match sizes with None -> scn | Some d -> Scenario.with_sizes scn d
  in
  match coflows with
  | None -> Ok scn
  | Some (width, deadline_s) -> (
      try Ok (Scenario.with_coflows scn ?deadline_s ~width ())
      with Invalid_argument e -> Error e)

(* The simulated configuration both [run] and [compare] take: --scenario,
   --load, --flows, --seed, --workload/--cdf, --coflows, --hybrid and
   --fluid-threshold, validated and resolved once. *)
type setup = {
  name : string;  (** the --scenario name *)
  load : float;
  scenario : Scenario.t;
  hybrid : Runner.hybrid option;
}

let setup_term =
  let resolve name load flows seed hybrid_on fluid_threshold workload cdf
      coflows =
    let ( let* ) = Result.bind in
    let check ok msg = if ok then Ok () else Error msg in
    let* build = find_scenario name in
    let* () =
      check
        (load > 0. && load <= 1.)
        (Printf.sprintf "--load must be in (0, 1], got %g" load)
    in
    let* () =
      check (flows >= 1)
        (Printf.sprintf "--flows must be at least 1, got %d" flows)
    in
    let* () =
      match fluid_threshold with
      | Some t when t <= 0 ->
          Error (Printf.sprintf "--fluid-threshold must be positive, got %d" t)
      | Some _ | None -> Ok ()
    in
    let* sizes = resolve_sizes ~workload ~cdf in
    let* coflows =
      match coflows with
      | None -> Ok None
      | Some spec -> Result.map Option.some (parse_coflows spec)
    in
    let* scenario =
      customize (build ~num_flows:flows ~seed ~load) ~sizes ~coflows
    in
    (* --hybrid alone uses the default threshold; --fluid-threshold alone
       configures tagging-only (enabled = false) so a packet run carries the
       classifier tags for accuracy comparison. *)
    let hybrid =
      match (hybrid_on, fluid_threshold) with
      | false, None -> None
      | enabled, thr ->
          Some
            {
              Runner.enabled;
              fluid_threshold =
                Option.value thr ~default:Runner.default_fluid_threshold;
            }
    in
    Ok { name; load; scenario; hybrid }
  in
  Term.(
    term_result' ~usage:false
      (const resolve $ scenario_arg $ load_arg $ flows_arg $ seed_arg
     $ hybrid_arg $ fluid_threshold_arg $ workload_arg $ cdf_arg
     $ coflows_arg))

let faults_arg =
  let doc =
    "Semicolon-separated fault schedule: \
     $(b,down:a=NODE,b=NODE,at=S[,up=S]), \
     $(b,flap:a=NODE,b=NODE,at=S,down=S,up=S,count=N), \
     $(b,crash:node=NODE,at=S[,restart=S]), \
     $(b,ctrl:at=S,until=S,p=PROB); NODE is host<i>, tor<i>, agg<i>, \
     core<i> or node<i>. A faulted run also executes the fault-free \
     baseline to report AFCT inflation."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

(* Parse "flow=42,kind=drop,link=0-3" into per-dimension filter lists.
   An empty list for a dimension means "no filter on it". *)
let parse_trace_filter spec =
  let bad_link v = Error (Printf.sprintf "bad link %S (want A-B)" v) in
  fold_fields ~what:"trace filter" spec ([], [], [])
    (fun (kinds, flows, links) key value ->
      match key with
      | "flow" -> (
          match int_of_string_opt value with
          | Some f -> Ok (kinds, f :: flows, links)
          | None -> Error (Printf.sprintf "bad flow id %S" value))
      | "kind" -> (
          match Trace.Kind.of_name value with
          | Some k -> Ok (k :: kinds, flows, links)
          | None ->
              Error
                (Printf.sprintf "unknown event kind %S (known: %s)" value
                   (String.concat ", " (List.map Trace.Kind.name Trace.Kind.all))))
      | "link" -> (
          match String.split_on_char '-' value with
          | [ a; b ] -> (
              match (int_of_string_opt a, int_of_string_opt b) with
              | Some a, Some b -> Ok (kinds, flows, (a, b) :: links)
              | _ -> bad_link value)
          | _ -> bad_link value)
      | _ -> Error (Printf.sprintf "unknown trace filter key %S" key))
  |> Result.map (fun (kinds, flows, links) ->
         let opt = function [] -> None | l -> Some (List.rev l) in
         (opt kinds, opt flows, opt links))

let cache_dir ~no_cache =
  if no_cache then None else Parallel.default_cache_dir ()

let profile_rows (r : Runner.result) =
  let sites =
    List.map
      (fun (label, n) -> [ Printf.sprintf "events[%s]" label; string_of_int n ])
      r.Runner.sched_profile
  in
  (* GC deltas ride along on profiled runs (see Engine.profile). *)
  if r.Runner.sched_profile = [] then sites
  else
    sites
    @ [
        [ "gc.minor_words"; Printf.sprintf "%.0f" r.Runner.gc_minor_words ];
        [ "gc.promoted_words"; Printf.sprintf "%.0f" r.Runner.gc_promoted_words ];
        [
          "gc.major_collections"; string_of_int r.Runner.gc_major_collections;
        ];
      ]

(* ---- run: sinks ---------------------------------------------------------- *)

(* What the spill sinks hand to [Runner.run]. *)
type hooks = {
  stats : [ `Exact | `Streaming ];
  on_record : (Fct.record -> unit) option;
  on_attrib : (size_pkts:int -> Delay.record -> unit) option;
  series : (Series.store * float) option;
}

let no_hooks = { stats = `Exact; on_record = None; on_attrib = None; series = None }

(* A file the run writes besides its result: --trace, --stream-results,
   --attrib or --series. [attach] wires the opened file into the run and
   returns the summary rows to print after the run, which follow a
   "<flag>_file" row. *)
type sink = {
  flag : string;
  file : string;
  attach :
    out_channel -> hooks -> hooks * (Runner.result -> (string * string) list);
}

(* The summary-row prefix: "--stream-results" -> "stream_results". *)
let summary_key sink =
  String.map
    (function '-' -> '_' | c -> c)
    (String.sub sink.flag 2 (String.length sink.flag - 2))

let trace_term =
  let resolve file format filter limit =
    let ( let* ) = Result.bind in
    let* kinds, flows, links =
      match filter with
      | None -> Ok (None, None, None)
      | Some spec -> parse_trace_filter spec
    in
    let* () =
      match limit with
      | Some n when n <= 0 ->
          Error (Printf.sprintf "--trace-limit must be positive, got %d" n)
      | Some _ | None -> Ok ()
    in
    let attach oc hooks =
      (* A bounded ring keeps the tail in memory and writes it out once the
         run is over; otherwise events stream straight to the file. *)
      let ring =
        match limit with
        | None ->
            Trace.attach
              (match format with
              | `Jsonl -> Trace.jsonl_sink oc
              | `Text -> Trace.text_sink oc);
            None
        | Some capacity ->
            let ring, sink = Trace.ring_sink ~capacity in
            Trace.attach sink;
            Some ring
      in
      Trace.set_kind_filter kinds;
      Trace.set_flow_filter flows;
      Trace.set_link_filter links;
      ( hooks,
        fun _ ->
          let emitted = Trace.emitted () in
          let dropped =
            match ring with
            | None -> 0
            | Some ring ->
                let render =
                  match format with
                  | `Jsonl -> Trace.to_json
                  | `Text -> Trace.to_text
                in
                List.iter
                  (fun (time, ev) ->
                    output_string oc (render ~time ev);
                    output_char oc '\n')
                  (Trace.ring_contents ring);
                Trace.ring_dropped ring
          in
          Trace.reset ();
          [
            ("trace_events", string_of_int emitted);
            ("trace_dropped_events", string_of_int dropped);
          ] )
    in
    Ok (Option.map (fun file -> { flag = "--trace"; file; attach }) file)
  in
  Term.(
    term_result' ~usage:false
      (const resolve $ trace_arg $ trace_format_arg $ trace_filter_arg
     $ trace_limit_arg))

let spills_term =
  let resolve stream_results exact_stats attrib series series_interval =
    let line oc s =
      output_string oc s;
      output_char oc '\n'
    in
    let sink flag attach = Option.map (fun file -> { flag; file; attach }) in
    if series_interval <= 0. then Error "--series-interval must be positive"
    else
      Ok
        (List.filter_map Fun.id
           [
             sink "--stream-results"
               (fun oc hooks ->
                 ( {
                     hooks with
                     stats = (if exact_stats then `Exact else `Streaming);
                     on_record =
                       Some (fun r -> line oc (Result_codec.record_to_json r));
                   },
                   fun r ->
                     [
                       ( "stream_results_records",
                         string_of_int (Fct.count r.Runner.fct) );
                     ] ))
               stream_results;
             sink "--attrib"
               (fun oc hooks ->
                 let flows = ref 0 in
                 ( {
                     hooks with
                     on_attrib =
                       Some
                         (fun ~size_pkts r ->
                           incr flows;
                           line oc
                             (Result_codec.attrib_record_to_json ~size_pkts r));
                   },
                   fun _ -> [ ("attrib_flows", string_of_int !flows) ] ))
               attrib;
             sink "--series"
               (fun oc hooks ->
                 let store =
                   Series.store ~spill:(fun s -> line oc (Series.sample_json s)) ()
                 in
                 ( { hooks with series = Some (store, series_interval) },
                   fun _ ->
                     [
                       ("series_samples", string_of_int (Series.seen store));
                       ("series_dropped", string_of_int (Series.dropped store));
                     ] ))
               series;
           ])
  in
  Term.(
    term_result' ~usage:false
      (const resolve $ stream_results_arg $ exact_stats_arg $ attrib_arg
     $ series_arg $ series_interval_arg))

(* Open every sink's file before anything runs: an unwritable path is an
   error naming its flag, and closes the files already opened. *)
let open_sinks sinks =
  List.fold_left
    (fun acc sink ->
      Result.bind acc (fun opened ->
          match open_out sink.file with
          | oc -> Ok ((sink, oc) :: opened)
          | exception Sys_error e ->
              List.iter (fun (_, oc) -> close_out_noerr oc) opened;
              Error (Printf.sprintf "%s: %s" sink.flag e)))
    (Ok []) sinks
  |> Result.map List.rev

let run_cmd =
  let protocol_term =
    Term.(term_result' ~usage:false (const find_protocol $ protocol_arg))
  in
  let faults_term =
    let parse = function None -> Ok [] | Some spec -> Fault.parse spec in
    Term.(term_result' ~usage:false (const parse $ faults_arg))
  in
  let action setup proto no_cache json profile faults trace spills =
    let scn = Scenario.with_faults setup.scenario faults in
    let simulate = function
      | [] -> (
          (* No sink: the cached single-job path [compare] uses too. *)
          match
            Parallel.run_jobs ~jobs:1 ~cache_dir:(cache_dir ~no_cache) ~profile
              ?hybrid:setup.hybrid
              [ (proto, scn) ]
          with
          | [ r ] -> (r, [])
          | _ -> assert false)
      | opened ->
          (* Sinks need the simulation to execute here, record by record. *)
          let hooks, summaries =
            List.fold_left_map
              (fun hooks (sink, oc) ->
                let hooks, summary = sink.attach oc hooks in
                (hooks, (sink, summary)))
              no_hooks opened
          in
          let r =
            Runner.run ~profile ~stats:hooks.stats ?on_record:hooks.on_record
              ~attrib:(hooks.on_attrib <> None) ?on_attrib:hooks.on_attrib
              ?series:hooks.series ?hybrid:setup.hybrid proto scn
          in
          ( r,
            List.concat_map
              (fun (sink, summary) ->
                (summary_key sink ^ "_file", Printf.sprintf "%S" sink.file)
                :: summary r)
              summaries )
    in
    let outcome =
      Result.bind
        (open_sinks (Option.to_list trace @ spills))
        (fun opened ->
          Fun.protect
            ~finally:(fun () ->
              List.iter (fun (_, oc) -> close_out_noerr oc) opened)
            (fun () ->
              (* Fault.parse checks syntax; node refs only resolve against
                 the topology once the run builds it, so schedule/topology
                 mismatches surface here as Invalid_argument. *)
              try Ok (simulate opened) with Invalid_argument e -> Error e))
    in
    match outcome with
    | Error e -> `Error (false, e)
    | Ok (r, extra) ->
        if json then print_endline (Result_codec.to_json ~extra r)
        else begin
          print_result r;
          List.iter
            (fun row -> print_endline (String.concat "  " row))
            (profile_rows r);
          List.iter (fun (k, v) -> Printf.printf "%s  %s\n" k v) extra
        end;
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const action $ setup_term $ protocol_term $ no_cache_arg $ json_arg
       $ profile_arg $ faults_term $ trace_term $ spills_term))
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one protocol on one scenario") term

let compare_cmd =
  let action setup jobs no_cache =
    (* Fan every protocol out to the worker pool; results come back in input
       order, so the table is identical to a serial run. *)
    let pairs =
      List.map (fun (_, proto) -> (proto, setup.scenario)) protocols
    in
    let results =
      Parallel.run_jobs ?jobs ~cache_dir:(cache_dir ~no_cache)
        ?hybrid:setup.hybrid pairs
    in
    (* Same scenario everywhere: either every result carries a coflow
       aggregate or none does. *)
    let with_cct = List.exists (fun r -> r.Runner.coflow <> None) results in
    let rows =
      List.map2
        (fun (name, _) r ->
          [
            name;
            Printf.sprintf "%.3f" (r.Runner.afct *. 1e3);
            Printf.sprintf "%.3f" (r.Runner.p99 *. 1e3);
            (if Float.is_nan r.Runner.app_throughput then "n/a"
             else Printf.sprintf "%.3f" r.Runner.app_throughput);
            Printf.sprintf "%.2f" (r.Runner.loss_rate *. 100.);
          ]
          @
          if not with_cct then []
          else
            match r.Runner.coflow with
            | None -> [ "n/a"; "n/a" ]
            | Some c ->
                let ms v =
                  if Float.is_nan v then "n/a"
                  else Printf.sprintf "%.3f" (v *. 1e3)
                in
                [ ms (Coflow.cct_mean c); ms (Coflow.cct_quantile c 0.99) ])
        protocols results
    in
    Series.print_table
      ~title:
        (Printf.sprintf "all protocols on %s at %.0f%% load" setup.name
           (setup.load *. 100.))
      ~header:
        ([ "protocol"; "AFCT(ms)"; "p99(ms)"; "deadline-met"; "loss(%)" ]
        @ if with_cct then [ "CCT(ms)"; "CCT p99(ms)" ] else [])
      rows
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every protocol on one scenario (in parallel) and compare")
    Term.(const action $ setup_term $ jobs_arg $ no_cache_arg)

let report_cmd =
  let result_arg =
    let doc = "Result JSON file, as written by $(b,pase_sim run --json)." in
    Arg.(
      required & opt (some string) None & info [ "result" ] ~docv:"FILE" ~doc)
  in
  let report_attrib_arg =
    let doc =
      "Per-flow attribution JSONL spill from $(b,pase_sim run --attrib)."
    in
    Arg.(value & opt (some string) None & info [ "attrib" ] ~docv:"FILE" ~doc)
  in
  let report_series_arg =
    let doc = "Fabric series JSONL spill from $(b,pase_sim run --series)." in
    Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)
  in
  let vs_arg =
    let doc =
      "Second result JSON file to diff against: compares mean per-component \
       delay attribution protocol-vs-protocol (both results must embed \
       attribution aggregates, i.e. come from $(b,--attrib) runs)."
    in
    Arg.(value & opt (some string) None & info [ "vs" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    let doc = "Number of hot links / hot queues to show." in
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"K" ~doc)
  in
  let action result attrib series vs top json =
    match Report.of_files ~result ?attrib ?series ?vs ~top () with
    | report ->
        if json then print_endline (Report.to_json report)
        else Report.print report;
        `Ok ()
    | exception Failure e -> `Error (false, e)
  in
  let term =
    Term.(
      ret
        (const action $ result_arg $ report_attrib_arg $ report_series_arg
       $ vs_arg $ top_arg $ json_arg))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Explain a run from its result/attrib/series files: p99 flow delay \
          breakdown, component totals checked against the AFCT, top-k hot \
          links and queues, protocol-vs-protocol attribution diff")
    term

let list_cmd =
  let action () =
    print_endline "scenarios:";
    List.iter
      (fun (n, d, _) -> Printf.printf "  %-18s %s\n" n d)
      scenarios;
    print_endline "\nprotocols:";
    List.iter (fun (n, _) -> Printf.printf "  %s\n" n) protocols;
    print_endline "\nworkloads (for --workload; --cdf FILE takes a table):";
    List.iter
      (fun (n, d) ->
        Printf.printf "  %-12s mean %.0f bytes\n" n d.Dist.mean)
      Dist.builtins;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List scenarios and protocols")
    Term.(ret (const action $ const ()))

let () =
  let doc = "PASE data-center transport simulator (SIGCOMM'14 reproduction)" in
  let info = Cmd.info "pase_sim" ~version:"1.0.0" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; compare_cmd; report_cmd; list_cmd ]))
