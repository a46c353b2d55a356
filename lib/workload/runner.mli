(** Experiment runner: materialise a scenario, attach one transport per
    flow, simulate, and collect the paper's metrics. *)

type protocol =
  | Dctcp
  | D2tcp
  | L2dct
  | Pfabric
  | Pdq
  | D3
  | Pase of Config.t

val name : protocol -> string

(** PASE with the paper's default configuration. *)
val pase : protocol

(** Hybrid fidelity: which protocols may carry fluid (flow-level) traffic.
    DCTCP-family transports and PASE converge to fair shares on long flows
    (PASE's arbitration is approximated by the max-min share while a flow
    is fluid); pFabric/PDQ/D3 schedule by remaining size or explicit rates
    and stay packet-level. *)
val fluid_capable : protocol -> bool

(** Hybrid-engine configuration. [enabled = false] keeps every flow at
    packet level but still tags records with the classifier decision, so a
    comparison run cuts the identical short-flow subset as the hybrid run
    with the same [fluid_threshold] (bytes). *)
type hybrid = { enabled : bool; fluid_threshold : int }

val default_fluid_threshold : int

type hybrid_stats = {
  hybrid_on : bool;  (** fluid tier active (enabled and whitelisted) *)
  threshold_bytes : int;
  fluid_flows : int;  (** flows the classifier sent to the fluid tier *)
  fluid_demotions : int;  (** total demotions to packet level *)
  fault_demotions : int;  (** demotions forced by path faults *)
  fluid_recomputes : int;  (** max-min rate-allocation passes *)
  fluid_bytes : float;  (** bytes advanced analytically *)
  short_p99 : float;
      (** p99 FCT of completed flows the classifier left packet-level — the
          hybrid accuracy metric (see {!Fct.packet_tier_percentile}) *)
}

type result = {
  scenario : string;
  protocol : string;
  load : float;
  fct : Fct.t;  (** per-flow records (completed + censored) *)
  afct : float;  (** seconds, over completed flows *)
  p99 : float;  (** 99th-percentile FCT, seconds; [nan] if none completed *)
  p999 : float;
      (** 99.9th-percentile FCT, seconds; [nan] if none completed. Under
          streaming stats, both percentiles are t-digest estimates within
          [Fct.quantile_rank_error] of the exact rank *)
  app_throughput : float;  (** deadline-met fraction; [nan] if no deadlines *)
  loss_rate : float;
  ctrl_msgs : int;
  ctrl_msg_rate : float;  (** control messages per simulated second *)
  duration : float;  (** simulated time at the end of the run *)
  events : int;
  completed : int;
  censored : int;
  stray_pkts : int;
      (** packets delivered with no registered handler or routed into a dead
          end — nonzero means misrouted traffic, which should fail loudly *)
  faults_injected : int;  (** events in the scenario's fault schedule *)
  blackholed_pkts : int;  (** packets lost to down links *)
  ctrl_lost_msgs : int;
      (** control messages lost to injected loss or crashed arbitrators *)
  link_downtime_s : float;
      (** total link downtime, summed per undirected pair *)
  recovery_s : float;
      (** time from the first arbitrator-node recovery to its first
          re-served allocation; [nan] when no crash recovered *)
  afct_baseline : float;
      (** AFCT of the fault-free run of the same scenario; [nan] for
          fault-free runs *)
  afct_inflation : float;  (** [afct /. afct_baseline]; [nan] if n/a *)
  attrib : Attrib.t option;
      (** per-flow delay attribution aggregate (see {!Delay} and
          {!Attrib}); [None] unless [run ~attrib:true]. For demoted flows
          the attribution covers the packet-level phase only *)
  hybrid : hybrid_stats option;
      (** hybrid fidelity accounting; [None] unless [run ~hybrid] *)
  coflow : Coflow.t option;
      (** coflow (task-group) completion aggregate with all-workers-finish
          semantics: one group per task id (incast queries and
          {!Scenario.with_coflows} jobs), CCT = last member finish − first
          member start, group deadline = min over member deadlines. [None]
          when no spec carries a task id. Built by {!Fct.coflow} from the
          collection's task-group table in sorted task-id order, so the
          aggregate is byte-stable across runs and processes. *)
  peak_heap : int;  (** peak engine event-heap depth over the run *)
  sched_profile : (string * int) list;
      (** executions per schedule-site label (see {!Engine.profile});
          empty unless [run ~profile:true]. Deterministic, unlike wall
          time, so it is safe inside the byte-compared result. *)
  gc_minor_words : float;
      (** minor-heap words allocated during the run; zero unless
          [run ~profile:true]. GC deltas depend on process state (heap
          history, fork vs. serial): byte-compare profiled results only
          after stripping them. *)
  gc_promoted_words : float;  (** words promoted to the major heap *)
  gc_major_collections : int;  (** major GC cycles during the run *)
}

(** [run ?profile ?horizon ?stats ?on_record protocol scenario] executes
    one simulation. The run ends when every measured flow completes or at
    [horizon] (default: last arrival + 5 s); unfinished measured flows are
    recorded as censored. [profile] (default false) enables per-site engine
    profiling.

    [stats] selects the FCT collection mode: [`Exact] (default) retains
    every per-flow record, byte-identical to the historical results;
    [`Streaming] aggregates online ({!Fct.create_streaming}, reservoir
    seeded from the scenario seed) so the run's memory stays bounded in the
    flow count. [on_record] is invoked once per record (completed and
    censored) in result order — the CLI's [--stream-results] uses it to
    spill records to disk incrementally.

    A non-empty [scenario.faults] schedule is armed on the engine before
    the run and first triggers an unprofiled, unobserved fault-free sub-run
    of the same scenario, on its own counters, to measure [afct_baseline].

    [trace] (default {!Trace.off}) is the caller's bus; the run stamps its
    events from the run's engine ({!Trace.with_clock}).

    [attrib] (default false) gives the measured run (never the baseline
    sub-run) its own delay-attribution tables ({!Delay}): each completed
    flow's record lands in [result.attrib], and [on_attrib] (if given) sees
    every record as the flow completes, in completion order — the CLI's
    [--attrib] uses it to spill records as JSONL. [series], when given a
    [(store, interval)] pair, drives a {!Sampler} over the topology's links
    at [interval] seconds of sim time into [store]. Both are observation
    layers: the simulated outcome (FCTs, events, counters) is identical
    with them on or off, as it is with [trace].

    [hybrid] configures the hybrid fidelity engine (see DESIGN.md §15):
    with [enabled = true] and a whitelisted protocol, flows the classifier
    marks eligible ({!Scenario.fluid_eligible}) run as fluid rate shares
    until their remaining bytes reach [fluid_threshold] (or a fault touches
    their path), then finish packet-level; every record carries the
    classifier tag and [result.hybrid] reports the accounting. Omitting
    [hybrid] is byte-identical to the pre-hybrid runner. Raises
    [Invalid_argument] when [fluid_threshold <= 0]. *)
val run :
  ?profile:bool ->
  ?horizon:float ->
  ?stats:[ `Exact | `Streaming ] ->
  ?on_record:(Fct.record -> unit) ->
  ?attrib:bool ->
  ?on_attrib:(size_pkts:int -> Delay.record -> unit) ->
  ?series:Series.store * float ->
  ?hybrid:hybrid ->
  ?trace:Trace.t ->
  protocol ->
  Scenario.t ->
  result
