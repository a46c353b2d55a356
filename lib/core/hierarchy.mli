(** PASE's bottom-up arbitration control plane (paper §3.1.2).

    One {!Arbitrator.t} per directed link. Every [arb_period] the hierarchy
    runs a round: each active flow refreshes its state with the arbitrators
    along its path (subject to early pruning), every arbitrator re-runs
    Algorithm 1, and each flow's combined decision — its bottleneck queue
    and minimum reference rate — is delivered to the source after the
    modelled control latency of the farthest arbitrator contacted.

    Contact cost model (arbitrators are co-located with switches):
    - a host's own access links: local, no messages, no latency;
    - a switch-level arbitrator at height [h] above the initiating host:
      2 control messages per round, round-trip latency [2h] link delays;
    - destination-half contacts additionally pay the one-way source to
      destination latency before the source learns the result.

    Early pruning stops contacting higher arbitrators once a flow's queue
    (from the previous round) falls outside the top {!Config.prune_top_k}
    queues.
    Delegation replaces Agg-Core arbitrators with per-ToR virtual links
    whose capacities are rebalanced every [delegation_period]. *)

type t

val create :
  Engine.t ->
  Counters.t ->
  Config.t ->
  Topology.t ->
  base_rate_bps:float ->
  t

(** Begin periodic arbitration rounds. *)
val start : t -> unit

(** Stop scheduling further rounds. *)
val stop : t -> unit

(** [add_flow t ~flow ~criterion ~demand ?unreachable ~apply ()] registers a
    flow. [criterion]/[demand] are sampled every round; [apply] delivers
    each (queue, reference-rate) decision. An immediate local-only decision
    is applied synchronously (flows start without waiting for the network,
    §3.1.2). [unreachable] is called with [true] when the flow tries remote
    contacts and none answers (all crashed or every message lost) — the
    host should fall back to unguided DCTCP rate control — and with [false]
    once a response gets through again. *)
val add_flow :
  t ->
  flow:Flow.t ->
  criterion:(unit -> float) ->
  demand:(unit -> float) ->
  ?unreachable:(bool -> unit) ->
  apply:(queue:int -> rref_bps:float -> unit) ->
  unit ->
  unit

(** Deregister a finished flow from all its arbitrators. *)
val remove_flow : t -> flow_id:int -> unit

(** Rounds executed so far. *)
val rounds : t -> int

(** Number of live (real + virtual) arbitrators — for tests/benches. *)
val arbitrator_count : t -> int

(** The arbitrator of directed link [a -> b], if it exists yet. *)
val arbitrator_of_link : t -> int -> int -> Arbitrator.t option

(** {1 Fault plane}

    Hooks the fault-injection subsystem drives ({!Fault}). A crashed node
    drops all arbitration soft state it owns (the real arbitrators of its
    outgoing links and any delegated virtual arbitrators); while down it
    accepts no refreshes and serves no allocations, so host re-requests
    rebuild its state only after recovery. *)

(** Mark a node crashed, dropping the soft state of every arbitrator it
    owns. Idempotent. *)
val fail_node : t -> int -> unit

(** Mark a crashed node live again. The first recovery starts the
    time-to-first-grant clock read by {!recovery_s}. Idempotent. *)
val recover_node : t -> int -> unit

(** [set_ctrl_loss_override t (Some p)] makes control messages drop with
    probability [p] (superseding [Config.ctrl_loss_prob]) until
    [set_ctrl_loss_override t None]. Sampling uses the hierarchy's own
    seeded stream, so runs replay deterministically. *)
val set_ctrl_loss_override : t -> float option -> unit

(** Seconds from the first node recovery to the first arbitration round in
    which that node served an allocation again; [None] if no recovery
    happened (or none was needed). *)
val recovery_s : t -> float option
