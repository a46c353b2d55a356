(** PASE parameters (paper Table 3 and §3) and static survey data. *)

type scheduling =
  | Srpt  (** shortest remaining size first *)
  | Edf  (** earliest deadline first *)
  | Task_aware
      (** tasks (e.g. partition-aggregate queries) scheduled FIFO by task
          arrival, all flows of a task sharing one criterion (§3.1.1's
          task-id criterion, after Baraat) *)

type t = {
  num_queues : int;  (** priority queues in switches (default 8) *)
  arb_period : float;  (** seconds between arbitration rounds (≈ 1 RTT) *)
  early_pruning : bool;
  delegation : bool;
  delegation_period : float;  (** virtual-link capacity rebalance interval *)
  local_only : bool;  (** arbitrate access links only (Fig 12a ablation) *)
  use_probes : bool;  (** probe-based loss recovery in low queues (§3.2) *)
  use_ref_rate : bool;  (** guided rate control; false = PASE-DCTCP (Fig 13a) *)
  scheduling : scheduling;
  rto_low : float;  (** min RTO for lower-queue flows (200 ms) *)
  ctrl_loss_prob : float;
      (** probability that one arbitration contact's messages are lost in a
          round (failure injection; soft state + expiry keep the system
          correct) *)
  state_expiry_rounds : int;
      (** arbitrator entries not refreshed for this many rounds are dropped
          (soft-state expiry for dead or unreachable sources) *)
  queue_limit_pkts : int;  (** shared prio-queue buffer (500 pkts) *)
}

val default : t

(** {2 Fixed parameters} *)

(** With [early_pruning], flows outside the top [k] queues stop propagating
    upward (§3.1.2; the paper finds k = 2 the sweet spot). *)
val prune_top_k : int

(** Min RTO for top-queue flows (10 ms). *)
val rto_top : float

(** Arbitrator per-message processing delay (10 us). *)
val ctrl_proc_delay : float

(** Commodity top-of-rack switch survey (paper Table 2):
    (model, vendor, priority queues per interface, ECN support). *)
val switch_survey : (string * string * int * bool) list
