(** Algorithm 1 (paper §3.1.1), as a pure function over a priority-sorted
    flow set. Kept separate from {!Arbitrator} state so the algorithm's
    invariants can be property-tested in isolation. *)

type input = {
  flow : int;
  criterion : float;  (** sort key: remaining size (SRPT) or deadline (EDF) *)
  demand_bps : float;  (** max rate the source can use *)
}

type output = {
  out_flow : int;
  queue : int;  (** 0 = highest-priority queue *)
  rref_bps : float;  (** reference rate *)
}

(** [assign ~capacity_bps ~num_queues ~base_rate_bps flows] computes, for
    every flow, its priority queue and reference rate.

    Flows are processed in increasing [(criterion, flow)] order. Let ADH be
    the aggregate demand of strictly higher-priority flows:
    - ADH < C: queue 0 and [rref = min demand (C - ADH)];
    - otherwise queue [floor(ADH/C)] capped at [num_queues - 1], with
      [rref = base_rate_bps] (one packet per RTT).

    Outputs come in that processing order. A list wrapper over
    {!assign_sorted}. *)
val assign :
  capacity_bps:float ->
  num_queues:int ->
  base_rate_bps:float ->
  input list ->
  output list

(** [assign_sorted ~capacity_bps ~num_queues ~base_rate_bps ~demands ~queues
    ~rrefs n] is the same algorithm over the first [n] flows of arrays
    already in priority order: flow [i] has demand [demands.(i)] and is
    assigned [queues.(i)] and [rrefs.(i)]. Allocates nothing. *)
val assign_sorted :
  capacity_bps:float ->
  num_queues:int ->
  base_rate_bps:float ->
  demands:float array ->
  queues:int array ->
  rrefs:float array ->
  int ->
  unit
