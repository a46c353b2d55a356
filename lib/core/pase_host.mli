(** PASE end-host transport (paper §3.2, Algorithm 2).

    Rate control is guided by the arbitration decision: top-queue flows set
    their window straight from the reference rate, intermediate-queue flows
    run DCTCP laws from a window of one, bottom-queue flows stay at one
    segment per RTT, and every flow applies the DCTCP alpha cut on ECN
    echoes. Loss recovery is priority-aware: top-queue flows use a normal
    RTO; lower-queue flows use a long RTO and header-only probes to tell
    "lost" apart from "parked behind higher-priority traffic". On promotion
    to a higher-priority queue the sender drains in-flight packets before
    sending at the new priority (reordering guard). *)

type t

(** [create net hierarchy ~flow ~cfg ~rtt ~nic_bps ~on_complete ()] builds
    the host agent and registers the flow with the arbitration [hierarchy].
    [rtt] is the flow's base RTT (used for the one-packet-per-RTT base rate
    and reference-rate-to-window conversion); [nic_bps] caps the advertised
    demand. *)
val create :
  Net.t ->
  Hierarchy.t ->
  flow:Flow.t ->
  cfg:Config.t ->
  rtt:float ->
  nic_bps:float ->
  ?criterion_override:(unit -> float) ->
  on_complete:(Sender_base.t -> fct:float -> unit) ->
  unit ->
  t

val start : t -> unit
val sender : t -> Sender_base.t

(** Current priority queue (0 = top). *)
val queue : t -> int

(** Current reference rate in bits/s. *)
val rref_bps : t -> float

(** Number of probes this host sent (for the probing ablation). *)
val probes_sent : t -> int
