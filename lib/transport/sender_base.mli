(** Shared sender machinery for window- and rate-based transports.

    The base owns reliability (per-segment state, cumulative + selective
    acks, duplicate-ack fast retransmit, RTO with exponential backoff, RTT
    estimation) and the send loop (ack-clocked by default, paced when the
    protocol supplies a rate). Protocols supply congestion control and
    packet stamping through {!hooks}. *)

type t

type hooks = {
  stamp : t -> Packet.t -> unit;
      (** set [tos]/[prio]/ECN on every outgoing data or probe packet *)
  on_ack : t -> ecn:bool -> newly_acked:int -> unit;
      (** congestion-control reaction to an (s)ack; [ecn] is the echo bit *)
  on_fast_retransmit : t -> unit;
      (** loss inferred from 3 duplicate acks (at most once per window) *)
  on_timeout : t -> [ `Default | `Handled ];
      (** RTO fired. [`Default] runs {!default_timeout_action}; [`Handled]
          means the protocol did its own recovery (e.g. PASE probes). The
          base always backs off and re-arms the timer afterwards. *)
  allow_send : t -> bool;  (** gate for new transmissions (reorder guard) *)
  pacing_rate : t -> float option;
      (** [Some bps]: paced sending at that rate; [None]: ack-clocked *)
  base_rto : t -> float;  (** protocol RTO floor (may vary over time) *)
}

type conf = {
  mss : int;  (** payload bytes per segment *)
  init_cwnd : float;
  max_cwnd : float;
  init_ssthresh : float;
  min_rto : float;
  max_rto : float;
  init_rtt : float;  (** seeds the RTT estimator *)
  ecn_capable : bool;
}

val default_conf : conf

(** Hooks implementing a plain protocol: stamp nothing, constant window,
    default timeout. Building block for real protocols via record update. *)
val default_hooks : hooks

val create :
  Net.t ->
  flow:Flow.t ->
  conf:conf ->
  ?hooks:hooks ->
  on_complete:(t -> fct:float -> unit) ->
  unit ->
  t

(** Register the flow handler and send the initial window. *)
val start : t -> unit

(** Kick the send loop (call after changing cwnd, gates, or pacing rate). *)
val try_send : t -> unit

(** Send a header-only probe for the first unacked segment (stamped via
    [hooks.stamp]). At most one probe is outstanding at a time. *)
val send_probe : t -> unit

(** The standard timeout action: mark all in-flight segments lost, collapse
    cwnd to 1 (ssthresh halved), and retransmit. *)
val default_timeout_action : t -> unit

(** {2 Accessors used by protocol hooks} *)

val net : t -> Net.t
val engine : t -> Engine.t
val trace : t -> Trace.t
val flow : t -> Flow.t
val conf : t -> conf
val cwnd : t -> float
val set_cwnd : t -> float -> unit
val ssthresh : t -> float
val set_ssthresh : t -> float -> unit
val srtt : t -> float
val acked_pkts : t -> int

(** [size - acked], >= 0; huge for long flows. *)
val remaining_pkts : t -> int

(** Highest segment index ever sent + 1. *)
val sent_new_pkts : t -> int

val cum_ack : t -> int
val inflight : t -> int
val completed : t -> bool
val consecutive_timeouts : t -> int
