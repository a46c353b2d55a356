(** Per-run counters used for loss-rate and overhead metrics, plus the
    run's observers, which every emitting layer reaches through them. *)

type t = {
  mutable enqueued_pkts : int;
  mutable enqueued_bytes : int;
  mutable dequeued_pkts : int;
  mutable dequeued_bytes : int;
  mutable dropped_pkts : int;
  mutable dropped_bytes : int;
  mutable dropped_data_pkts : int;  (** drops of [Data] packets only *)
  mutable ecn_marked_pkts : int;
  mutable delivered_pkts : int;
  mutable ctrl_msgs : int;  (** arbitration / explicit-rate control messages *)
  mutable ctrl_lost : int;
      (** control messages lost to injected loss or a crashed arbitrator *)
  mutable stray_pkts : int;  (** packets delivered with no registered handler *)
  mutable blackholed_pkts : int;
      (** packets lost to a down link (in flight at failure, or transmitted
          into the outage) *)
  trace : Trace.t;  (** the run's trace bus *)
  delay : Delay.t;  (** the run's delay-attribution tables *)
}

(** Zeroed counters; [create ()] is an unobserved run. *)
val create : ?trace:Trace.t -> ?delay:Delay.t -> unit -> t

(** Fraction of enqueued data-plane packets that were dropped, in [0, 1]. *)
val loss_rate : t -> float
