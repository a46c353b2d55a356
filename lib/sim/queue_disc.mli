(** Queue disciplines attached to link transmit sides.

    A discipline owns admission (it may drop on [enqueue]) and scheduling
    (the order [take] returns packets). Drops and ECN marks are recorded
    in the supplied {!Counters.t} and, when tracing is live, emitted on the
    {!Trace} bus tagged with the discipline's {!loc}. *)

type t = {
  enqueue : Packet.t -> unit;
  take : unit -> Packet.t;
      (** removes and returns the next packet to send, or {!Pkt_ring.dummy}
          (compare with [==]) when the queue is empty: the link's per-hop
          path, which allocates no option *)
  dequeue : unit -> Packet.t option;
      (** [take] with [None] for empty. Every discipline builds it with
          {!dequeue_of}, so the two cannot disagree; it stays only for
          callers outside the simulator that match on an option *)
  pkts : unit -> int;  (** packets currently queued *)
  bytes : unit -> int;  (** bytes currently queued *)
  bands : unit -> (int * int) array;
      (** per-band (pkts, bytes) occupancy for banded disciplines
          (priority queues); [[||]] for unbanded ones *)
  drops : unit -> int;
      (** cumulative packets dropped by this discipline since creation
          (admission failures and priority evictions alike) *)
  set_cap_frac : float -> unit;
      (** hybrid coupling: fraction of link capacity left to the packet
          tier (1.0 = no fluid load). Marking disciplines rescale their ECN
          threshold to the residual drain rate; others ignore it. Called
          only at fluid control events, never per packet. *)
  loc : Trace.loc;
      (** the directed link this discipline drains; [Net.connect] fills it
          in so trace events carry the link identity *)
}

(** [droptail counters ~limit_pkts] is a FIFO that drops arrivals once
    [limit_pkts] packets are queued. *)
val droptail : Counters.t -> limit_pkts:int -> t

(** [red_ecn counters ~limit_pkts ~mark_threshold] is a FIFO with DCTCP-style
    marking: an arriving ECN-capable packet is CE-marked when the
    instantaneous queue length is at least [mark_threshold] packets
    (RED with min = max = K, as in the paper's implementation §3.3).
    Non-ECN-capable packets are dropped instead of marked only on overflow. *)
val red_ecn : Counters.t -> limit_pkts:int -> mark_threshold:int -> t

(** Helpers for other disciplines. Each records the event in [counters] and
    emits the corresponding trace event ([qpkts] is the queue depth at the
    moment of the event). *)

val count_drop : Trace.loc -> Counters.t -> qpkts:int -> Packet.t -> unit
val count_enqueue : Trace.loc -> Counters.t -> qpkts:int -> Packet.t -> unit
val count_dequeue : Trace.loc -> Counters.t -> qpkts:int -> Packet.t -> unit

(** [count_mark loc c ~qpkts pkt] CE-marks [pkt], counts it, and traces it. *)
val count_mark : Trace.loc -> Counters.t -> qpkts:int -> Packet.t -> unit

(** [dequeue_of take] is the [dequeue] field of a discipline whose [take]
    is [take]. *)
val dequeue_of : (unit -> Packet.t) -> unit -> Packet.t option

(** [scaled_threshold k frac] is a mark threshold rescaled to a capacity
    fraction: [max 1 (ceil (k * frac))]. Exactly [k] at [frac = 1.0]. *)
val scaled_threshold : int -> float -> int
