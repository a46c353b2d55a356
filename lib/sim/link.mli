(** Unidirectional link: a queue discipline drained at a fixed rate, followed
    by a propagation delay. Store-and-forward: a packet's transmission takes
    [8 * size / rate] seconds, after which it arrives [delay] seconds later
    at the receiving end's [deliver] callback. *)

type t

val create :
  Engine.t ->
  qdisc:Queue_disc.t ->
  rate_bps:float ->
  delay_s:float ->
  ?counters:Counters.t ->
  deliver:(Packet.t -> unit) ->
  unit ->
  t

(** [send t pkt] enqueues [pkt] and starts the transmitter if idle. While the
    link is down packets accumulate in (and may overflow) the qdisc. *)
val send : t -> Packet.t -> unit

val rate_bps : t -> float
val delay_s : t -> float
val qdisc : t -> Queue_disc.t

(** Hybrid coupling: [set_fluid_bps t bps] declares that the fluid tier
    consumes [bps] of this link's capacity (clamped to 98% of line rate).
    The transmitter serializes packets against the residual and the qdisc
    rescales its ECN threshold to the residual drain rate. 0 outside hybrid
    runs — the packet path is then bit-identical to a build without the
    fluid tier. *)
val set_fluid_bps : t -> float -> unit

(** [set_standing_s t s] adds [s] seconds of one-way latency modelling the
    standing queue that fluid flows bottlenecked on this link maintain
    (DCTCP-family congestion control holds roughly the marking threshold of
    backlog, which packet-tier traffic waits behind in the full engine).
    Arrivals stay monotone — a FIFO never reorders — so the term may shrink
    between fluid recomputes without breaking event order. Negative values
    clamp to zero; 0 outside hybrid runs (bit-identical packet path). *)
val set_standing_s : t -> float -> unit

(** Total bytes fully transmitted so far (utilization accounting). *)
val bytes_txed : t -> int

(** [set_up t up] changes the administrative state. Taking the link down
    blackholes the packet being serialized and every in-flight packet
    (senders recover by RTO); bringing it up restarts the transmitter.
    Idempotent. Links start up. *)
val set_up : t -> bool -> unit

val is_up : t -> bool
