(** Per-flow delay attribution.

    Per-run state (like a {!Trace} bus): a run that attributes builds one
    [t] from its engine and its {!Counters.t} carries it to the transports
    and the data path. It decomposes each completed flow's FCT into five
    components with an exact-sum guarantee:

    {v
    serialization +. propagation +. arb_wait +. rto_stall +. queueing = fct
    v}

    evaluated left to right, with float equality. The transports drive a
    per-flow mode machine (in flight / gated on arbitration or a rate grant /
    waiting out a retransmission timer) and the data path reports measured
    per-hop queueing, serialization and propagation delays; at completion the
    in-flight wall time is split proportionally to the measured sums and the
    queueing share absorbs the float residual. See DESIGN.md §14. *)

type record = {
  flow : int;
  fct : float;
  serialization : float;  (** link transmit time across all hops *)
  propagation : float;  (** wire delay across all hops *)
  queueing : float;  (** qdisc residence (absorbs the float residual) *)
  arb_wait : float;  (** blocked on arbitration / rate grants *)
  rto_stall : float;  (** blocked on retransmission timers *)
  timeouts : int;  (** RTO firings over the flow's lifetime *)
}

(** {1 Lifecycle} *)

type t
(** One run's live and finished attribution tables. *)

val off : t
(** Attribution off: every hook is a no-op and {!take} finds nothing. *)

val create : Engine.t -> t
(** Empty tables for a run on this engine, which {!now} reads. *)

val on : t -> bool
(** Cheap guard; all instrumentation must be dominated by [on d = true]. *)

val now : t -> float
(** The run's sim time ([0.] when off). *)

(** {1 Transport hooks} (all no-ops for unknown flow ids) *)

val flow_start : t -> flow:int -> now:float -> gated:bool -> unit
(** Register a flow at its start time. [gated] tells whether the transport
    is blocked on arbitration/pacing before the first send. *)

val on_send : t -> flow:int -> now:float -> unit
(** A data segment entered the network: switch to in-flight mode. *)

val on_activity : t -> flow:int -> now:float -> unit
(** Any packet of the flow arrived back at the sender (ack/probe-ack);
    advances the last-activity watermark used by {!before_timeout}. *)

val before_timeout : t -> flow:int -> now:float -> unit
(** Called when the retransmission timer fires, before recovery: closes the
    current interval, retroactively reclassifying the silent tail of an
    in-flight period as RTO stall. *)

val sync : t -> flow:int -> inflight:int -> gated:bool -> now:float -> unit
(** Reconcile the mode with transport state after an ack or timeout has
    been fully processed. *)

val complete : t -> flow:int -> now:float -> fct:float -> unit
(** Finalize the flow's record; fetch it with {!take}. *)

val take : t -> flow:int -> record option
(** Remove and return the finalized record of a completed flow. *)

(** {1 Data-path hook} (no-op for unknown flow ids) *)

val hop : t -> flow:int -> queue:float -> ser:float -> prop:float -> unit
(** One delivered hop's measured components — qdisc residence, link
    transmit time, wire delay — accumulated with a single lookup. Called
    once per hop at delivery; packets that are dropped or blackholed
    mid-hop contribute nothing to the measured proportions. *)

(** {1 Invariant} *)

val check_sum : record -> bool
(** [check_sum r] is the exact-sum invariant above; always true for records
    produced by {!complete}. *)
