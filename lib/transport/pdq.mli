(** PDQ (Hong et al., SIGCOMM'12): preemptive distributed quick flow
    scheduling via explicit rates.

    Every directed link has an {!Arbiter} that keeps per-flow state (sorted
    by the scheduling criterion — remaining size, or deadline when present)
    and allocates the link capacity to the most critical flows; the rest are
    paused (rate 0). Senders refresh their state at every RTT and apply the
    allocated rate one RTT later, which reproduces PDQ's flow-switching
    overhead (≈1–2 RTT per preemption, §2.1 of the paper).

    Early Start is modelled: a flow expected to drain within [es_rtts] RTTs
    does not count against the capacity offered to the next flow in line,
    letting the successor begin before the current flow fully finishes. *)

module Arbiter : sig
  type t

  val create : capacity_bps:float -> t

  (** [update t ~flow ~remaining_pkts ~nic_bps ~usable_bps ~deadline]
      inserts or refreshes a flow's entry. [usable_bps] is the flow's
      bottleneck rate on its {e other} links (suppressed demand): this link
      reserves no more than that for the flow, so capacity a flow cannot
      use stays available to the flows behind it. *)
  val update :
    t -> flow:int -> remaining_pkts:int -> nic_bps:float ->
    usable_bps:float -> deadline:float option -> unit

  val remove : t -> flow:int -> unit
  val flows : t -> int

  (** Drop all flow state (switch crash / link outage); hosts repopulate
      it through their per-RTT refresh headers. *)
  val clear : t -> unit

  (** [allocation t ~flow ~rtt ~mss_bits] is the rate granted to [flow],
      0 if paused. *)
  val allocation : t -> flow:int -> rtt:float -> mss_bits:float -> float
end

(** RTTs of lookahead for Early Start. *)
val es_rtts : float

type host

(** [create net ~flow ~arbiters ~rtt ...] — [arbiters] are the arbiters of
    every link on the flow's forward path; [rtt] is the base RTT used for
    the update period and rate-application delay. Control-plane messages
    are counted in the net's {!Counters.t} ([ctrl_msgs]). *)
val create :
  Net.t ->
  flow:Flow.t ->
  arbiters:Arbiter.t list ->
  rtt:float ->
  ?conf:Sender_base.conf ->
  on_complete:(Sender_base.t -> fct:float -> unit) ->
  unit ->
  host

val start : host -> unit
val sender : host -> Sender_base.t

val conf : ?init_rtt:float -> unit -> Sender_base.conf
