(** PDQ (Hong et al., SIGCOMM'12): preemptive distributed quick flow
    scheduling via explicit rates.

    Every directed link has an {!Arbiter} that keeps per-flow state (sorted
    by the scheduling criterion — remaining size, or deadline when present)
    and allocates the link capacity to the most critical flows; the rest are
    paused (rate 0). This module holds only that policy; the sender is the
    {!Explicit_rate} host D3 shares, run with {!policy}. It refreshes its
    state at every RTT and applies the path's grant one one-way delay
    later, plus a full RTT when it unpauses, which reproduces PDQ's
    flow-switching overhead (≈1–2 RTT per preemption, §2.1 of the paper).

    Early Start is modelled: a flow expected to drain within [es_rtts] RTTs
    does not count against the capacity offered to the next flow in line,
    letting the successor begin before the current flow fully finishes. *)

module Arbiter : sig
  type entry
  type t = entry Explicit_rate.Table.t

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

(** PDQ's host policy: each refresh carries the flow's remaining size,
    deadline and suppressed demand to every arbiter on the path, and a
    paused flow's first nonzero grant takes an extra RTT. *)
val policy : Arbiter.entry Explicit_rate.policy
