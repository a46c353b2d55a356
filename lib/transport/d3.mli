(** D3 (Wilson et al., SIGCOMM'11): deadline-driven explicit rate control —
    the paper's other arbitration example (Table 1).

    Each RTT a sender asks the routers on its path for the rate that
    finishes its flow exactly at its deadline ([remaining / time-left]);
    routers grant requests greedily in {e arrival order} (FCFS) and split
    the leftover capacity equally among all flows as fair share. Flows
    without deadlines request nothing and live off the fair share. This
    module holds only that policy; the sender is the {!Explicit_rate} host
    PDQ shares, run with {!policy}, and applies each grant one one-way
    delay later.

    The FCFS grant order is D3's published behaviour and its known weakness
    (priority inversion: an early-arriving far-deadline flow can starve a
    late-arriving near-deadline one) — kept deliberately, since PDQ and PASE
    are evaluated against exactly that behaviour. *)

module Router : sig
  type entry
  type t = entry Explicit_rate.Table.t

  val create : capacity_bps:float -> t

  (** [update t ~flow ~request_bps] refreshes a flow's reservation request
      (0 for no-deadline flows). New flows are appended in arrival order. *)
  val update : t -> flow:int -> request_bps:float -> unit

  val remove : t -> flow:int -> unit
  val flows : t -> int

  (** Drop all reservations (router crash / link outage); hosts rebuild
      them with their per-RTT rate requests, which re-register the flows
      in the order they arrive. *)
  val clear : t -> unit

  (** Rate granted to [flow]: its satisfied reservation (FCFS) plus an
      equal share of the unreserved capacity. *)
  val allocation : t -> flow:int -> float
end

(** D3's host policy: each refresh requests the rate that finishes the
    flow at its deadline ([remaining / time-left], capped at the line rate;
    0 without a deadline) from every router on the path. *)
val policy : Router.entry Explicit_rate.policy
