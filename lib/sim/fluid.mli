(** Flow-level (fluid) fidelity tier of the hybrid engine.

    Designated flows are not simulated packet by packet: each one is a rate
    share on its routed path, advanced in bulk between control events. Rates
    are the max-min fair (water-filling) allocation over the links the fluid
    flows share, where each link offers the fluid tier a capacity slice
    proportional to its fluid/packet flow mix; the packet-level residual is
    coupled back through {!Link.set_fluid_bps}. Allocations are recomputed
    only at control events — fluid admission, demotion, packet-flow churn on
    a shared link, fault transitions — coalesced per timestamp through a
    zero-delay engine timer, plus a single boundary timer armed at the
    earliest moment any flow's remaining bytes reach the demotion boundary.

    A fluid flow is demoted to packet level when its remaining bytes drop to
    the boundary (so every flow finishes packet-level, with real FCT tail
    dynamics) or when a link on its cached path goes down (faults need
    packet-level loss/RTO behaviour). Demotion hands the runner the settled
    remaining bytes and last allocated rate.

    Determinism: flows are held and traversed in id order, so
    allocations, float-summation order and demotion order are byte-stable
    across runs and processes. The allocation itself is {!Water_fill}. See
    DESIGN.md §15. *)

type t

type stats = {
  admitted : int;  (** flows accepted into the fluid tier (incl. instant demotions) *)
  demotions : int;  (** total demotions to packet level *)
  fault_demotions : int;  (** demotions forced by a link-down on the path *)
  recomputes : int;  (** rate-allocation passes *)
  bytes_advanced : float;  (** bytes advanced analytically, all flows *)
  live : int;  (** flows currently in the fluid tier *)
}

(** [create engine net ~demote_bytes ()] makes an empty fluid tier.
    [demote_bytes] is the demotion boundary (the classifier threshold).
    [standing_of] maps a link rate (bps) to the standing-queue latency the
    fluid flows' congestion control maintains at a bottleneck of that rate
    (DCTCP-family: ~marking-threshold packets; default 0); it is pushed to
    bottleneck links via {!Link.set_standing_s} so packet-tier traffic
    waits behind the queue the full engine would have built.

    [min_interval] (seconds, default 0) floors the spacing between
    water-filling passes: churn marks the tier dirty and the pass fires no
    sooner than [min_interval] after the previous one. Demotions still
    land exactly on time (the boundary timer settles and demotes without
    reallocating), so the only staleness is rates lagging churn by up to
    the interval — the same lag real congestion control shows, which
    re-converges over RTTs. An RTT-scale interval makes allocation cost
    independent of the churn rate. The network must already be
    finalized. *)
val create :
  Engine.t ->
  Net.t ->
  demote_bytes:float ->
  ?standing_of:(float -> float) ->
  ?min_interval:float ->
  unit ->
  t

(** [admit t ~id ~src ~dst ~bytes ~on_demote] places flow [id] in the fluid
    tier with [bytes] to transfer ([infinity] for long-lived flows). The
    path is the same ECMP route the packet engine would hash the flow onto.
    [on_demote] is called exactly once — possibly synchronously, when
    [bytes] is already at or below the boundary — with the settled remaining
    bytes and the last allocated rate (0 if never allocated). *)
val admit :
  t ->
  id:int ->
  src:int ->
  dst:int ->
  bytes:float ->
  on_demote:(remaining_bytes:float -> rate_bps:float -> unit) ->
  unit

(** Packet-level flows sharing the fabric register their path so each link's
    fluid capacity slice tracks the fluid/packet mix. *)
val register_packet : t -> id:int -> src:int -> dst:int -> unit

val unregister_packet : t -> id:int -> unit

(** Fault-plane hook: a link changed administrative state. Down demotes
    every fluid flow whose cached path crosses it (either direction);
    both transitions trigger reallocation. *)
val on_link_change : t -> int -> int -> up:bool -> unit

(** Settle all fluid flows to the current sim time (end-of-run accounting
    for censored flows). *)
val flush : t -> unit

val stats : t -> stats
