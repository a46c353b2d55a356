(** Shared DCTCP-style ECN congestion control (paper §3.2 control laws).

    Maintains the EWMA fraction [alpha] of CE-marked acks per window and
    applies a multiplicative cut at most once per window of data. DCTCP,
    D2TCP and L2DCT differ only in the cut exponent and the additive
    increase weight, supplied as closures. *)

type state

val create_state : unit -> state

(** Current EWMA marking fraction in [0, 1]. *)
val alpha : state -> float

(** [hooks state ~increase_weight ~cut_multiplier] builds sender hooks.

    [increase_weight t] scales congestion-avoidance growth: cwnd increases
    by [w * newly_acked / cwnd] per ack (1.0 = standard).

    [cut_multiplier state t] is the factor applied to cwnd on an ECN-echo
    ack (e.g. [1 - alpha/2] for DCTCP). Applied at most once per window. *)
val hooks :
  state ->
  increase_weight:(Sender_base.t -> float) ->
  cut_multiplier:(state -> Sender_base.t -> float) ->
  Sender_base.hooks

(** {2 Primitives for protocols with bespoke window laws (e.g. PASE)} *)

(** [observe state t ~ecn ~weight] does the per-ack alpha bookkeeping only:
    counts (marked) acks and folds the fraction into alpha once per window
    of data. *)
val observe : state -> Sender_base.t -> ecn:bool -> weight:int -> unit

(** [increase t ~weight ~newly_acked] is the DCTCP window increase: slow
    start below ssthresh (one segment per newly acked segment), then
    [weight t * newly_acked / cwnd] segments per ack. [weight] is read only
    in congestion avoidance. *)
val increase :
  Sender_base.t -> weight:(Sender_base.t -> float) -> newly_acked:int -> unit

(** [try_cut state t ~multiplier] applies [cwnd <- cwnd * multiplier] if no
    cut has happened in the current window of data yet. Returns whether the
    cut was applied. *)
val try_cut : state -> Sender_base.t -> multiplier:float -> bool
