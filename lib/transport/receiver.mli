(** Per-flow receiver: tracks received segments, answers data with
    (cumulative + selective) acks that echo ECN marks, and answers probes
    with probe-acks stating whether the probed segment has arrived. *)

type t

(** [create net ~flow ~ack_tos ()] registers the receiver at [flow.dst].
    [ack_tos] is the priority band stamped on acks (acks are header-only and
    ride the highest band in PASE). [ack_prio] is the pFabric priority for
    acks (default 0 = most important). *)
val create : Net.t -> flow:Flow.t -> ?ack_tos:int -> ?ack_prio:float -> unit -> t

(** First segment index not yet received. *)
val cum_ack : t -> int

(** Unregister the receiver's handler. *)
val stop : t -> unit
