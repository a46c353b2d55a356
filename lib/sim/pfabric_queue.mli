(** pFabric switch port queue (Alizadeh et al., SIGCOMM'13).

    Scheduling: dequeue the packet whose flow holds the numerically lowest
    [prio] (most important) anywhere in the buffer, then — for starvation
    avoidance — transmit that flow's {e earliest} buffered segment.

    Dropping: when the buffer is full and the arriving packet has strictly
    lower [prio] (higher importance) than the worst buffered packet, the
    worst buffered packet is evicted; otherwise the arrival is dropped.

    Packets that tie on [(prio, seq)] go out in buffer order, and a removal
    moves the last buffered packet into the freed slot, so the schedule
    depends on buffer positions, not only on arrival order.

    The buffer is tiny in pFabric (≈ 2 × BDP), so linear scans are exact and
    cheap. *)

(** The discipline's [bands] report counts packets and bytes in eight
    telemetry tiers of the continuous [prio] (remaining flow size in
    segments): tier [min 7 (floor (log2 (1 + prio)))], so tier 0 is the
    last in-flight segment and tier 7 holds flows with >= 127 segments
    remaining. *)
val create : Counters.t -> limit_pkts:int -> Queue_disc.t
