(** Growable FIFO ring of packets, the backing store of the droptail/RED
    queues, each {!Prio_queue} band and a link's in-flight pipe.

    Pushing allocates nothing once the ring has grown to its working size
    (capacity doubles on demand, starting from none), and dead slots hold a
    shared dummy packet, so the ring never keeps a departed packet alive. *)

type t

val create : unit -> t
val length : t -> int

(** [push t pkt] appends [pkt] at the tail. The ring takes ownership. *)
val push : t -> Packet.t -> unit

(** [pop t] removes and returns the oldest packet. Raises
    [Invalid_argument] if the ring is empty. *)
val pop : t -> Packet.t

(** [pop_tail t] removes and returns the newest packet. Raises
    [Invalid_argument] if the ring is empty. *)
val pop_tail : t -> Packet.t
