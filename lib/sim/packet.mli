(** Simulated packets.

    Logically, only the fields that switches rewrite (ECN mark) or that the
    sender stamps per transmission (priority, queue band) are mutable; every
    field is physically mutable so dead packets can be recycled through a
    free list ({!free}/{!make}). Treat the others as immutable. *)

type kind =
  | Data  (** payload-carrying segment *)
  | Ack  (** acknowledgement; [ack]/[sack] carry cumulative and selective acks *)
  | Probe  (** header-only loss-recovery probe (PASE §3.2, pFabric probe mode) *)
  | Probe_ack  (** receiver response to a [Probe] *)
  | Ctrl  (** control-plane message (arbitration, PDQ rate updates) *)

type t = {
  mutable id : int;  (** globally unique per engine run *)
  mutable flow : int;  (** flow identifier *)
  mutable src : int;  (** originating host node id *)
  mutable dst : int;  (** destination host node id *)
  mutable kind : kind;
  mutable size : int;  (** bytes on the wire, headers included *)
  mutable seq : int;  (** data: segment index; probe: probed segment index *)
  mutable ack : int;  (** acks: cumulative ack (first unreceived segment index) *)
  mutable sack : int;  (** acks: the specific segment this ack acknowledges, or -1 *)
  mutable prio : float;
      (** in-network priority; lower is more important (pFabric: remaining
          size in segments) *)
  mutable tos : int;  (** priority-queue band index; 0 is the highest band *)
  mutable ecn_capable : bool;
  mutable ecn_ce : bool;  (** congestion-experienced mark, set by queues *)
  mutable ecn_echo : bool;  (** acks: echo of the data packet's CE mark *)
  mutable sent_at : float;  (** time the packet entered the network at its source *)
  mutable enq_at : float;
      (** scratch: time the packet entered its current qdisc, stamped by
          {!Queue_disc.count_enqueue} when the run attributes delay
          (meaningless otherwise) *)
}

(** Header-only sizes in bytes. *)
val header_bytes : int

val ack_bytes : int
val probe_bytes : int

(** [reset_ids ()] restarts the id counter and empties the free list (call
    between independent runs for reproducibility of ids; behaviour never
    depends on ids). The counter and the free list are the last
    process-global run state: the frozen benchmark harness calls [make]
    and [reset_ids] without a run value (ROADMAP item 7). Runs interleaved
    in one process interleave their packet ids. *)
val reset_ids : unit -> unit

val make :
  flow:int ->
  src:int ->
  dst:int ->
  kind:kind ->
  size:int ->
  seq:int ->
  ?ack:int ->
  ?sack:int ->
  ?prio:float ->
  ?tos:int ->
  ?ecn_capable:bool ->
  ?ecn_echo:bool ->
  sent_at:float ->
  unit ->
  t

(** [free pkt] returns a dead packet to the process-wide free list (see
    {!reset_ids}) for reuse by a later {!make}. Only call once the data
    path is completely done with [pkt] (delivered to its final handler, or
    dropped), and never while the run's trace bus is on — trace sinks may
    retain packets past delivery. *)
val free : t -> unit

(** [dummy ()] makes an inert placeholder packet (id -1) without consuming
    an id. Used to fill empty slots in pools and rings; never sent. *)
val dummy : unit -> t

val kind_str : kind -> string
(** Short lowercase name ("data", "ack", ...), used by trace sinks. *)
