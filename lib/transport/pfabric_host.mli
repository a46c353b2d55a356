(** pFabric end-host (Alizadeh et al., SIGCOMM'13): minimal rate control.

    Flows start at a fixed window of one BDP, stamp every packet with the
    flow's remaining size as its in-network priority, and rely on
    {!Pfabric_queue} for scheduling and dropping. Loss recovery uses a small
    RTO; after five consecutive timeouts the flow enters probe mode
    (window 1) until an ack gets through. *)

(** Table 3: init cwnd 38 segments (= BDP), min RTO 1 ms. *)
val conf : ?init_rtt:float -> ?init_cwnd:float -> ?min_rto:float -> unit -> Sender_base.conf

val create :
  Net.t ->
  flow:Flow.t ->
  ?conf:Sender_base.conf ->
  on_complete:(Sender_base.t -> fct:float -> unit) ->
  unit ->
  Sender_base.t
