(** The explicit-rate end host shared by PDQ and D3, the paper's arbitration
    strategy (Table 1): switches grant each flow a rate, and the sender
    paces at the smallest grant on its path.

    Every RTT the host sends a rate-request header to each per-link agent on
    its forward path and applies the path's grant one one-way delay later.
    The two protocols differ only in their {!policy}: what a request
    carries and how an agent orders the flows it grants. *)

(** Per-link flow state: one entry per flow, indexed by flow id and kept in
    an array whose order the policy maintains (PDQ: criticality, D3:
    arrival). *)
module Table : sig
  type 'e t = private {
    capacity_bps : float;
    index : (int, 'e) Hashtbl.t;
    mutable order : 'e array;  (** live entries in [order.(0 .. len-1)] *)
    mutable len : int;
  }

  val create : capacity_bps:float -> 'e t
  val find : 'e t -> flow:int -> 'e option

  (** [append t ~flow e] adds [flow]'s entry [e] at the end of the order. *)
  val append : 'e t -> flow:int -> 'e -> unit

  (** Drop [flow]'s entry, keeping the others in order; a no-op for an
      unknown flow. *)
  val remove : 'e t -> flow:int -> unit

  val flows : 'e t -> int

  (** Drop all flow state (switch crash / link outage); hosts repopulate it
      through their per-RTT refresh headers. *)
  val clear : 'e t -> unit
end

type 'e host = private {
  sender : Sender_base.t;
  agents : 'e Table.t array;  (** the agents of the forward path, in order *)
  grants : float array;  (** the most recent grant of each agent *)
  rtt : float;  (** base RTT: the refresh period *)
  nic_bps : float;  (** line rate: cap on every grant *)
  policy : 'e policy;
  rate : float ref;  (** currently applied rate *)
  stopped : bool ref;
  mutable tick_timer : Engine.timer option;
}

and 'e policy = {
  apply_label : string;  (** profile label of the rate-apply event *)
  tick_label : string;  (** profile label of the refresh timer *)
  request : 'e host -> unit;
      (** refresh the flow's entry at every agent on the path *)
  grant : 'e host -> 'e Table.t -> float;  (** the rate one agent grants *)
  unpause_rtt : bool;
      (** a paused flow's first nonzero grant takes a full extra RTT *)
}

val flow_id : 'e host -> int
val mss_bits : 'e host -> float

(** [start policy net ~flow ~agents ~rtt ~on_complete] creates the
    sender and starts it with its refresh loop. [agents] are the agents of
    every link on the flow's forward path; [rtt] is the base RTT used for
    the refresh period and the rate-application delay. Each refresh counts
    two control messages per agent in the net's {!Counters.t}
    ([ctrl_msgs]). On completion the agents drop the flow one one-way delay
    later. *)
val start :
  'e policy ->
  Net.t ->
  flow:Flow.t ->
  agents:'e Table.t list ->
  rtt:float ->
  on_complete:(Sender_base.t -> fct:float -> unit) ->
  unit
