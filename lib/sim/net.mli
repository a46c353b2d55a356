(** Network glue: nodes, links, static routing, and per-flow delivery.

    Build a network with [add_host]/[add_switch]/[connect], then call
    [finalize] to compute shortest-path routing tables. After that, hosts
    inject packets with [send] and receive them through handlers registered
    with [register_flow]. *)

type t

type node_kind = Host | Switch

val create : Engine.t -> Counters.t -> t
val engine : t -> Engine.t
val counters : t -> Counters.t

val add_host : t -> int
val add_switch : t -> int
val node_kind : t -> int -> node_kind
val node_count : t -> int

(** [connect t a b ~rate_bps ~delay_s ~qdisc] creates the two directed links
    [a -> b] and [b -> a], each with its own queue discipline obtained from
    [qdisc ()]. Must be called before [finalize]. *)
val connect :
  t -> int -> int -> rate_bps:float -> delay_s:float ->
  qdisc:(unit -> Queue_disc.t) -> unit

(** Compute the forwarding table: by BFS, for every node and destination,
    the links to {e all} equal-cost next hops, which a per-flow hash picks
    among (ECMP). {!send}, {!route} and {!path_count} all read this one
    table. Must be called once, after all [connect]s and before any
    [send]; handlers may be registered before or after. *)
val finalize : t -> unit

(** [send t pkt] injects [pkt] at its source host. *)
val send : t -> Packet.t -> unit

(** [register_flow t ~host ~flow f] routes packets of [flow] arriving at
    [host] to [f]. *)
val register_flow : t -> host:int -> flow:int -> (Packet.t -> unit) -> unit

val unregister_flow : t -> host:int -> flow:int -> unit

(** [route t ?flow ~src ~dst ()] is the node path [flow]'s packets take
    from [src] to [dst], inclusive (flows hash onto one of the equal-cost
    shortest paths). *)
val route : t -> ?flow:int -> src:int -> dst:int -> unit -> int list

(** Number of distinct shortest paths between two nodes. *)
val path_count : t -> src:int -> dst:int -> int

(** [link_from t a b] is the directed link [a -> b], if the nodes are
    adjacent. *)
val link_from : t -> int -> int -> Link.t option

(** All directed links as [(from, to, link)]. *)
val links : t -> (int * int * Link.t) list
