(** Per-link arbitrator: soft state about the flows crossing one (real or
    delegated virtual) link, refreshed every arbitration round, plus the
    cached result of the last {!arbitrate} pass. *)

type t

val create :
  ?link:int * int -> ?owner:int -> ?trace:Trace.t -> capacity_bps:float ->
  unit -> t
(** [link] names the (real or virtual) link being arbitrated and [owner]
    the arbitrating delegate's node id; both only feed trace events
    ([(-1, -1)] / [-1] when unknown) on the run's bus [trace] (default
    {!Trace.off}). *)

(** Current capacity (changes for delegated virtual links). *)
val capacity_bps : t -> float

val set_capacity : t -> float -> unit

(** [upsert t ~flow ~criterion ~demand_bps ~now] refreshes a flow's entry. *)
val upsert : t -> flow:int -> criterion:float -> demand_bps:float -> now:float -> unit

val remove : t -> flow:int -> unit
val flows : t -> int
val mem : t -> flow:int -> bool

(** The arbitrating delegate's node id ([-1] if anonymous). *)
val owner : t -> int

(** Number of flows with a cached allocation from the last [arbitrate]. *)
val allocations : t -> int

(** Drop all soft state (flow entries, cached allocations) — the effect of
    a crash of the owning node. Hosts rebuild it via periodic re-requests. *)
val clear : t -> unit

(** Drop entries not refreshed since [now - max_age] (soft-state expiry for
    lost sources). *)
val expire : t -> now:float -> max_age:float -> unit

(** Run Algorithm 1 over the current flow set and cache the results. An
    arbitrator that had no flows at its last pass and has none now does no
    work (its results are already empty), beyond the [arb] trace event. *)
val arbitrate : t -> num_queues:int -> base_rate_bps:float -> unit

(** Cached result of the last [arbitrate] for [flow]: [(queue, rref)]. *)
val cached : t -> flow:int -> (int * float) option

(** {1 Entry handles}

    A flow's entry in one arbitrator, for callers that refresh and read the
    same entries every round without looking them up by flow id. A handle
    stays live until its flow is removed, expired or cleared; after that
    it reads as having no result, and {!enter} makes a new one. *)

type entry

(** A handle that was never live. *)
val no_entry : entry

(** [enter] is {!upsert}, returning the flow's entry. *)
val enter : t -> flow:int -> criterion:float -> demand_bps:float -> now:float -> entry

(** [refresh e] is {!upsert} through a live handle. *)
val refresh : entry -> criterion:float -> demand_bps:float -> now:float -> unit

val live : entry -> bool

(** The entry's cached queue, or [-1] when it has no result (not live, or
    entered since the last pass). *)
val queue : entry -> int

(** The entry's cached reference rate, or [infinity] when it has no
    result. The sentinels are neutral for the [max] of queues and the
    [min] of rates a flow combines over its arbitrators. *)
val rref_bps : entry -> float

(** Number of flows mapped to queues [< k] in the last [arbitrate] pass. *)
val in_top_queues : t -> k:int -> int

(** Sum of the demands of all currently registered flows (bps). *)
val total_demand : t -> float
