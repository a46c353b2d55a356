(** Aggregation of per-flow delay-attribution records ({!Delay.record})
    into per-band, per-component summaries (Welford moments + t-digest
    quantiles + running sums).

    Bands by flow size in segments: ["all"], ["short"] (< 10), ["medium"]
    (10–99), ["long"] (>= 100). Components, in fixed order:
    [serialization], [propagation], [queueing], [arb_wait], [rto_stall],
    plus the whole [fct] aggregated alongside for reconciliation.

    Closure-free, so it survives [Result_codec]'s Marshal round-trip
    across the fork runner. *)

type t

val create : unit -> t
val add : t -> size_pkts:int -> Delay.record -> unit

val flows : t -> int
(** Number of records added. *)

val component_sum : t -> band:string -> component:string -> float
(** Running sum of one component over one band; [nan] for unknown names. *)

val components : string array
(** Component names in JSON emission order. *)

val to_json : t -> string
(** Deterministic JSON: [{"bands":[{"band":..,"flows":..,"components":
    {"serialization":{"count":..,"sum":..,"mean":..,"min":..,"max":..,
    "p50":..,"p90":..,"p99":..},...}},...]}]. Floats as [%.17g], nan as
    [null]; empty components collapse to [{"count":0}]. *)
