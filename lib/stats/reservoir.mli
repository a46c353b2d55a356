(** Seeded reservoir sample: a bounded, uniformly drawn subset of a stream,
    kept as the exact-sample fallback next to the sketch aggregates.

    Algorithm R over an explicit {!Rng.t}: a given [(seed, stream)] pair
    always produces the same sample, so reservoir-bearing results stay
    byte-identical across reruns and across the serial/forked runners. *)

type 'a t

(** [create ~k ~seed] holds at most [k] elements ([Invalid_argument] if
    [k <= 0]). *)
val create : k:int -> seed:int -> 'a t

val add : 'a t -> 'a -> unit

(** Elements currently retained, in slot order (deterministic, not sorted
    and not stream order once the reservoir has overflowed). *)
val sample : 'a t -> 'a list

(** Number of elements offered so far. *)
val seen : 'a t -> int
