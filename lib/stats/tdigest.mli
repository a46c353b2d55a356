(** Deterministic merging t-digest (Dunning & Ertl) for bounded-memory
    quantile estimation.

    Values are buffered and periodically compressed into at most
    O(delta) weighted centroids under the arcsine ("k1") scale function,
    which concentrates resolution in the tails. Memory is bounded by the
    compression parameter [delta] and the internal buffer, independent of
    how many values are added.

    {b Error bound.} The quantile-{e rank} error at quantile [q] is bounded
    by [rank_error t q] = max(1/n, 4π·√(q(1−q))/delta): the value returned
    by [quantile t q] is guaranteed to lie between the exact quantiles at
    ranks [q ± rank_error]. (The 4π constant is the conservative single-pass
    merging-digest bound — clusters may reach twice the k1 size limit.)
    With the default [delta = 200] that is ≤ 0.63% of rank at p99 and
    ≤ 0.2% at p99.9, tightening toward the extremes; the median is the
    worst case at ≤ 3.2%.

    {b Determinism.} All state transitions are pure float arithmetic over
    arrays ordered by [Float.compare]; the same insertion sequence yields
    bit-identical digests. Only {!add} changes a digest: queries leave it
    as it was, so its Marshal bytes depend only on the values added. There
    is no randomness anywhere in the structure. *)

type t

(** [create ?delta ()] returns an empty digest. [delta] (default 200) is
    the compression: larger is more accurate and more memory. Raises
    [Invalid_argument] if [delta < 10]. *)
val create : ?delta:float -> unit -> t

(** [add t x] inserts [x] with unit weight. Raises [Invalid_argument] on
    [nan]. Amortised O(log delta); worst case one buffer compression. *)
val add : t -> float -> unit

(** Number of values added. *)
val count : t -> int

val delta : t -> float

(** [quantile t q] with [q] in [0, 1]: an estimate of the [q]-quantile,
    clamped to the exact observed [min, max]. [nan] when empty. Raises
    [Invalid_argument] if [q] is outside [0, 1]. *)
val quantile : t -> float -> float

(** [rank_error t q] is the documented bound on the rank error of
    [quantile t q] (see above); [nan] when empty. *)
val rank_error : t -> float -> float

(** Current centroids as [(mean, weight)] in nondecreasing mean order,
    as if any buffered values were compressed (the digest itself is not
    modified). For tests and diagnostics. *)
val centroids : t -> (float * float) list
