(** Flow-completion-time collection.

    Two storage modes behind one interface:

    - {b exact} ({!create}, the default): every record is retained and each
      metric is computed from the full sample, byte-identical to the
      historical behaviour;
    - {b streaming} ({!create_streaming}): constant memory in the flow
      count. Means/variances are exact ({!Welford}), quantiles come from a
      {!Tdigest} with the documented rank-error bound
      ({!quantile_rank_error}), deadline aggregates are exact, and a
      seeded {!Reservoir} of whole records is retained as the exact-sample
      fallback ({!records} returns it).

    Both modes also keep one task-group table (first member start, last
    member finish, member count, any member censored, min member deadline
    per task id), the single source of {!task_completion_times} and
    {!coflow}; its memory is bounded by the task count.

    Both modes are deterministic and free of closures, so a collection
    survives [Result_codec]'s serialisation in either mode. *)

type record = {
  flow : int;
  size_pkts : int;
  start_time : float;
  fct : float;  (** seconds; for censored flows, time until the horizon *)
  deadline : float option;  (** relative deadline, if any *)
  censored : bool;  (** did not finish before the simulation horizon *)
  ideal : float option;
      (** the flow's zero-load FCT (base RTT + serialization), if known *)
  task : int option;  (** task (query) id, for task-completion metrics *)
  fluid : bool;
      (** hybrid fidelity tag: the classifier marked this flow
          fluid-eligible (part of its bytes may have been advanced
          analytically). Always [false] outside hybrid-configured runs. *)
}

type t

(** Exact collection: retains every record. *)
val create : unit -> t

(** Streaming collection: bounded memory. [reservoir] (default 2048) is the
    record-sample capacity, [delta] (default 200) the t-digest compression,
    [seed] the reservoir seed. *)
val create_streaming :
  ?reservoir:int -> ?delta:float -> ?seed:int -> unit -> t

val add :
  t ->
  flow:int ->
  size_pkts:int ->
  start_time:float ->
  fct:float ->
  ?deadline:float ->
  ?censored:bool ->
  ?ideal:float ->
  ?task:int ->
  ?fluid:bool ->
  unit ->
  unit

(** [add] with the record built by the caller (the runner uses this so it
    can also spill the record to a streaming sink). *)
val add_record : t -> record -> unit

(** Exact mode: every record, in insertion order. Streaming mode: the
    reservoir's retained sample, sorted by flow id. *)
val records : t -> record list

val count : t -> int
val censored_count : t -> int

(** FCTs (seconds) of completed, non-censored flows. Streaming mode:
    drawn from the reservoir sample, not the full population. *)
val completed_fcts : t -> float list

(** Average FCT over non-censored flows (seconds); [nan] if none
    completed. Exact in both modes (streaming uses Welford). *)
val afct : t -> float

(** [percentile t p] over non-censored flows; [nan] if none completed
    (e.g. an all-censored high-load run). Exact mode: nearest rank.
    Streaming mode: t-digest estimate, within {!quantile_rank_error} of
    the exact rank. Raises [Invalid_argument] if [p] is outside
    [0, 100]. *)
val percentile : t -> float -> float

(** [packet_tier_percentile t p] over completed flows the classifier left
    entirely at packet level ([not fluid]); [nan] if there are none. The
    hybrid accuracy metric: the tag follows the classifier decision, not
    engine behaviour, so a hybrid run and a pure packet run with the same
    threshold cut the identical subset. Streaming mode estimates from the
    reservoir sample. *)
val packet_tier_percentile : t -> float -> float

(** [cdf ?points t]: the completed-FCT distribution at [points] evenly
    spaced quantiles, nearest-rank in exact mode and sketch-interpolated
    in streaming mode; [[]] if no flow completed. *)
val cdf : ?points:int -> t -> (float * float) list

(** The rank-error bound on [percentile t p]: [0.] in exact mode, the
    t-digest bound (see {!Tdigest.rank_error}) in streaming mode ([nan]
    if empty). *)
val quantile_rank_error : t -> float -> float

(** Fraction of deadline-carrying flows that finished within their deadline
    (censored flows count as missed). [nan] if no flow had a deadline.
    Exact in both modes. *)
val deadline_met_fraction : t -> float

(** Average FCT of completed flows whose size (in segments) lies in
    [lo, hi). [nan] if the bucket is empty. Streaming mode: estimated from
    the reservoir sample. *)
val bucket_afct : t -> lo:int -> hi:int -> float

(** Number of completed flows in the size bucket [lo, hi). Streaming mode:
    a reservoir-sample count, not a population count. *)
val bucket_count : t -> lo:int -> hi:int -> int

(** Mean slowdown (FCT / zero-load FCT) over completed flows that carry an
    [ideal]; [nan] if none do. Exact in both modes. *)
val mean_slowdown : t -> float

(** 99th-percentile slowdown; [nan] if no flow carries an [ideal].
    Streaming mode: t-digest estimate. *)
val p99_slowdown : t -> float

(** Completion time of each task (last member finish minus first member
    start), over tasks with no censored member, in descending task-id
    order. Exact in both modes. *)
val task_completion_times : t -> float list

(** The task groups folded into a {!Coflow} aggregate in ascending task-id
    order (all-workers-finish: CCT = last member finish − first member
    start, clamped at 0; the group deadline is the min over its members);
    [None] when no record carried a task id. Exact in both modes. *)
val coflow : t -> Coflow.t option

(** Sketch parameters of a streaming collection, for result export. *)
type sketch_info = {
  sk_delta : float;
  sk_centroids : int;
  sk_reservoir_len : int;
  sk_reservoir_seen : int;
}

(** [None] in exact mode. *)
val sketch_info : t -> sketch_info option

