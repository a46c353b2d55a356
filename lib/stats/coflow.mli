(** Coflow (task-group) completion aggregates with all-workers-finish
    semantics: a coflow completes when its last member flow does, so the
    coflow completion time (CCT) is max(start + fct) over the members minus
    the group's first start. A group is censored when any member is; a
    group with a deadline meets it when it completed within the deadline.

    Bounded memory: a Welford accumulator for moments/extremes and a
    t-digest for CCT quantiles. Closure-free (Marshal/fork-safe) like
    {!Attrib}. {!Fct.coflow} builds one from its task-group table in sorted
    task-id order, so t-digest insertion order — and therefore every
    quantile — is byte-stable across runs and processes. *)

type t

val create : unit -> t

(** [observe t ~cct ~width ~censored ~deadline] folds one finished (or
    censored) group in. [width] is the member-flow count; [deadline] is the
    group deadline in seconds, if any. Censored groups contribute to counts
    but not to the CCT moments or quantiles. *)
val observe :
  t -> cct:float -> width:int -> censored:bool -> deadline:float option -> unit

val coflows : t -> int
(** total groups observed (completed + censored) *)

val censored : t -> int

val flows : t -> int
(** member flows across all observed groups *)

val cct_mean : t -> float
val cct_quantile : t -> float -> float
val deadline_met : t -> int
val deadline_total : t -> int

val deadline_met_frac : t -> float
(** [nan] when no group carried a deadline *)

(** Fixed key order, [%.17g] floats (nan/inf → [null]); collapses to
    [{"coflows":0}] when nothing was observed. *)
val to_json : t -> string
