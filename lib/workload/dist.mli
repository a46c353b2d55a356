(** Workload distributions with known means (so scenarios can convert an
    offered load into a Poisson arrival rate analytically). *)

type t = {
  sample : Rng.t -> float;
  mean : float;
  name : string;
  icdf : (float -> float) option;
      (** Inverse CDF (quantile function) when the distribution was built
          from an empirical CDF table; [None] for parametric families.
          Clamps its argument to [0, 1]. *)
  points : (float * float) list;
      (** The [(value, cumulative probability)] breakpoints of an empirical
          CDF table, as given to {!piecewise}; [[]] for parametric
          families. *)
}

(** Uniform on [a, b]. *)
val uniform : float -> float -> t

val constant : float -> t

(** Uniform over an explicit choice list (equal weights). *)
val choice : float list -> t

(** [piecewise ~name points] builds a distribution from an empirical CDF
    given as [(value, cumulative probability)] breakpoints, sampled by
    inverse-transform with linear interpolation between breakpoints. The
    first point must have probability 0 and the last probability 1, with
    both coordinates non-decreasing. The mean is the exact mean of the
    interpolated distribution. The segment lookup is a binary search whose
    interpolation arithmetic matches a linear scan bit for bit, so samples
    are byte-stable across table sizes, reruns and forked workers. *)
val piecewise : name:string -> (float * float) list -> t

(** The DCTCP/pFabric "web search" flow-size distribution (bytes):
    mice-heavy with a long multi-megabyte tail. Approximates the published
    CDF with piecewise-linear breakpoints. *)
val web_search_bytes : t

(** The VL2/pFabric "data mining" flow-size distribution (bytes): more than
    half the flows are tiny, most bytes live in >1 MB flows. *)
val data_mining_bytes : t

(** MapReduce-cluster flow sizes (Facebook-style Hadoop trace shape): mostly
    sub-2 KB control flows with a shuffle/output tail into the hundreds of
    megabytes. *)
val hadoop_bytes : t

(** Built-in empirical CDFs by canonical name:
    [websearch], [datamining], [hadoop]. *)
val builtins : (string * t) list

(** [builtin name] looks a built-in CDF up by name, ignoring case, dashes
    and underscores (so ["web-search"], ["websearch"] and ["Web_Search"]
    all resolve). *)
val builtin : string -> t option

(** [of_cdf_points ~name points] validates [(value, cumulative probability)]
    rows and builds the piecewise distribution, as {!piecewise} but with
    [Error] instead of exceptions. A first row with positive mass is
    interpreted as an atom at that value (a zero-probability anchor is
    prepended). Values must be positive and finite, probabilities within
    [0, 1] and non-decreasing, and the last probability exactly 1. *)
val of_cdf_points : name:string -> (float * float) list -> (t, string) result

(** [of_cdf_file path] parses a whitespace-separated two-column
    ["<bytes> <cum-prob>"] table ([#] comments and blank lines ignored) and
    builds the distribution via {!of_cdf_points}. Errors carry the file name
    and line number. *)
val of_cdf_file : string -> (t, string) result

val sample_int : t -> Rng.t -> int
