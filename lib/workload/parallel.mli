(** Parallel experiment runner: fans individual {!Runner.run} configurations
    out to a [Unix.fork]-based worker pool and streams the results back over
    pipes (via {!Result_codec}), with an on-disk cache keyed by a digest of
    the full configuration plus the running binary, so re-runs of unchanged
    configurations are free.

    Results come back in input order and are bit-for-bit identical to a
    serial [List.map (Runner.run)] over the same jobs: each simulation is
    seeded and self-contained, so fan-out only changes wall-clock time. *)

(** One simulation: a protocol on a scenario. *)
type job = Runner.protocol * Scenario.t

(** Worker-pool width: the [PASE_JOBS] environment variable if it is set
    and non-empty, otherwise the number of online cores. Raises
    [Invalid_argument] naming the variable when [PASE_JOBS] is not an
    integer >= 1. *)
val default_jobs : unit -> int

(** Cache directory: [PASE_CACHE_DIR] if set ([""], ["0"] and ["none"]
    disable caching), otherwise [".pase-cache"] under the current
    directory. *)
val default_cache_dir : unit -> string option

(** [job_key ?profile ?hybrid proto scenario] is a stable hex digest
    identifying the configuration: protocol (including the full PASE
    parameter set), scenario pattern and workload parameters, seed, fault
    schedule, profiling, hybrid configuration, codec version, and a digest
    of the running executable (so rebuilding the code invalidates the
    cache). *)
val job_key :
  ?profile:bool -> ?hybrid:Runner.hybrid -> Runner.protocol -> Scenario.t -> string

(** [run_jobs jobs_list] executes every job and returns the results in input
    order.

    - [jobs]: worker-pool width (default {!default_jobs}; [1] runs serially
      in-process; [Invalid_argument] below [1]).
    - [cache_dir]: on-disk cache location; [None] disables the cache
      (default {!default_cache_dir}).
    - [profile]: forwarded to {!Runner.run}; profiled results cache under a
      distinct key (their [sched_profile] differs).
    - [hybrid]: forwarded to {!Runner.run}; hybrid-configured results (even
      with [enabled = false] — the classifier tag lands in every record)
      cache under distinct keys per threshold.
    - [on_result i ~cached ~wall r] fires once per job as results become
      available (completion order under parallelism); [cached] tells whether
      the result was served from the cache, [wall] is the worker wall-clock
      in seconds.

    Duplicate configurations in the input are simulated once and the result
    is shared. A worker that dies (non-zero exit, or an unreadable result
    stream) fails the whole call with [Failure]; remaining workers are
    reaped first.

    Every job runs with {!Runner.run}'s defaults otherwise: exact
    statistics, no attribution, no sinks and the default horizon. Runs
    that spill records or attach observers need this process: call
    {!Runner.run} directly for those. *)
val run_jobs :
  ?jobs:int ->
  ?cache_dir:string option ->
  ?profile:bool ->
  ?hybrid:Runner.hybrid ->
  ?on_result:(int -> cached:bool -> wall:float -> Runner.result -> unit) ->
  job list ->
  Runner.result list
