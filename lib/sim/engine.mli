(** Discrete-event simulation engine.

    The engine owns virtual time. Events are thunks scheduled at absolute or
    relative times; [run] executes them in [(time, insertion-order)] order
    until the queue drains, a stop condition triggers, or [stop] is called
    from within an event.

    Fired one-shot events are recycled through an internal pool, so the
    steady-state hot path (schedule, pop, execute) allocates nothing beyond
    the caller's closure. Events whose times arrive in order can bypass the
    heap through {{!lanes}FIFO lanes}.

    Every scheduling function raises [Invalid_argument], naming the value,
    when a time is before [now t] or a delay is negative, and when either is
    NaN. *)

type t

(** A handle that cancels a scheduled event when invoked. Cancelling an
    already-fired or already-cancelled event is a no-op. *)
type cancel = unit -> unit

val create : unit -> t

(** [now t] is the current virtual time in seconds. *)
val now : t -> float

(** [schedule t ~delay f] runs [f] at [now t +. delay]. [delay] must be
    non-negative and not NaN. [label] names the schedule site for
    {!profile}; it is ignored (and costs nothing) unless profiling is on. *)
val schedule : ?label:string -> t -> delay:float -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f] at absolute [time >= now t]. *)
val schedule_at : ?label:string -> t -> time:float -> (unit -> unit) -> unit

(** Like [schedule], returning a cancellation handle. *)
val schedule_cancellable :
  ?label:string -> t -> delay:float -> (unit -> unit) -> cancel

(** {1:lanes FIFO lanes}

    A lane is a ring of pending events whose [(time, seq)] keys are pushed
    in increasing order, so pushing and popping cost O(1) instead of a heap
    sift. Events scheduled at [now +. d] for a constant [d] have this
    property, and so do events pushed in time order ahead of the run. [run]
    fires the smallest of the heap top and every lane head, and lane pushes
    draw their seq from the same counter as heap pushes: the firing order
    is exactly the one {!schedule} and {!schedule_at} would give. A push
    whose time is below its lane's newest entry goes to the heap, so
    correctness never depends on the caller keeping order; only the speed
    does. Lane events cannot be cancelled.

    [run] compares the heap top with the head of every non-empty lane after
    each lane pop, so a run should use a handful of lanes, not one per
    object. *)

type lane

(** [lane t] is a new, empty lane of [t]. *)
val lane : t -> lane

(** [delay_lane t ~delay] is [t]'s lane for events scheduled [delay] after
    [now]: every call with an equal [delay] returns the same lane. *)
val delay_lane : t -> delay:float -> lane

(** [lane_schedule t l ~delay f] runs [f] at [now t +. delay], like
    {!schedule}, queued on [l] when that keeps [l] in order. *)
val lane_schedule :
  ?label:string -> t -> lane -> delay:float -> (unit -> unit) -> unit

(** [lane_schedule_at t l ~time f] runs [f] at absolute [time >= now t],
    like {!schedule_at}, queued on [l] when that keeps [l] in order. *)
val lane_schedule_at :
  ?label:string -> t -> lane -> time:float -> (unit -> unit) -> unit

(** {1 Timers}

    A [timer] is a reschedulable event handle: one callback, at most one
    pending firing. Rescheduling a pending timer supersedes the previous
    deadline in place — the old heap slot goes stale and is reaped lazily
    (the engine compacts the heap when stale slots outnumber live ones), so
    repeated re-arming (RTO resets, pause/unpause, periodic rounds) does
    not grow the heap and allocates no new event record. *)

type timer

(** [timer t f] makes a timer running [f] at each firing. The timer starts
    unscheduled. [label] names the site for {!profile}, as in {!schedule}. *)
val timer : ?label:string -> t -> (unit -> unit) -> timer

(** [timer_schedule t tm ~delay] (re)schedules [tm] to fire at
    [now t +. delay], superseding any pending firing. *)
val timer_schedule : t -> timer -> delay:float -> unit

(** [timer_schedule_at t tm ~time] (re)schedules [tm] to fire at absolute
    [time >= now t], superseding any pending firing. *)
val timer_schedule_at : t -> timer -> time:float -> unit

(** [timer_cancel t tm] unschedules any pending firing. No-op when idle. *)
val timer_cancel : t -> timer -> unit

(** [timer_pending tm] is [true] iff a firing is scheduled. *)
val timer_pending : timer -> bool

(** [run ?until ?max_events t] processes events in order. Stops when the
    queue is empty, when virtual time would exceed [until], or once
    [max_events] queue pops have been spent. The budget counts {e every}
    pop, including cancelled or superseded (dead) slots that are discarded
    without executing: draining dead slots is real work, and counting it
    guarantees [run] terminates within [max_events] iterations even on a
    heap full of dead timers ([events_processed] still reports only
    executed events). When the run covers the whole window — i.e. it was
    not cut short by {!stop} or [max_events] — the clock advances to
    [until] on return, so censoring at [now t] measures against the
    horizon. Events beyond [until] stay queued with their original
    insertion order, making a sequence of chunked [run ~until] calls
    equivalent to one big run. *)
val run : ?until:float -> ?max_events:int -> t -> unit

(** [stop t] makes [run] return after the current event completes. *)
val stop : t -> unit

(** Number of events executed so far (cancelled events are not counted). *)
val events_processed : t -> int

(** Number of events currently pending across the heap and every lane,
    including cancelled-but-unreaped heap slots (lazy compaction may shrink
    this without any event firing). *)
val pending : t -> int

(** {1 Profiling}

    Off by default. When enabled, [schedule*] calls carrying a [?label]
    count executions per site, and [run]
    accumulates CPU time and GC deltas ([Gc.quick_stat] before/after).
    Site counts and peak depth are deterministic; [wall_s] and the GC
    fields depend on process state and must never be folded into
    simulation results that are compared byte-for-byte. *)

type profile = {
  executed : int;  (** same as [events_processed] *)
  peak_heap : int;
      (** max {!pending} observed at any schedule: heap slots plus lane
          entries, tracked whether or not profiling is on *)
  wall_s : float;  (** CPU seconds spent inside [run] (profiling runs only) *)
  minor_words : float;  (** minor-heap words allocated during [run] *)
  promoted_words : float;  (** words promoted to the major heap *)
  major_collections : int;  (** major GC cycles completed during [run] *)
  sites : (string * int) list;
      (** executions per schedule-site label, sorted by label *)
}

val set_profiling : t -> bool -> unit
val profile : t -> profile
