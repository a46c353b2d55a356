(** 4-ary min-heap keyed by [(time, seq)], used as the simulator's event
    queue. Ties on [time] break on insertion order ([seq]), giving the
    engine FIFO semantics for simultaneous events. Callers keep keys
    unique, so the pop order is fully determined by the keys and does not
    depend on the heap's arity or internal layout.

    The heap is laid out as a structure of arrays: an unboxed [float array]
    of times, an [int array] of seqs, and an [int array] of value slots
    into a value array where each value stays put. Keys never touch the
    OCaml heap after insertion, and sifting moves at most one position per
    level (hole-based, not swap-based) with no pointer store. *)

type 'a t

(** [create ~dummy ()] makes an empty heap. [dummy] fills dead value slots
    so popped values are not retained; it is never returned by any
    accessor. *)
val create : dummy:'a -> unit -> 'a t

(** [add t ~time ~seq v] inserts [v] with key [(time, seq)]. It is inlined
    into its caller, so the key is stored without boxing [time]. *)
val add : 'a t -> time:float -> seq:int -> 'a -> unit

(** [min_time t] is the time key of the minimum element. Unspecified when
    the heap is empty: check {!is_empty} first. *)
val min_time : 'a t -> float

(** [min_seq t] is the seq key of the minimum element. Unspecified when the
    heap is empty: check {!is_empty} first. *)
val min_seq : 'a t -> int

(** [pop_min t] removes and returns the minimum element. The heap must not
    be empty: check {!is_empty} first. *)
val pop_min : 'a t -> 'a

(** [pop t] removes and returns the minimum element with its time, or
    [None] if empty. Convenience wrapper over {!pop_min}. *)
val pop : 'a t -> (float * 'a) option

(** [peek_time t] returns the key of the minimum element without removal. *)
val peek_time : 'a t -> float option

(** [compact t ~keep] drops every element for which [keep ~seq v] is false,
    then restores the heap invariant (Floyd heapify, O(n)). Relative order
    of surviving elements is unchanged because their keys are unchanged.
    When the heap's peak size since the previous [compact] (or since
    creation) is below a quarter of capacity, and capacity exceeds the
    64-entry floor, the SoA backing arrays are reallocated at twice that
    peak (floor 64): a burst's high-water mark is released once a cycle
    no longer needs it, and a heap that refills to the same size between
    compactions keeps its arrays. *)
val compact : 'a t -> keep:(seq:int -> 'a -> bool) -> unit

(** [clear t] removes every element, keeping the backing arrays' capacity
    for reuse. *)
val clear : 'a t -> unit

val size : 'a t -> int

val is_empty : 'a t -> bool

(** Current backing-array capacity in entries (all the SoA arrays share
    it). Exposed for memory accounting and tests. *)
val capacity : 'a t -> int
