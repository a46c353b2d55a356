(** Structured tracing: a per-run event bus with typed events and pluggable
    sinks.

    A bus is a value owned by one run. Its caller builds it once with its
    sinks and filters ({!create}); the run's {!Counters.t} carries it to
    every emitting layer, and events are stamped with the run's own engine
    time. Two simulations in one process therefore keep separate traces,
    and an untraced run holds {!off}.

    Overhead contract: a bus with no sink is off and every instrumentation
    site reduces to one field read ([on bus]) — no event value is
    constructed, nothing is allocated. Guard every call site as

    {[ if Trace.on bus then Trace.emit bus (Trace.Drop { ... }) ]} *)

(** Event kinds, used for filtering and CLI parsing. *)
module Kind : sig
  type t =
    | Enqueue
    | Dequeue
    | Drop
    | Mark
    | Tx
    | Rx
    | Stray
    | Flow_start
    | Flow_finish
    | Flow_timeout
    | Cwnd
    | Rate
    | Queue_assign
    | Arb
    | Arb_alloc
    | Delegate
    | Ctrl
    | Alpha
    | Link_state
    | Blackhole

  val count : int
  val index : t -> int
  val name : t -> string
  val of_name : string -> t option
  val all : t list
end

(** Attachment point of a queue discipline: the directed link draining it.
    Fields are [-1] until [Net.connect] wires the discipline to a node pair. *)
type loc = { mutable from_node : int; mutable to_node : int }

val unattached_loc : unit -> loc

type event =
  | Enqueue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Dequeue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Drop of { pkt : Packet.t; link : int * int; qpkts : int }
  | Mark of { pkt : Packet.t; link : int * int; qpkts : int }
  | Tx of { pkt : Packet.t; link : int * int }
  | Rx of { pkt : Packet.t; node : int }
  | Stray of { pkt : Packet.t; node : int }
  | Flow_start of {
      flow : int;
      src : int;
      dst : int;
      size_pkts : int;
      deadline : float option;
    }
  | Flow_finish of { flow : int; fct : float }
  | Flow_timeout of { flow : int; backoff : int }
  | Cwnd of { flow : int; cwnd : float; ssthresh : float }
  | Rate of { flow : int; rate_bps : float }
  | Queue_assign of { flow : int; queue : int; rref_bps : float }
  | Arb of { link : int * int; delegate : int; flows : int; top_flows : int }
  | Arb_alloc of {
      link : int * int;
      delegate : int;
      flow : int;
      queue : int;
      rref_bps : float;
    }
  | Delegate of { parent : int * int; tor : int; share_bps : float }
  | Ctrl of { flow : int; msgs : int }
  | Alpha of { flow : int; alpha : float }
  | Link_state of { link : int * int; up : bool }
  | Blackhole of { pkt : Packet.t; link : int * int }

val kind_of : event -> Kind.t

val to_json : time:float -> event -> string
(** One JSON object (no trailing newline): [{"t":<float>,"kind":"<name>",...}].
    Floats are printed with [%.17g]; nan/inf become [null]. *)

val to_text : time:float -> event -> string
(** ns-2-style one-liner: packet events lead with the classic op character
    ([+] enqueue, [-] dequeue, [d] drop, [m] mark, [t] tx, [r] receive,
    [?] stray, [b] blackhole); other events lead with the kind name. *)

(** {1 Sinks} *)

type sink = { emit : float -> event -> unit; close : unit -> unit }

val jsonl_sink : out_channel -> sink
(** Writes [to_json] lines. [close] flushes but does not close the channel. *)

val text_sink : out_channel -> sink

type ring

val ring_sink : capacity:int -> ring * sink
(** Bounded in-memory sink keeping the most recent [capacity] events. *)

val ring_contents : ring -> (float * event) list
(** Retained events, oldest first. *)

val ring_length : ring -> int
(** Number of retained events ([<= capacity]). *)

val ring_seen : ring -> int
(** Total events ever delivered to the sink, including evicted ones. *)

val ring_dropped : ring -> int
(** Events evicted to make room: [max 0 (seen - capacity)]. *)

(** {1 The bus} *)

type t

val off : t
(** The bus of an untraced run: no sinks, never emits. *)

val create :
  ?kinds:Kind.t list -> ?flows:int list -> ?links:(int * int) list ->
  sink list -> t
(** [create sinks] is a bus delivering to [sinks], in order; it is on iff
    [sinks] is non-empty. Filters intersect across keys: [kinds] passes only
    those kinds, [flows] only events about a listed flow (flowless events
    such as [Arb], [Delegate] and [Link_state] excluded), [links] only
    events on a listed link (linkless events excluded). An omitted or
    empty filter passes all. Events are stamped 0 until {!with_clock}
    gives the bus a run's clock, as {!Runner.run} does with its engine's. *)

val with_clock : t -> (unit -> float) -> t
(** The same bus — sinks, filters and emitted count shared — stamping
    events from [clock]. {!off} stays off. *)

val on : t -> bool
(** Fast guard: true iff the bus has a sink. *)

val emit : t -> event -> unit
(** Deliver to all sinks if the bus is on and the event passes the filters.
    Call sites must still guard on [on bus] so the event value is only
    constructed when tracing is live. *)

val emitted : t -> int
(** Events that passed the filters and reached the sinks. *)
