(** Deterministic fault injection.

    A fault plane turns a declarative schedule of events — link outages and
    flaps, node crash/restart, control-plane loss windows — into ordinary
    engine events on a topology. The plane owns no randomness: link and
    crash events fire at fixed virtual times, and control-plane loss only
    sets a probability that the arbitration layer samples from its own
    seeded [Rng] stream. A schedule therefore replays byte-identically
    across serial, parallel and chunked runs.

    Recovery semantics are delegated to callbacks so the simulation core
    stays layered: [Runner] wires [on_crash]/[on_restart] to
    {!Hierarchy.fail_node}/{!Hierarchy.recover_node}, [on_ctrl_loss] to
    {!Hierarchy.set_ctrl_loss_override} and [on_link] to PDQ/D3 arbiter
    state drops; the link data plane ({!Link.set_up}) is driven directly. *)

(** Symbolic node reference, resolved against a {!Topology.t}'s inventory
    arrays ([host0] is [topo.hosts.(0)], etc.). [Node] is a raw node id for
    hand-built networks. *)
type node_ref =
  | Host of int
  | Tor of int
  | Agg of int
  | Core of int
  | Node of int

type event =
  | Link_down of { a : node_ref; b : node_ref; at : float; up_at : float option }
  | Link_flap of {
      a : node_ref;
      b : node_ref;
      at : float;
      down_s : float;  (** hold time down, per flap *)
      up_s : float;  (** hold time up between flaps *)
      count : int;
    }
  | Crash of { node : node_ref; at : float; restart_at : float option }
  | Ctrl_loss of { at : float; until_s : float; prob : float }

type stats = {
  mutable transitions : int;  (** directed-link state changes applied *)
  mutable link_down_events : int;  (** undirected pairs taken down *)
  mutable crash_events : int;
  mutable downtime_s : float;
      (** total link downtime, summed per undirected pair; open intervals
          are closed at {!finish} time *)
}

type t

(** [create topo ?on_crash ?on_restart ?on_ctrl_loss ?on_link events]
    validates the schedule against the topology (node refs must resolve,
    link endpoints must be adjacent, times non-negative, probabilities in
    [0, 1]) and raises [Invalid_argument] otherwise. Callbacks default to
    no-ops. [on_ctrl_loss (Some p)] opens a loss window with probability
    [p]; [on_ctrl_loss None] closes it. *)
val create :
  Topology.t ->
  ?on_crash:(int -> unit) ->
  ?on_restart:(int -> unit) ->
  ?on_ctrl_loss:(float option -> unit) ->
  ?on_link:(int -> int -> up:bool -> unit) ->
  event list ->
  t

(** Schedule every event on the topology's engine. Call once, before
    [Engine.run]. Events in the past fire immediately. *)
val arm : t -> unit

(** Close open link-downtime intervals at the current virtual time. Call
    after the run completes, before reading {!stats}. *)
val finish : t -> unit

val stats : t -> stats

(** Number of events in a schedule (convenience for metrics). *)
val count : event list -> int

(** {1 Textual schedules}

    Grammar: semicolon-separated events with comma-separated [key=value]
    fields —
    [down:a=<node>,b=<node>,at=<s>[,up=<s>]],
    [flap:a=<node>,b=<node>,at=<s>,down=<s>,up=<s>,count=<n>],
    [crash:node=<node>,at=<s>[,restart=<s>]],
    [ctrl:at=<s>,until=<s>,p=<prob>], where [<node>] is [host<i>], [tor<i>],
    [agg<i>], [core<i>] or [node<i>]. *)

val parse : string -> (event list, string) result

(** [parse_fields "k1=v1,k2=v2"] splits a comma-separated [key=value] list,
    in input order. Items are trimmed and empty items skipped; a value may
    itself contain ['=']. The error is the first item without ['=']. The
    CLI's other [key=value] flags share this parser. *)
val parse_fields : string -> ((string * string) list, string) result

val event_to_string : event -> string
(** Canonical rendering in the {!parse} grammar; floats use [%.17g] so the
    string round-trips exactly. *)

val spec_key : event list -> string
(** Canonical rendering of a whole schedule (cache-key contribution): the
    [event_to_string]s joined with [";"]. Empty for the empty schedule. *)
