(** Pretty-printing of benchmark series as aligned text tables, matching the
    "one row per x-value, one column per scheme" layout of the paper's
    figures. *)

type t = {
  title : string;
  x_label : string;
  columns : string list;  (** column (scheme) names *)
  rows : (float * float list) list;  (** x value, one y per column *)
}

val make :
  title:string -> x_label:string -> columns:string list ->
  rows:(float * float list) list -> t

(** Render with a given y formatter (defaults to [%.3f]). *)
val print : ?fmt_y:(float -> string) -> t -> unit

(** Render a raw string table (for Tables 1-3). *)
val print_table : title:string -> header:string list -> string list list -> unit

(** {1 Bounded time-series store}

    Backing storage for the fabric sampler ({!Sampler}): a ring of the most
    recent [capacity] (time, metric, value) samples. Every sample is also
    forwarded to the optional [spill] callback on arrival, so a JSONL spill
    sees the full stream even after the in-memory window wraps. *)

type sample = { t : float; metric : string; v : float }
type store

val store : ?capacity:int -> ?spill:(sample -> unit) -> unit -> store
(** Default capacity 65536. Raises [Invalid_argument] on capacity <= 0. *)

val add : store -> t:float -> metric:string -> v:float -> unit

val samples : store -> sample list
(** Retained window, oldest first. *)

val seen : store -> int
(** Total samples ever added. *)

val dropped : store -> int
(** Samples evicted from the in-memory window: [max 0 (seen - capacity)]. *)

val sample_json : sample -> string
(** One JSONL line: [{"t":..,"metric":"..","v":..}], floats as [%.17g],
    nan/inf as [null]. *)
