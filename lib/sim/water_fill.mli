(** Max-min fair rate allocation by water-filling, the pass behind the
    fluid tier ({!Fluid}).

    Links are numbered [0 .. n_links - 1], flows [0 .. n_flows - 1]; flow
    [i] crosses the links [paths.(i)] and link [l] offers [caps.(l)] bps.
    Each step finds the smallest equal share [rem / cnt] any link can give
    its unfrozen flows, marks every link offering exactly that share as a
    bottleneck, freezes every unfrozen flow crossing a bottleneck at that
    share, and subtracts it along the frozen flows' paths (clamped at 0).
    Bottleneck membership is a snapshot per step, so freezing order inside
    a step cannot change the result.

    Link shares sit in a min-heap that keeps superseded entries and skips
    them when they surface, so a pass costs
    O((flows × path + links) × log links) instead of a rescan of every
    link and flow per step. The result is a function of the inputs only:
    the workspace [t] is reusable scratch, so repeated passes allocate
    nothing once it has grown. *)

type t

val create : unit -> t

(** [run t ~caps ~n_links ~paths ~n_flows] allocates rates. Every link a
    path names must be below [n_links]. *)
val run :
  t -> caps:float array -> n_links:int -> paths:int array array -> n_flows:int -> unit

(** {1 Results of the last {!run}} *)

(** Rate of flow [i], bps. *)
val rate : t -> int -> float

(** Sum of the rates crossing link [l], added in flow order. *)
val link_bps : t -> int -> float

(** Whether link [l] was a bottleneck (froze some flow). *)
val bottleneck : t -> int -> bool
