(** Int-keyed registry kept sorted by key in a growable array.

    The deterministic alternative to a [Hashtbl] for tables that are
    traversed on a hot path: traversal is by position, [0 .. length - 1],
    which is ascending key order, so it needs no sort ({!Det_tbl}) and
    allocates nothing. Lookup is a binary search. Insertion and removal
    shift the tail, O(n), which suits tables whose keys mostly arrive in
    ascending order (flow ids) or that change far less often than they
    are traversed. *)

type 'a t

(** [create ~dummy ()] is an empty registry. [dummy] fills vacated slots so
    removed values are not retained; no accessor returns it. *)
val create : dummy:'a -> unit -> 'a t

val length : 'a t -> int

(** [get t i] is the value at position [i] (the [i]-th smallest key). *)
val get : 'a t -> int -> 'a

(** [index t k] is the position of key [k], or [-1] if absent. *)
val index : 'a t -> int -> int

(** [add t k v] binds [k] to [v], replacing any previous binding. *)
val add : 'a t -> int -> 'a -> unit

(** [remove_at t i] removes the binding at position [i]; later bindings
    move down one position. *)
val remove_at : 'a t -> int -> unit

(** [remove t k] removes the binding of [k], if any. *)
val remove : 'a t -> int -> unit

val clear : 'a t -> unit
