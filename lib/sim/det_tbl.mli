(** Deterministic traversal of [Hashtbl.t].

    [Hashtbl.iter] and [Hashtbl.fold] visit bindings in bucket order, which
    depends on the hash function and table history — iteration order leaks
    into float-summation order, list construction and event scheduling, and
    with it nondeterminism into results that must be byte-identical across
    runs. Every traversal of a hashtable in the simulator goes through this
    module instead: bindings are visited sorted by key.

    The [pase_lint] rule [no-hash-order] enforces this; this module is the
    single allowlisted implementation site.

    Tables are expected to use [Hashtbl.replace] semantics (at most one
    binding per key). If a key has several bindings, all are visited,
    most-recently-added first, adjacent in the sorted order. *)

(** [to_list tbl] is the bindings of [tbl] sorted by key with [cmp]
    (default: [Stdlib.compare]). *)
val to_list : ?cmp:('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list

(** [iter f tbl] applies [f] to every binding, in sorted key order. *)
val iter : ?cmp:('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

(** [fold f tbl init] folds over bindings in sorted key order. Argument
    order mirrors [Hashtbl.fold]. *)
val fold :
  ?cmp:('k -> 'k -> int) -> ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) Hashtbl.t -> 'acc -> 'acc
