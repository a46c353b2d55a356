(** Online mean/variance accumulator (Welford's algorithm).

    Constant memory in the sample count, numerically stable, and
    deterministic: feeding the same values in the same order always yields
    bit-identical state. *)

type t

val create : unit -> t

(** [add t x] folds [x] into the accumulator. Raises [Invalid_argument] on
    [nan] — a silent nan would poison the mean irrecoverably. *)
val add : t -> float -> unit

val count : t -> int

(** Running mean; [nan] when empty. *)
val mean : t -> float

(** Population variance (M2/n); [nan] when empty. *)
val variance : t -> float

(** Smallest value seen; [nan] when empty. *)
val min : t -> float

(** Largest value seen; [nan] when empty. *)
val max : t -> float
