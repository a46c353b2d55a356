(** Minimal JSON reader for [pase_sim report], and the scalar writers
    every hand-written JSON output of the repo shares.

    Parses the repo's own JSON output (results, attribution JSONL, series
    JSONL) back into a tree; the repo carries no JSON library by design.
    Standard RFC 8259 input; numbers are floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-input parse; trailing non-whitespace is an error. *)

(** {1 Accessors} (all total; [None] on shape mismatch) *)

val member : string -> t -> t option
val to_float : t -> float option
val to_string : t -> string option
val to_list : t -> t list option
val float_member : string -> t -> float option
val string_member : string -> t -> string option

(** {1 Writers} *)

val float : float -> string
(** [%.17g], which round-trips doubles; nan and infinities become [null]. *)

val opt_float : float option -> string
(** [None] is [null]. *)

val string : string -> string
(** A quoted JSON string. Quotes, backslashes and control characters are
    escaped; bytes from 0x80 up pass through, so UTF-8 stays UTF-8. *)
