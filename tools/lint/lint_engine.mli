(** Determinism-invariant static analyzer for the PASE simulator: the
    parse tier.

    Parses OCaml sources with compiler-libs and enforces the syntactic
    rule set documented in DESIGN.md ("Determinism invariants"):

    - [no-unseeded-random]: [Random.*] (route randomness through [Rng])
    - [no-wallclock]: [Unix.gettimeofday] / [Sys.time]
    - [no-hash-order]: [Hashtbl.iter] / [Hashtbl.fold] (use [Det_tbl])
    - [no-silent-catchall]: [try ... with _ ->] (or
      [match ... with exception _ ->]) handlers
    - [no-marshal]: [Marshal.*] (route persistence through [Result_codec])
    - [no-obj-magic]: [Obj.magic] anywhere
    - [no-poly-compare-sort]: the polymorphic [compare] passed to a sort
      combinator, bare or eta-expanded [(fun a b -> compare a b)]
    - [no-global-state]: under [lib/], a top-level binding whose
      initialisation builds a [ref], [Hashtbl.create], [Det_tbl.create],
      [Array.make] or [Atomic.make] (run state belongs to the run's values)

    There are no per-file allowlists: every blessed site carries its own
    pragma comment on the same line or the line above:

    {v (* lint: allow <rule> — <justification> *) v}

    or, for a site that is nondeterministic {e by design} (the typed
    tier's determinism-taint pass propagates it to callers):

    {v (* lint: taint <rule> — <justification> *) v}

    A pragma with an unknown rule name or an empty justification is
    itself reported (rule id [bad-pragma]); a justified allow-pragma that
    no longer suppresses anything is reported as [stale-pragma]; a source
    file that fails to parse is reported as [parse-error].

    The typedtree dataflow tier (rules [pool-lifetime], [unit-mismatch],
    [trace-unguarded], [determinism-taint]) lives in {!Lint_flow} and
    shares this module's finding and pragma machinery. *)

type finding = {
  rule : string;  (** rule id, e.g. ["no-hash-order"] *)
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 0-based *)
  message : string;
}

(** The parse-tier rule ids, in reporting order. *)
val rule_ids : string list

(** The typed-tier rule ids (enforced by {!Lint_flow}). *)
val typed_rule_ids : string list

(** The rules accepted by [lint: taint] pragmas. *)
val taintable_rule_ids : string list

(** {1 Pragmas}

    Shared between the two tiers: both consume the same comment syntax,
    and each tier stale-checks only the rules it ran. *)

type pragma_kind = Allow | Taint

type pragma = {
  p_kind : pragma_kind;
  p_rule : string;
  p_known : bool;
  p_justified : bool;
  p_sline : int;  (** line the pragma text starts on (1-based) *)
  p_eline : int;  (** last line of the enclosing comment *)
  mutable p_used : bool;  (** set by {!suppress} when it suppressed *)
}

(** Scan comments (string/char/quoted-string aware) and parse every
    [lint:] pragma, including malformed ones ([p_known = false]). *)
val pragmas_of_source : string -> pragma list

(** [bad-pragma] findings for unknown rules / missing justifications. *)
val bad_pragma_findings : file:string -> pragma list -> finding list

(** Drop findings matched by a justified pragma on the same line or the
    line above, marking those pragmas used. *)
val suppress : pragmas:pragma list -> finding list -> finding list

(** [stale-pragma] findings: justified allow-pragmas among [rules] that
    suppressed nothing. Call after {!suppress}. *)
val stale_pragma_findings :
  file:string -> rules:string list -> pragma list -> finding list

val compare_findings : finding -> finding -> int

(** {1 Entry points} *)

(** [lint_source ~file src] lints the source text [src] with the parse
    tier, attributing findings to [file]. *)
val lint_source : file:string -> string -> finding list

(** [lint_file path] reads and lints [path]. *)
val lint_file : string -> finding list

(** [lint_paths paths] lints every [.ml] file under each path (files are
    taken as-is, directories walked recursively, skipping [_build] and
    dot-directories), in sorted file order. *)
val lint_paths : string list -> finding list

val pp_finding : Format.formatter -> finding -> unit

(** One finding as a JSON object with a ["tier"] tag. *)
val finding_to_json : tier:string -> finding -> string
