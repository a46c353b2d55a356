(** The explain layer behind [pase_sim report]: joins one run's result JSON
    with its optional attribution JSONL and fabric-series JSONL spills (and
    optionally a second result to diff against) and renders, as JSON or
    human tables, the p99 flow's delay breakdown, component totals checked
    against the AFCT, top-k hot links/queues, and a protocol-vs-protocol
    attribution diff. Deterministic: equal inputs produce byte-identical
    output. Schema in DESIGN.md §14. *)

type t

val build :
  run:Json.t ->
  ?attrib_lines:Json.t list ->
  ?series_lines:Json.t list ->
  ?vs:Json.t ->
  ?top:int ->
  unit ->
  t
(** Assemble a report from parsed inputs. [top] (default 5) bounds the
    hot-link and hot-queue tables. *)

val of_files :
  result:string ->
  ?attrib:string ->
  ?series:string ->
  ?vs:string ->
  ?top:int ->
  unit ->
  t
(** Like {!build} but reading files: [result]/[vs] are result JSON files,
    [attrib]/[series] are JSONL spills. Raises [Failure] with the offending
    path on unreadable or unparsable input, or on a [result]/[vs] that is
    not an object with a ["version"] field; an unreadable file's message
    and a missing version's also name the argument as the CLI flag
    ([--result], [--attrib], ...). Every file is read before any is
    checked for a version. *)

val to_json : t -> string
(** Single deterministic JSON object:
    [{"report":1,"run":{..},"attribution":{..},"series":{..},"vs":{..}}],
    with the optional sections omitted when their inputs are absent. *)

val print : t -> unit
(** Human-readable tables on stdout. *)
