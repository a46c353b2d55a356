type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  message : string;
}

let rule_ids =
  [
    "no-unseeded-random";
    "no-wallclock";
    "no-hash-order";
    "no-silent-catchall";
    "no-marshal";
    "no-obj-magic";
    "no-poly-compare-sort";
    "no-global-state";
  ]

(* Rules enforced by the typedtree dataflow tier (lint_flow). The parse
   tier must know them so their pragmas parse, but it neither raises nor
   stale-checks them: only the tier that runs an analysis can tell whether
   its pragma still suppresses something. *)
let typed_rule_ids =
  [ "pool-lifetime"; "unit-mismatch"; "trace-unguarded"; "determinism-taint" ]

(* The nondeterminism sources whose taint the typed tier propagates through
   the call graph. Only these may appear in a [taint] pragma. *)
let taintable_rule_ids = [ "no-unseeded-random"; "no-wallclock"; "no-hash-order" ]

(* ---- comment / pragma scanning ------------------------------------------ *)

type comment = { text : string; sline : int; eline : int }

(* A hand-rolled scanner rather than the compiler lexer: [Lexer.token]
   drops comments unless the full init dance is replayed, and we need
   byte-accurate line spans anyway. Tracks string literals, quoted strings
   ({id|...|id}), char literals (so a double-quote char literal does not
   open a string) and nested comments, both in code and inside comments,
   mirroring the concerns of the real lexer. *)
let scan_comments src =
  let n = String.length src in
  let comments = ref [] in
  let line = ref 1 in
  let i = ref 0 in
  let peek k = if !i + k < n then Some src.[!i + k] else None in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then incr line;
      incr i
    end
  in
  let is_id c = (c >= 'a' && c <= 'z') || c = '_' in
  (* If a quoted-string opener (brace, id, pipe) starts at the cursor,
     return its delimiter id. *)
  let quoted_opener () =
    if peek 0 <> Some '{' then None
    else begin
      let j = ref (!i + 1) in
      while !j < n && is_id src.[!j] do
        incr j
      done;
      if !j < n && src.[!j] = '|' then
        Some (String.sub src (!i + 1) (!j - !i - 1))
      else None
    end
  in
  let skip_quoted id =
    (* Past the opener; consume until the matching pipe-id-brace closer. *)
    let closer = "|" ^ id ^ "}" in
    let len = String.length closer in
    let closed = ref false in
    while (not !closed) && !i < n do
      if !i + len <= n && String.sub src !i len = closer then begin
        for _ = 1 to len do
          advance ()
        done;
        closed := true
      end
      else advance ()
    done
  in
  let skip_string () =
    (* Past the opening quote; consume up to and including the closer. *)
    let closed = ref false in
    while (not !closed) && !i < n do
      match src.[!i] with
      | '\\' ->
          advance ();
          advance ()
      | '"' ->
          advance ();
          closed := true
      | _ -> advance ()
    done
  in
  let skip_char_literal () =
    (* At a ['] that may open a char literal or be a type variable. *)
    match peek 1 with
    | Some '\\' ->
        advance ();
        advance ();
        advance ();
        (* numeric escapes: consume until the closing quote *)
        let closed = ref false in
        while (not !closed) && !i < n do
          if src.[!i] = '\'' then begin
            advance ();
            closed := true
          end
          else advance ()
        done
    | Some _ when peek 2 = Some '\'' ->
        advance ();
        advance ();
        advance ()
    | _ -> advance ()
  in
  while !i < n do
    match src.[!i] with
    | '"' ->
        advance ();
        skip_string ()
    | '\'' -> skip_char_literal ()
    | '{' -> (
        match quoted_opener () with
        | Some id ->
            for _ = 1 to String.length id + 2 do
              advance ()
            done;
            skip_quoted id
        | None -> advance ())
    | '(' when peek 1 = Some '*' ->
        let sline = !line in
        let buf = Buffer.create 64 in
        advance ();
        advance ();
        let depth = ref 1 in
        while !depth > 0 && !i < n do
          if peek 0 = Some '(' && peek 1 = Some '*' then begin
            incr depth;
            Buffer.add_string buf "(*";
            advance ();
            advance ()
          end
          else if peek 0 = Some '*' && peek 1 = Some ')' then begin
            decr depth;
            if !depth > 0 then Buffer.add_string buf "*)";
            advance ();
            advance ()
          end
          else
            match src.[!i] with
            | '"' ->
                let s = !i in
                advance ();
                skip_string ();
                Buffer.add_string buf (String.sub src s (!i - s))
            | '\'' ->
                let s = !i in
                skip_char_literal ();
                Buffer.add_string buf (String.sub src s (!i - s))
            | c ->
                Buffer.add_char buf c;
                advance ()
        done;
        comments :=
          { text = Buffer.contents buf; sline; eline = !line } :: !comments
    | _ -> advance ()
  done;
  List.rev !comments

type pragma_kind = Allow | Taint

type pragma = {
  p_kind : pragma_kind;
  p_rule : string;
  p_known : bool;
  p_justified : bool;
  p_sline : int;
  p_eline : int;
  mutable p_used : bool;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let drop_prefix s k = String.sub s k (String.length s - k)

(* Strip the separator between rule name and justification: spaces plus
   any run of ASCII or typographic dashes (em/en dash UTF-8 bytes). *)
let strip_separator s =
  let sep c = c = ' ' || c = '\t' || c = '-' || c = '\xe2' || c = '\x80'
              || c = '\x93' || c = '\x94' in
  let k = ref 0 in
  while !k < String.length s && sep s.[!k] do
    incr k
  done;
  drop_prefix s !k

(* Pragmas may stack inside one comment, one per line:
   [(* lint: allow r1 — x
        lint: allow r2 — y *)]. Splitting on lines keeps the grammar
   unambiguous (a justification never spans lines). *)
let parse_pragma (c : comment) =
  let lines = String.split_on_char '\n' c.text in
  List.concat_map
    (fun (off, ln) ->
      let t = String.trim ln in
      if not (starts_with ~prefix:"lint:" t) then []
      else
        let sline = c.sline + off in
        let mk kind rest =
          let rule, tail =
            match String.index_opt rest ' ' with
            | None -> (rest, "")
            | Some k -> (String.sub rest 0 k, drop_prefix rest k)
          in
          let known =
            match kind with
            | Allow -> List.mem rule (rule_ids @ typed_rule_ids)
            | Taint -> List.mem rule taintable_rule_ids
          in
          [
            {
              p_kind = kind;
              p_rule = rule;
              p_known = known;
              p_justified = String.trim (strip_separator tail) <> "";
              p_sline = sline;
              p_eline = c.eline;
              p_used = false;
            };
          ]
        in
        let rest = String.trim (drop_prefix t 5) in
        if starts_with ~prefix:"allow " rest || rest = "allow" then
          mk Allow (String.trim (drop_prefix rest 5))
        else if starts_with ~prefix:"taint " rest || rest = "taint" then
          mk Taint (String.trim (drop_prefix rest 5))
        else
          [
            {
              p_kind = Allow;
              p_rule = "";
              p_known = false;
              p_justified = false;
              p_sline = sline;
              p_eline = c.eline;
              p_used = false;
            };
          ])
    (List.mapi (fun i ln -> (i, ln)) lines)

(* ---- AST rules ----------------------------------------------------------- *)

let root_module lid =
  let rec go = function
    | Longident.Lident s -> s
    | Longident.Ldot (l, _) -> go l
    | Longident.Lapply (l, _) -> go l
  in
  go lid

let ident_string lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> root_module lid

(* A pattern that matches every exception: bare [_], possibly behind
   aliases, constraints or or-pattern arms. *)
let rec pattern_is_catchall (p : Parsetree.pattern) =
  match p.Parsetree.ppat_desc with
  | Parsetree.Ppat_any -> true
  | Parsetree.Ppat_alias (q, _) | Parsetree.Ppat_constraint (q, _) ->
      pattern_is_catchall q
  | Parsetree.Ppat_or (a, b) -> pattern_is_catchall a || pattern_is_catchall b
  | _ -> false

let rule_of_ident lid =
  match lid with
  | Longident.Ldot (Longident.Lident "Hashtbl", ("iter" | "fold")) ->
      Some
        ( "no-hash-order",
          "visits bindings in hash-bucket order, which leaks into \
           float-summation / list / scheduling order; use Det_tbl (sorted \
           by key)" )
  | Longident.Ldot (Longident.Lident "Unix", "gettimeofday")
  | Longident.Ldot (Longident.Lident "Sys", "time") ->
      Some
        ( "no-wallclock",
          "wall-clock reads differ across runs; simulation logic must use \
           Engine.now" )
  | Longident.Ldot (Longident.Lident "Obj", "magic") ->
      Some
        ( "no-obj-magic",
          "defeats the type system; keep dummy slots typed (see Eheap's \
           ~dummy parameter) instead" )
  | _ -> (
      match root_module lid with
      | "Random" ->
          Some
            ( "no-unseeded-random",
              "draws from the global, unseeded generator; route randomness \
               through Rng so every stream is seeded and splittable" )
      | "Marshal" ->
          Some
            ( "no-marshal",
              "unversioned binary blobs break cache compatibility silently; \
               route persistence through Result_codec" )
      | _ -> None)

(* The sort combinators whose comparator argument the poly-compare rule
   inspects. *)
let is_sort_fn = function
  | Longident.Ldot
      ( Longident.Lident ("List" | "Array" | "ListLabels" | "ArrayLabels"),
        ("sort" | "stable_sort" | "fast_sort" | "sort_uniq") ) ->
      true
  | _ -> false

(* A bare polymorphic [compare] (or [Stdlib.compare]) passed as a
   comparator — directly, or eta-expanded as [(fun a b -> compare a b)]
   (either argument order; a flipped comparator is still keyed on the
   polymorphic order). Structural compare is not a total order on floats
   (nan compares inconsistently with itself), so a sort keyed on it can
   return different permutations for equal multisets. *)
let is_poly_compare_ident (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Parsetree.Pexp_ident
      {
        txt =
          ( Longident.Lident "compare"
          | Longident.Ldot (Longident.Lident "Stdlib", "compare") );
        _;
      } ->
      true
  | _ -> false

let is_poly_compare (e : Parsetree.expression) =
  let pat_var (p : Parsetree.pattern) =
    match p.Parsetree.ppat_desc with
    | Parsetree.Ppat_var { txt; _ } -> Some txt
    | _ -> None
  in
  let arg_var (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt = Longident.Lident v; _ } -> Some v
    | _ -> None
  in
  if is_poly_compare_ident e then true
  else
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun
        ( Asttypes.Nolabel,
          None,
          pa,
          {
            Parsetree.pexp_desc =
              Parsetree.Pexp_fun (Asttypes.Nolabel, None, pb, body);
            _;
          } ) -> (
        match (pat_var pa, pat_var pb, body.Parsetree.pexp_desc) with
        | ( Some a,
            Some b,
            Parsetree.Pexp_apply
              (f, [ (Asttypes.Nolabel, x); (Asttypes.Nolabel, y) ]) )
          when is_poly_compare_ident f -> (
            match (arg_var x, arg_var y) with
            | Some xa, Some yb -> (xa = a && yb = b) || (xa = b && yb = a)
            | _ -> false)
        | _ -> false)
    | _ -> false

(* The constructors of mutable state that [no-global-state] looks for. *)
let is_state_ctor = function
  | Longident.Lident "ref"
  | Longident.Ldot (Longident.Lident "Stdlib", "ref")
  | Longident.Ldot (Longident.Lident ("Hashtbl" | "Det_tbl"), "create")
  | Longident.Ldot (Longident.Lident ("Array" | "Atomic"), "make") ->
      true
  | _ -> false

(* [no-global-state] covers the simulator library only: tools, benches and
   the CLI may keep process state. *)
let under_lib file = List.mem "lib" (String.split_on_char '/' file)

(* The first state constructor a top-level binding evaluates when its
   module initialises, if any: an application reached without crossing a
   [fun] (a function body runs per call, and so per run). *)
let init_time_state (e : Parsetree.expression) =
  let found = ref None in
  let expr (sub : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_fun _ | Parsetree.Pexp_function _ -> ()
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, _)
      when !found = None && is_state_ctor txt ->
        found := Some txt
    | _ -> Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.Ast_iterator.expr it e;
  !found

let collect_ast_findings ~file ast =
  let acc = ref [] in
  let report rule loc detail =
    let pos = loc.Location.loc_start in
    acc :=
      {
        rule;
        file;
        line = pos.Lexing.pos_lnum;
        col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
        message = detail;
      }
      :: !acc
  in
  let check_ident lid loc =
    match rule_of_ident lid with
    | Some (rule, why) ->
        report rule loc (Printf.sprintf "`%s` %s" (ident_string lid) why)
    | None -> ()
  in
  let catchall loc =
    "catch-all handler silently swallows Out_of_memory / Stack_overflow / \
     Assert_failure; match the exceptions the body can actually raise"
  |> report "no-silent-catchall" loc
  in
  let expr (sub : Ast_iterator.iterator) (e : Parsetree.expression) =
    (match e.Parsetree.pexp_desc with
    | Parsetree.Pexp_ident { txt; loc } -> check_ident txt loc
    | Parsetree.Pexp_apply
        ({ Parsetree.pexp_desc = Parsetree.Pexp_ident { txt; _ }; _ }, args)
      when is_sort_fn txt ->
        List.iter
          (fun ((_, arg) : Asttypes.arg_label * Parsetree.expression) ->
            if is_poly_compare arg then
              report "no-poly-compare-sort" arg.Parsetree.pexp_loc
                (Printf.sprintf
                   "`%s` called with the polymorphic `compare`: not a total \
                    order on floats (nan), raises on functional values, and \
                    hides type changes; pass an explicit comparator \
                    (Float.compare, Int.compare, String.compare, ...)"
                   (ident_string txt)))
          args
    | Parsetree.Pexp_try (_, cases) ->
        List.iter
          (fun (c : Parsetree.case) ->
            if pattern_is_catchall c.Parsetree.pc_lhs then
              catchall c.Parsetree.pc_lhs.Parsetree.ppat_loc)
          cases
    | Parsetree.Pexp_match (_, cases) ->
        List.iter
          (fun (c : Parsetree.case) ->
            match c.Parsetree.pc_lhs.Parsetree.ppat_desc with
            | Parsetree.Ppat_exception p when pattern_is_catchall p ->
                catchall p.Parsetree.ppat_loc
            | _ -> ())
          cases
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  (* [open Random] / [module R = Random] would otherwise hide every use
     from the ident check. *)
  let module_expr (sub : Ast_iterator.iterator) (m : Parsetree.module_expr) =
    (match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_ident { txt; loc } -> (
        match root_module txt with
        | "Random" | "Marshal" -> check_ident txt loc
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.module_expr sub m
  in
  let open_description (sub : Ast_iterator.iterator)
      (o : Parsetree.open_description) =
    (match o.Parsetree.popen_expr.Location.txt with
    | lid -> (
        match root_module lid with
        | "Random" | "Marshal" -> check_ident lid o.Parsetree.popen_loc
        | _ -> ()));
    Ast_iterator.default_iterator.open_description sub o
  in
  let it =
    { Ast_iterator.default_iterator with expr; module_expr; open_description }
  in
  it.Ast_iterator.structure it ast;
  (* Top-level bindings, including those of nested [struct]s. *)
  let rec global_state (items : Parsetree.structure) =
    List.iter
      (fun (item : Parsetree.structure_item) ->
        match item.Parsetree.pstr_desc with
        | Parsetree.Pstr_value (_, vbs) ->
            List.iter
              (fun (vb : Parsetree.value_binding) ->
                match init_time_state vb.Parsetree.pvb_expr with
                | Some ctor ->
                    report "no-global-state" vb.Parsetree.pvb_loc
                      (Printf.sprintf
                         "top-level `%s` is process-global mutable state, \
                          shared by every simulation in the process; make \
                          it per-run state reached through the run's values \
                          (Counters.t, Net.t, Engine.t)"
                         (ident_string ctor))
                | None -> ())
              vbs
        | Parsetree.Pstr_module mb -> module_state mb.Parsetree.pmb_expr
        | _ -> ())
      items
  and module_state (m : Parsetree.module_expr) =
    match m.Parsetree.pmod_desc with
    | Parsetree.Pmod_structure items -> global_state items
    | Parsetree.Pmod_constraint (m, _) -> module_state m
    | _ -> ()
  in
  if under_lib file then global_state ast;
  !acc

(* ---- entry points -------------------------------------------------------- *)

let compare_findings a b =
  compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule)

let pragmas_of_source src =
  List.concat_map parse_pragma (scan_comments src)

let bad_pragma_findings ~file pragmas =
  List.filter_map
    (fun p ->
      if p.p_known && p.p_justified then None
      else
        Some
          {
            rule = "bad-pragma";
            file;
            line = p.p_sline;
            col = 0;
            message =
              (if not p.p_known then
                 match p.p_kind with
                 | Taint when p.p_rule <> "" ->
                     Printf.sprintf
                       "rule %S is not a propagatable nondeterminism source; \
                        `lint: taint` accepts: %s"
                       p.p_rule
                       (String.concat ", " taintable_rule_ids)
                 | _ ->
                     Printf.sprintf "unknown lint rule %S; expected one of: %s"
                       p.p_rule
                       (String.concat ", " (rule_ids @ typed_rule_ids))
               else
                 "pragma has no justification; write `(* lint: allow <rule> \
                  — <reason> *)`");
          })
    pragmas

(* [allow] and [taint] both suppress the finding at the site; [taint]
   additionally marks the enclosing function as nondeterministic for the
   typed tier's propagation pass. Marks matching pragmas used (the input
   to stale-pragma detection). *)
let suppress ~pragmas findings =
  List.filter
    (fun (f : finding) ->
      let matching =
        List.filter
          (fun p ->
            p.p_known && p.p_justified && p.p_rule = f.rule
            && f.line >= p.p_sline
            && f.line <= p.p_eline + 1)
          pragmas
      in
      List.iter (fun p -> p.p_used <- true) matching;
      matching = [])
    findings

(* A justified pragma for one of [rules] that suppressed nothing is dead
   weight: either the violation it excused was fixed (delete the pragma)
   or the pragma drifted away from its site (move it back). Each tier
   stale-checks only the rules it actually ran, so a typed-tier pragma is
   never misreported stale by the parse tier. *)
let stale_pragma_findings ~file ~rules pragmas =
  List.filter_map
    (fun p ->
      if
        p.p_known && p.p_justified && (not p.p_used) && List.mem p.p_rule rules
        (* A taint pragma is a standing declaration about the function, not
           a per-finding waiver: it stays meaningful (the typed tier reads
           it) even on a line the parse tier finds nothing on. *)
        && p.p_kind = Allow
      then
        Some
          {
            rule = "stale-pragma";
            file;
            line = p.p_sline;
            col = 0;
            message =
              Printf.sprintf
                "allow-pragma for %S no longer suppresses anything; delete \
                 it (or move it back to the violating line)"
                p.p_rule;
          }
      else None)
    pragmas

let lint_source ~file src =
  let pragmas = pragmas_of_source src in
  let bad_pragmas = bad_pragma_findings ~file pragmas in
  let ast_findings =
    let lexbuf = Lexing.from_string src in
    Location.init lexbuf file;
    match Parse.implementation lexbuf with
    | ast ->
        (* Stale detection is only meaningful when the rules actually ran
           over a parsed AST. Bind the suppressed findings first: [suppress]
           marks pragmas used, and [@]'s operand order is unspecified. *)
        let kept = suppress ~pragmas (collect_ast_findings ~file ast) in
        kept @ stale_pragma_findings ~file ~rules:rule_ids pragmas
    | exception exn ->
        let line =
          match exn with
          | Syntaxerr.Error err ->
              (Syntaxerr.location_of_error err).Location.loc_start
                .Lexing.pos_lnum
          | _ -> 1
        in
        [
          {
            rule = "parse-error";
            file;
            line;
            col = 0;
            message = Printexc.to_string exn;
          };
        ]
  in
  List.sort compare_findings (bad_pragmas @ ast_findings)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file path = lint_source ~file:path (read_file path)

let rec collect_ml acc path =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "_build" || (name <> "" && name.[0] = '.') then acc
           else collect_ml acc (Filename.concat path name))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let lint_paths paths =
  List.fold_left collect_ml [] paths
  |> List.sort_uniq String.compare
  |> List.concat_map lint_file

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.message

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let finding_to_json ~tier f =
  Printf.sprintf
    "{\"tier\":\"%s\",\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
    (json_escape tier) (json_escape f.rule) (json_escape f.file) f.line f.col
    (json_escape f.message)
