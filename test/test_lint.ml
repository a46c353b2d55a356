(* pase_lint, both tiers.

   Parse tier: each syntactic rule fires exactly once on its fixture,
   pragmas suppress (with a justification) or are themselves flagged,
   and stale pragmas are reported. Typed tier: the four dataflow
   analyses run over fixtures typechecked in-process against the same
   compiler-libs this binary links, driven through the same
   [Lint_flow.analyze] pipeline (pragma suppression included) as
   `pase_lint --typed-only`. Finally, the shipped tree must be
   parse-tier clean (the typed tier needs cmts; CI runs it after
   `dune build @check`). *)

let rules fs = List.map (fun f -> f.Lint_engine.rule) fs
let lint src = Lint_engine.lint_source ~file:"fixture.ml" src

let check_rules msg expected src =
  Alcotest.(check (list string)) msg expected (rules (lint src))

(* ---- parse tier: rules ---------------------------------------------------- *)

let test_clean () =
  check_rules "no findings on clean code" []
    {|let f h = Hashtbl.find_opt h 0
let g h k v = Hashtbl.replace h k v
let s xs = List.fold_left ( +. ) 0. xs|}

let test_unseeded_random () =
  check_rules "Random.* flagged" [ "no-unseeded-random" ]
    {|let x () = Random.int 5|}

let test_wallclock () =
  check_rules "Unix.gettimeofday flagged" [ "no-wallclock" ]
    {|let t () = Unix.gettimeofday ()|};
  check_rules "Sys.time flagged" [ "no-wallclock" ] {|let t () = Sys.time ()|}

let test_hash_order () =
  check_rules "Hashtbl.fold flagged" [ "no-hash-order" ]
    {|let f h = Hashtbl.fold (fun k _ acc -> k :: acc) h []|};
  check_rules "Hashtbl.iter flagged" [ "no-hash-order" ]
    {|let f h = Hashtbl.iter (fun _ _ -> ()) h|};
  check_rules "Det_tbl not flagged" []
    {|let f h = Det_tbl.fold (fun k _ acc -> k :: acc) h []|}

let test_silent_catchall () =
  check_rules "try-with wildcard flagged" [ "no-silent-catchall" ]
    {|let f g = try g () with _ -> 0|};
  check_rules "match-exception wildcard flagged" [ "no-silent-catchall" ]
    {|let f g = match g () with v -> v | exception _ -> 0|};
  check_rules "explicit handler not flagged" []
    {|let f g = try g () with Not_found -> 0|}

let test_marshal () =
  check_rules "Marshal flagged" [ "no-marshal" ]
    {|let s x = Marshal.to_string x []|}

let test_obj_magic () =
  check_rules "Obj.magic flagged" [ "no-obj-magic" ] {|let c x = Obj.magic x|};
  check_rules "other Obj.* not flagged" [] {|let r x = Obj.repr x|}

let test_poly_compare_sort () =
  check_rules "List.sort compare flagged" [ "no-poly-compare-sort" ]
    {|let f xs = List.sort compare xs|};
  check_rules "Array.sort Stdlib.compare flagged" [ "no-poly-compare-sort" ]
    {|let f a = Array.sort Stdlib.compare a|};
  check_rules "List.sort_uniq compare flagged" [ "no-poly-compare-sort" ]
    {|let f xs = List.sort_uniq compare xs|};
  check_rules "Array.stable_sort compare flagged" [ "no-poly-compare-sort" ]
    {|let f a = Array.stable_sort compare a|};
  check_rules "ListLabels.stable_sort ~cmp:compare flagged"
    [ "no-poly-compare-sort" ]
    {|let f xs = ListLabels.stable_sort ~cmp:compare xs|};
  check_rules "explicit comparator not flagged" []
    {|let f xs = List.sort Float.compare xs
let g a = Array.sort Int.compare a
let h rows = List.sort (List.compare String.compare) rows|}

let test_global_state () =
  let lint_lib src = rules (Lint_engine.lint_source ~file:"lib/sim/x.ml" src) in
  let check msg expected src =
    Alcotest.(check (list string)) msg expected (lint_lib src)
  in
  check "top-level ref flagged" [ "no-global-state" ] {|let n = ref 0|};
  check "each constructor flagged"
    [
      "no-global-state"; "no-global-state"; "no-global-state";
      "no-global-state"; "no-global-state";
    ]
    {|let h : (int, int) Hashtbl.t = Hashtbl.create 8
let d = Det_tbl.create 8
let a = Array.make 4 0.
let c = Atomic.make 0
let r = Stdlib.ref []|};
  check "nested in the initialiser flagged" [ "no-global-state" ]
    {|let st = (ref 0, 1)|};
  check "nested struct flagged" [ "no-global-state" ]
    {|module M = struct let tbl = Hashtbl.create 8 end|};
  check "under a function not flagged" []
    {|let create () = ref 0
let f = fun n -> Array.make n 0
let g = function 0 -> Hashtbl.create 1 | n -> Hashtbl.create n|};
  check "local binding not flagged" []
    {|let f x = let r = ref x in incr r; !r|};
  check "pragma suppresses" []
    {|(* lint: allow no-global-state — fixture *)
let n = ref 0|};
  Alcotest.(check (list string)) "outside lib/ not flagged" []
    (rules (lint {|let n = ref 0|}))

let test_poly_compare_eta () =
  check_rules "eta-expanded compare flagged" [ "no-poly-compare-sort" ]
    {|let f xs = List.sort (fun a b -> compare a b) xs|};
  check_rules "flipped eta-expansion flagged" [ "no-poly-compare-sort" ]
    {|let f xs = List.sort (fun a b -> compare b a) xs|};
  check_rules "eta-expanded Stdlib.compare in sort_uniq flagged"
    [ "no-poly-compare-sort" ]
    {|let f xs = List.sort_uniq (fun a b -> Stdlib.compare a b) xs|};
  check_rules "eta-expansion of a typed comparator not flagged" []
    {|let f xs = List.sort (fun a b -> Float.compare a b) xs|};
  (* A named comparator that happens to wrap `compare`, or `compare` used
     outside a sort, is out of the rule's scope. *)
  check_rules "compare outside a sort not flagged" []
    {|let cmp a b = compare a b
let f xs = List.sort cmp xs
let eq x y = compare x y = 0|}

let test_mentions_in_comments_and_strings () =
  check_rules "comments and strings are not code" []
    {|(* Hashtbl.fold would be bad; so would Random.int *)
let doc = "call Hashtbl.fold or try ... with _ -> here"|}

(* ---- parse tier: pragmas -------------------------------------------------- *)

let test_pragma_same_line () =
  check_rules "trailing pragma suppresses" []
    {|let f h = Hashtbl.fold (fun k _ a -> k :: a) h [] (* lint: allow no-hash-order — test fixture *)|}

let test_pragma_previous_line () =
  check_rules "pragma on the line above suppresses" []
    {|(* lint: allow no-hash-order — test fixture *)
let f h = Hashtbl.iter (fun _ _ -> ()) h|}

let test_pragma_two_rules_one_line () =
  (* Two violations on one line need two pragma lines; both may share one
     comment (the grammar splits on lines). *)
  check_rules "stacked pragmas suppress two rules on one line" []
    {|(* lint: allow no-hash-order — test fixture
   lint: allow no-unseeded-random — test fixture *)
let f h = Hashtbl.iter (fun k _ -> ignore (Random.int k)) h|};
  check_rules "one pragma leaves the other rule firing"
    [ "no-unseeded-random" ]
    {|(* lint: allow no-hash-order — test fixture *)
let f h = Hashtbl.iter (fun k _ -> ignore (Random.int k)) h|}

let test_pragma_in_functor_body () =
  check_rules "pragma inside a functor body suppresses" []
    {|module F (X : sig val h : (int, int) Hashtbl.t end) = struct
  (* lint: allow no-hash-order — test fixture *)
  let f () = Hashtbl.iter (fun _ _ -> ()) X.h
end|};
  check_rules "functor body without pragma still fires" [ "no-hash-order" ]
    {|module F (X : sig val h : (int, int) Hashtbl.t end) = struct
  let f () = Hashtbl.iter (fun _ _ -> ()) X.h
end|}

let test_pragma_wrong_rule () =
  (* The wrong-rule pragma suppresses nothing, so it is also stale. *)
  check_rules "pragma for another rule does not suppress"
    [ "stale-pragma"; "no-hash-order" ]
    {|(* lint: allow no-wallclock — wrong rule *)
let f h = Hashtbl.iter (fun _ _ -> ()) h|}

let test_pragma_out_of_range () =
  check_rules "pragma two lines up does not suppress"
    [ "stale-pragma"; "no-hash-order" ]
    {|(* lint: allow no-hash-order — too far away *)

let f h = Hashtbl.iter (fun _ _ -> ()) h|}

let test_pragma_unknown_rule () =
  check_rules "unknown rule name is flagged" [ "bad-pragma" ]
    {|(* lint: allow no-such-rule — whatever *)
let x = 1|}

let test_pragma_missing_reason () =
  check_rules "justification is mandatory"
    [ "bad-pragma"; "no-hash-order" ]
    {|(* lint: allow no-hash-order *)
let f h = Hashtbl.iter (fun _ _ -> ()) h|}

let test_pragma_stale () =
  (* Regression: the stale check must run *after* suppression has marked
     pragmas used — a pragma that suppresses is never stale... *)
  check_rules "suppressing pragma is not reported stale" []
    {|(* lint: allow no-marshal — test fixture *)
let s x = Marshal.to_string x []|};
  (* ...and a justified pragma whose violation was fixed is dead weight. *)
  check_rules "orphaned pragma is stale" [ "stale-pragma" ]
    {|(* lint: allow no-marshal — the violation below was deleted *)
let x = 1|}

let test_parse_error () =
  check_rules "unparsable source is reported" [ "parse-error" ]
    {|let f = (|}

(* ---- typed tier: fixture harness ------------------------------------------ *)

(* Typecheck a fixture against the stdlib of the compiler-libs this test
   links, then push it through the same driver pipeline as
   `pase_lint --typed-only` (all four analyses + pragma suppression +
   stale-pragma detection). Fixtures stub [Packet]/[Trace] locally; the
   analyses match on the trailing components of paths, so the stubs are
   indistinguishable from the simulator's unwrapped modules. *)
let typecheck src =
  let lexbuf = Lexing.from_string src in
  Location.init lexbuf "fixture.ml";
  let ast = Parse.implementation lexbuf in
  Compmisc.init_path ();
  let env = Compmisc.initial_env () in
  match Typemod.type_structure env ast with
  | str, _, _, _, _ -> str
  | exception exn ->
      Alcotest.failf "fixture does not typecheck: %s"
        (Printexc.to_string exn)

let typed_rules src =
  rules
    (Lint_flow.analyze
       [
         Lint_flow.input_of_typed ~src_file:"fixture.ml" ~source:(Some src)
           (typecheck src);
       ])

let check_typed msg expected src =
  Alcotest.(check (list string)) msg expected (typed_rules src)

let packet_stub =
  {|module Packet = struct
  type t = { mutable size : int }
  let free (_ : t) = ()
end
|}

(* ---- typed tier: pool lifetimes ------------------------------------------- *)

let test_flow_use_after_free () =
  check_typed "read after free flagged" [ "pool-lifetime" ]
    (packet_stub ^ {|let f p = Packet.free p; p.Packet.size|});
  check_typed "double free flagged" [ "pool-lifetime" ]
    (packet_stub ^ {|let f p = Packet.free p; Packet.free p|});
  check_typed "free on one branch taints the join" [ "pool-lifetime" ]
    (packet_stub
   ^ {|let f c p = (if c then Packet.free p); ignore (p : Packet.t)|});
  check_typed "use before free is fine" []
    (packet_stub ^ {|let f p = ignore p.Packet.size; Packet.free p|})

let test_flow_interprocedural_free () =
  (* [discard] forwards its parameter to [Packet.free]; the summary pass
     must treat it as freeing so the use in [f] is flagged. *)
  check_typed "use after call to a freeing wrapper flagged"
    [ "pool-lifetime" ]
    (packet_stub
   ^ {|let discard p = Packet.free p
let f p = discard p; p.Packet.size|})

let test_flow_escape () =
  check_typed "store into a mutable field flagged" [ "pool-lifetime" ]
    (packet_stub
   ^ {|type slot = { mutable cur : Packet.t }
let park s p = s.cur <- p|});
  check_typed "push into a container flagged" [ "pool-lifetime" ]
    (packet_stub ^ {|let park q (p : Packet.t) = Queue.push p q|});
  check_typed "Some-wrapped array store flagged" [ "pool-lifetime" ]
    (packet_stub ^ {|let park a (p : Packet.t) = a.(0) <- Some p|});
  check_typed "closure deferred via schedule flagged" [ "pool-lifetime" ]
    (packet_stub
   ^ {|let defer schedule (p : Packet.t) = schedule (fun () -> ignore p)|});
  (* Clearing a slot with the pool's dummy sentinel is the blessed idiom. *)
  check_typed "dummy-sentinel store exempt" []
    (packet_stub
   ^ {|type slot = { mutable cur : Packet.t }
let dummy = { Packet.size = 0 }
let clear s = s.cur <- dummy|})

let test_flow_pool_pragma () =
  check_typed "allow pragma suppresses an ownership transfer" []
    (packet_stub
   ^ {|(* lint: allow pool-lifetime — test fixture: ownership transfers *)
let park q (p : Packet.t) = Queue.push p q|});
  check_typed "orphaned typed-tier pragma is stale" [ "stale-pragma" ]
    (packet_stub
   ^ {|(* lint: allow pool-lifetime — nothing left to excuse *)
let x = 1|})

(* ---- typed tier: units of measure ----------------------------------------- *)

let test_flow_units () =
  check_typed "adding seconds to bits/sec flagged" [ "unit-mismatch" ]
    {|let f (deadline_s : float) (rate_bps : float) = deadline_s +. rate_bps|};
  check_typed "comparing time to bytes flagged" [ "unit-mismatch" ]
    {|let f (fct : float) (data_bytes : float) = fct < data_bytes|};
  check_typed "same dimension is fine" []
    {|let f (start_s : float) (end_s : float) = end_s -. start_s|};
  (* Multiplication legitimately changes dimension: bps * s = bits. *)
  check_typed "products are dimensionless to the checker" []
    {|let f (x_bytes : float) (rate_bps : float) (dur_s : float) =
  x_bytes +. (rate_bps *. dur_s /. 8.)|}

let test_flow_units_intermediate () =
  (* An unsuffixed let-binding inherits the dimension of its initializer,
     so one intermediate doesn't launder a mismatch. *)
  check_typed "dimension tracked through a let intermediate"
    [ "unit-mismatch" ]
    {|let f (now : float) (start_time : float) (len_bytes : float) =
  let elapsed = now -. start_time in
  elapsed +. len_bytes|}

let test_flow_units_labeled_arg () =
  check_typed "bytes passed to a ~delay_s: parameter flagged"
    [ "unit-mismatch" ]
    {|let callee ~delay_s:(d : float) = d
let caller (sz_bytes : float) = callee ~delay_s:sz_bytes|};
  check_typed "matching labeled dimension is fine" []
    {|let callee ~delay_s:(d : float) = d
let caller (rtt : float) = callee ~delay_s:rtt|}

let test_flow_units_pragma () =
  check_typed "allow pragma suppresses a deliberate mix" []
    {|(* lint: allow unit-mismatch — test fixture: deliberate *)
let f (deadline_s : float) (rate_bps : float) = deadline_s +. rate_bps|}

(* ---- typed tier: trace guard ---------------------------------------------- *)

let trace_stub =
  {|module Trace = struct
  type event = Tick of int
  let on () = true
  let emit (_ : event) = ()
end
|}

let test_flow_trace () =
  check_typed "unguarded emit flagged" [ "trace-unguarded" ]
    (trace_stub ^ {|let f x = Trace.emit (Trace.Tick x)|});
  check_typed "guarded emit is fine" []
    (trace_stub
   ^ {|let f x = if Trace.on () then Trace.emit (Trace.Tick x)|});
  check_typed "negated guard protects the else branch" []
    (trace_stub
   ^ {|let f x = if not (Trace.on ()) then () else Trace.emit (Trace.Tick x)|});
  check_typed "unguarded event allocation flagged" [ "trace-unguarded" ]
    (trace_stub ^ {|let make x = Trace.Tick x|});
  check_typed "allocation inside a guarded closure is fine" []
    (trace_stub
   ^ {|let f run x = if Trace.on () then run (fun () -> Trace.emit (Trace.Tick x))|})

(* ---- typed tier: determinism taint ---------------------------------------- *)

let test_flow_taint () =
  (* A one-line wrapper launders Random past the parse tier; the summary
     pass must carry the taint to the caller. *)
  check_typed "RNG taint propagates through a wrapper"
    [ "determinism-taint" ]
    {|let jitter () = Random.float 1e-6
let step x = x +. jitter ()|};
  (* The defect class caught in this tree: a helper wrapping Hashtbl.iter
     hands unordered iteration to every caller (test_workload's incast
     check asserted group shapes in hash order until this pass flagged
     it). *)
  check_typed "hash-order taint propagates through a wrapper"
    [ "determinism-taint" ]
    {|let visit h f = Hashtbl.iter f h
let total h = let n = ref 0 in visit h (fun _ v -> n := !n + v); !n|};
  check_typed "untainted helpers are fine" []
    {|let double x = 2 * x
let f x = double (double x)|}

let test_flow_taint_pragmas () =
  check_typed "taint pragma declares propagation" []
    {|let jitter () = Random.float 1e-6
(* lint: taint no-unseeded-random — test fixture: by-design noise *)
let step x = x +. jitter ()|};
  check_typed "allow pragma contains the call site" []
    {|let jitter () = Random.float 1e-6
(* lint: allow determinism-taint — test fixture: contained *)
let step x = x +. jitter ()|};
  (* Containing the source means there is nothing to propagate. *)
  check_typed "allow pragma at the source kills the taint" []
    {|(* lint: allow no-unseeded-random — test fixture: contained at source *)
let jitter () = Random.float 1e-6
let step x = x +. jitter ()|}

(* ---- the shipped tree ------------------------------------------------------ *)

(* The shipped tree must be parse-tier clean: every banned construct is
   either migrated or carries a justified pragma. Mirrors the parse half
   of `dune build @lint`; CI re-runs the typed half after @check. *)
let test_tree_is_clean () =
  let root =
    List.find_opt
      (fun d -> Sys.file_exists (Filename.concat d "lib"))
      [ "."; ".."; Filename.concat ".." ".." ]
  in
  match root with
  | None -> Alcotest.fail "cannot locate the source tree from the test cwd"
  | Some root ->
      let paths =
        List.filter Sys.file_exists
          (List.map (Filename.concat root) [ "lib"; "bin"; "bench" ])
      in
      let findings = Lint_engine.lint_paths paths in
      Alcotest.(check (list string))
        (Printf.sprintf "tree under %s is lint-clean" root)
        []
        (List.map (Format.asprintf "%a" Lint_engine.pp_finding) findings)

let parse_suite =
  [
    Alcotest.test_case "clean code" `Quick test_clean;
    Alcotest.test_case "no-unseeded-random" `Quick test_unseeded_random;
    Alcotest.test_case "no-wallclock" `Quick test_wallclock;
    Alcotest.test_case "no-hash-order" `Quick test_hash_order;
    Alcotest.test_case "no-silent-catchall" `Quick test_silent_catchall;
    Alcotest.test_case "no-marshal" `Quick test_marshal;
    Alcotest.test_case "no-obj-magic" `Quick test_obj_magic;
    Alcotest.test_case "no-poly-compare-sort" `Quick test_poly_compare_sort;
    Alcotest.test_case "eta-expanded comparators" `Quick test_poly_compare_eta;
    Alcotest.test_case "no-global-state" `Quick test_global_state;
    Alcotest.test_case "comments and strings ignored" `Quick
      test_mentions_in_comments_and_strings;
    Alcotest.test_case "pragma same line" `Quick test_pragma_same_line;
    Alcotest.test_case "pragma previous line" `Quick test_pragma_previous_line;
    Alcotest.test_case "pragma two rules one line" `Quick
      test_pragma_two_rules_one_line;
    Alcotest.test_case "pragma in functor body" `Quick
      test_pragma_in_functor_body;
    Alcotest.test_case "pragma wrong rule" `Quick test_pragma_wrong_rule;
    Alcotest.test_case "pragma out of range" `Quick test_pragma_out_of_range;
    Alcotest.test_case "pragma unknown rule" `Quick test_pragma_unknown_rule;
    Alcotest.test_case "pragma missing reason" `Quick test_pragma_missing_reason;
    Alcotest.test_case "stale pragmas" `Quick test_pragma_stale;
    Alcotest.test_case "parse error reported" `Quick test_parse_error;
  ]

let typed_suite =
  [
    Alcotest.test_case "use after free" `Quick test_flow_use_after_free;
    Alcotest.test_case "interprocedural free" `Quick
      test_flow_interprocedural_free;
    Alcotest.test_case "escape detection" `Quick test_flow_escape;
    Alcotest.test_case "pool pragmas" `Quick test_flow_pool_pragma;
    Alcotest.test_case "unit mismatches" `Quick test_flow_units;
    Alcotest.test_case "units through intermediates" `Quick
      test_flow_units_intermediate;
    Alcotest.test_case "units of labeled arguments" `Quick
      test_flow_units_labeled_arg;
    Alcotest.test_case "units pragma" `Quick test_flow_units_pragma;
    Alcotest.test_case "trace guard" `Quick test_flow_trace;
    Alcotest.test_case "determinism taint" `Quick test_flow_taint;
    Alcotest.test_case "taint pragmas" `Quick test_flow_taint_pragmas;
  ]

let tree_suite =
  [ Alcotest.test_case "shipped tree is clean" `Quick test_tree_is_clean ]

let () =
  Alcotest.run "pase-lint"
    [ ("parse", parse_suite); ("typed", typed_suite); ("tree", tree_suite) ]
