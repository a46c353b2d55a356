(* Flow-level delay attribution: the exact-sum invariant across protocols,
   aggregate totals against the AFCT, serial/fork byte identity, the fabric
   sampler's determinism and bounds, and the report explain layer. *)

let fat_tree protocol ~on_attrib =
  Runner.run ~attrib:true ~on_attrib protocol
    (Scenario.fat_tree_uniform ~k:4 ~num_flows:150 ~seed:1 ~load:0.6 ())

(* Every completed flow's components sum to its FCT with float equality —
   not within a tolerance — on a k=4 fat-tree, for a vanilla transport, a
   priority-dropping one, and PASE (arbitration gating). *)
let test_exact_sum_across_protocols () =
  List.iter
    (fun (name, protocol) ->
      let records = ref [] in
      let r =
        fat_tree protocol ~on_attrib:(fun ~size_pkts:_ rec_ ->
            records := rec_ :: !records)
      in
      Alcotest.(check int)
        (name ^ ": one record per completed flow")
        r.Runner.completed
        (List.length !records);
      List.iter
        (fun (rec_ : Delay.record) ->
          if not (Delay.check_sum rec_) then
            Alcotest.fail
              (Printf.sprintf "%s: flow %d components do not sum to fct" name
                 rec_.Delay.flow);
          List.iter
            (fun (comp, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: flow %d %s >= 0" name rec_.Delay.flow comp)
                true (v >= 0.))
            [
              ("serialization", rec_.Delay.serialization);
              ("propagation", rec_.Delay.propagation);
              ("arb_wait", rec_.Delay.arb_wait);
              ("rto_stall", rec_.Delay.rto_stall);
            ])
        !records;
      (* Aggregate fct total agrees with the runner's AFCT. *)
      let agg = match r.Runner.attrib with Some a -> a | None -> Alcotest.fail "no aggregate" in
      Alcotest.(check int) (name ^ ": aggregate flow count") r.Runner.completed
        (Attrib.flows agg);
      let total = Attrib.component_sum agg ~band:"all" ~component:"fct" in
      let afct_from_agg = total /. float_of_int r.Runner.completed in
      Alcotest.(check bool)
        (name ^ ": aggregate total matches afct")
        true
        (Float.abs (afct_from_agg -. r.Runner.afct)
        <= 1e-9 *. Float.max 1e-12 r.Runner.afct))
    [ ("dctcp", Runner.Dctcp); ("pfabric", Runner.Pfabric); ("pase", Runner.pase) ]

(* Attribution does not depend on the process computing it: the encoded
   result of a forked child equals the serial in-process one, aggregate
   included. *)
let test_fork_matches_serial () =
  List.iteri
    (fun i p ->
      let run () =
        Runner.run ~attrib:true p
          (Scenario.fat_tree_uniform ~k:4 ~num_flows:80 ~seed:2 ~load:0.5 ())
      in
      let s = run () and f = Forked.run run in
      Alcotest.(check string)
        (Printf.sprintf "job %d byte-identical" i)
        (Result_codec.encode s) (Result_codec.encode f);
      Alcotest.(check bool)
        (Printf.sprintf "job %d carries aggregate" i)
        true
        (s.Runner.attrib <> None))
    [ Runner.Dctcp; Runner.Pfabric; Runner.pase ]

(* Explicit-rate protocols wait for grants: the wait shows up as arb_wait,
   and nowhere else claims it. *)
let test_pdq_arb_wait_positive () =
  let r =
    Runner.run ~attrib:true Runner.Pdq
      (Scenario.intra_rack_medium ~num_flows:60 ~seed:1 ~load:0.6 ())
  in
  let agg = match r.Runner.attrib with Some a -> a | None -> Alcotest.fail "no aggregate" in
  Alcotest.(check bool) "pdq aggregate arb_wait > 0" true
    (Attrib.component_sum agg ~band:"all" ~component:"arb_wait" > 0.)

(* A plain run does not pay for attribution: no aggregate, and the global
   Delay switch is off afterwards. *)
let test_off_by_default () =
  let r =
    Runner.run Runner.Dctcp
      (Scenario.intra_rack_medium ~num_flows:20 ~seed:1 ~load:0.4 ())
  in
  Alcotest.(check bool) "no aggregate" true (r.Runner.attrib = None);
  Alcotest.(check bool) "delay switch off" false (Delay.on ())

(* Observation never changes the simulated outcome: one seeded PASE run,
   executed plain, with attribution and with the fabric sampler, yields the
   same flow records and headline metrics. Attribution schedules nothing, so
   its event count matches the plain run's and its encoded result is
   byte-identical once the aggregate is dropped; the sampler adds its own
   timer events, so only its outcome is compared. *)
let test_observation_never_changes_results () =
  let scenario =
    Scenario.fat_tree_uniform ~k:4 ~num_flows:120 ~seed:5 ~load:0.6 ()
  in
  let plain = Runner.run Runner.pase scenario in
  let attributed = Runner.run ~attrib:true Runner.pase scenario in
  let sampled =
    Runner.run ~series:(Series.store (), 1e-4) Runner.pase scenario
  in
  List.iter
    (fun (name, (r : Runner.result)) ->
      Alcotest.(check bool)
        (name ^ ": same flow records")
        true
        (compare (Fct.records plain.Runner.fct) (Fct.records r.Runner.fct)
        = 0);
      Alcotest.(check int) (name ^ ": completed") plain.Runner.completed
        r.Runner.completed;
      Alcotest.(check bool) (name ^ ": afct") true
        (Float.equal plain.Runner.afct r.Runner.afct);
      Alcotest.(check bool) (name ^ ": p99") true
        (Float.equal plain.Runner.p99 r.Runner.p99);
      Alcotest.(check int) (name ^ ": stray packets") plain.Runner.stray_pkts
        r.Runner.stray_pkts)
    [ ("attrib", attributed); ("series", sampled) ];
  Alcotest.(check int) "attrib: same event count" plain.Runner.events
    attributed.Runner.events;
  Alcotest.(check string) "attrib: encoding minus aggregate is byte-identical"
    (Result_codec.encode plain)
    (Result_codec.encode { attributed with Runner.attrib = None })

(* Merging two half-aggregates reproduces the single-pass one up to float
   summation order (Welford's merge reassociates, so byte identity is not
   promised — component totals and counts are). *)
let test_aggregate_merge () =
  let recs = ref [] in
  let _ =
    Runner.run ~attrib:true
      ~on_attrib:(fun ~size_pkts rec_ -> recs := (size_pkts, rec_) :: !recs)
      Runner.Dctcp
      (Scenario.intra_rack_medium ~num_flows:40 ~seed:3 ~load:0.5 ())
  in
  let recs = List.rev !recs in
  let one = Attrib.create () in
  List.iter (fun (size_pkts, r) -> Attrib.add one ~size_pkts r) recs;
  let n = List.length recs / 2 in
  let a = Attrib.create () and b = Attrib.create () in
  List.iteri
    (fun i (size_pkts, r) ->
      Attrib.add (if i < n then a else b) ~size_pkts r)
    recs;
  let merged = Attrib.merge a b in
  Alcotest.(check int) "flow count" (Attrib.flows one) (Attrib.flows merged);
  Array.iter
    (fun comp ->
      let x = Attrib.component_sum one ~band:"all" ~component:comp in
      let y = Attrib.component_sum merged ~band:"all" ~component:comp in
      Alcotest.(check bool)
        (comp ^ " total agrees")
        true
        (Float.abs (x -. y) <= 1e-12 *. Float.max 1. (Float.abs x)))
    Attrib.components

(* ---- fabric sampler ----------------------------------------------------- *)

let sampled ?(capacity = 1 lsl 16) () =
  let store = Series.store ~capacity () in
  let r =
    Runner.run ~series:(store, 1e-4) Runner.Dctcp
      (Scenario.intra_rack_medium ~num_flows:40 ~seed:1 ~load:0.6 ())
  in
  (r, store)

let test_sampler_deterministic () =
  let _, s1 = sampled () in
  let _, s2 = sampled () in
  Alcotest.(check bool) "samples taken" true (Series.seen s1 > 0);
  Alcotest.(check int) "same count" (Series.seen s1) (Series.seen s2);
  List.iter2
    (fun (a : Series.sample) (b : Series.sample) ->
      Alcotest.(check string) "metric" a.Series.metric b.Series.metric;
      Alcotest.(check bool) "time" true (a.Series.t = b.Series.t);
      Alcotest.(check bool) "value" true (a.Series.v = b.Series.v))
    (Series.samples s1) (Series.samples s2)

let test_sampler_bounded_store () =
  let r, full = sampled () in
  ignore r;
  let seen = Series.seen full in
  Alcotest.(check bool) "enough samples to overflow" true (seen > 64);
  let _, small = sampled ~capacity:64 () in
  Alcotest.(check int) "sees everything" seen (Series.seen small);
  Alcotest.(check int) "retains capacity" 64
    (List.length (Series.samples small));
  Alcotest.(check int) "counts evictions" (seen - 64) (Series.dropped small);
  (* The retained tail equals the tail of the unbounded store. *)
  let tail l n =
    let len = List.length l in
    List.filteri (fun i _ -> i >= len - n) l
  in
  List.iter2
    (fun (a : Series.sample) (b : Series.sample) ->
      Alcotest.(check string) "tail metric" a.Series.metric b.Series.metric)
    (tail (Series.samples full) 64)
    (Series.samples small)

let test_sampler_spill () =
  let spilled = ref 0 in
  let store = Series.store ~capacity:8 ~spill:(fun _ -> incr spilled) () in
  let _ =
    Runner.run ~series:(store, 1e-4) Runner.Dctcp
      (Scenario.intra_rack_medium ~num_flows:10 ~seed:1 ~load:0.4 ())
  in
  Alcotest.(check int) "spill sees every sample" (Series.seen store) !spilled

(* ---- json + report ------------------------------------------------------ *)

let test_json_parser () =
  (match Json.parse {|{"a":[1,2.5,-3e2],"b":"x\u00e9\n","c":true,"d":null}|} with
  | Error e -> Alcotest.fail e
  | Ok v ->
      Alcotest.(check (option (list (float 0.))))
        "array" (Some [ 1.; 2.5; -300. ])
        (Option.map
           (List.filter_map Json.to_float)
           (Option.bind (Json.member "a" v) Json.to_list));
      Alcotest.(check (option string)) "escapes" (Some "x\xc3\xa9\n")
        (Json.string_member "b" v);
      Alcotest.(check bool) "bool member present" true
        (Json.member "c" v = Some (Json.Bool true)));
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S accepted" bad)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"\\u12\"" ]

let report_inputs () =
  let attrib_lines = ref [] in
  let store = Series.store () in
  let r =
    Runner.run ~attrib:true
      ~on_attrib:(fun ~size_pkts rec_ ->
        attrib_lines :=
          Result_codec.attrib_record_to_json ~size_pkts rec_ :: !attrib_lines)
      ~series:(store, 1e-4) Runner.pase
      (Scenario.intra_rack_medium ~num_flows:60 ~seed:1 ~load:0.6 ())
  in
  let parse s =
    match Json.parse s with Ok v -> v | Error e -> Alcotest.fail e
  in
  let run = parse (Result_codec.to_json r) in
  let attrib_lines = List.rev_map parse !attrib_lines in
  let series_lines =
    List.map (fun s -> parse (Series.sample_json s)) (Series.samples store)
  in
  (run, attrib_lines, series_lines)

let test_report_deterministic_and_checked () =
  let run, attrib_lines, series_lines = report_inputs () in
  let build () =
    Report.to_json
      (Report.build ~run ~attrib_lines ~series_lines ~top:3 ())
  in
  let j1 = build () in
  Alcotest.(check string) "report reruns byte-identical" j1 (build ());
  let rep =
    match Json.parse j1 with Ok v -> v | Error e -> Alcotest.fail e
  in
  Alcotest.(check (option (float 0.))) "schema version" (Some 1.)
    (Json.float_member "report" rep);
  let attribution =
    match Json.member "attribution" rep with
    | Some a -> a
    | None -> Alcotest.fail "no attribution section"
  in
  let check =
    match Json.member "check" attribution with
    | Some c -> c
    | None -> Alcotest.fail "no check section"
  in
  (* The per-flow residual is exactly zero: the invariant survives the trip
     through JSON text and back. *)
  Alcotest.(check (option (float 0.))) "max_flow_residual is exactly 0"
    (Some 0.)
    (Json.float_member "max_flow_residual" check);
  let afct = Json.float_member "afct" check in
  let afct' = Json.float_member "afct_from_components" check in
  (match (afct, afct') with
  | Some a, Some b ->
      Alcotest.(check bool) "component afct near afct" true
        (Float.abs (a -. b) <= 1e-9 *. Float.max 1e-12 a)
  | _ -> Alcotest.fail "missing afct check fields");
  Alcotest.(check bool) "series section present" true
    (Json.member "series" rep <> None)

let suite =
  [
    Alcotest.test_case "exact sum across protocols" `Slow
      test_exact_sum_across_protocols;
    Alcotest.test_case "fork matches serial" `Slow test_fork_matches_serial;
    Alcotest.test_case "pdq arb wait positive" `Quick
      test_pdq_arb_wait_positive;
    Alcotest.test_case "off by default" `Quick test_off_by_default;
    Alcotest.test_case "observation never changes results" `Slow
      test_observation_never_changes_results;
    Alcotest.test_case "aggregate merge" `Quick test_aggregate_merge;
    Alcotest.test_case "sampler deterministic" `Quick
      test_sampler_deterministic;
    Alcotest.test_case "sampler bounded store" `Quick
      test_sampler_bounded_store;
    Alcotest.test_case "sampler spill" `Quick test_sampler_spill;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "report deterministic and checked" `Quick
      test_report_deterministic_and_checked;
  ]
