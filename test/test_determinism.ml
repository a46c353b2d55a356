(* Determinism suite. A table of configurations (the CLI sweeps, faulted,
   coflow and hybrid runs) is checked three ways against its serial run:
   reruns, the fork pool and the on-disk cache all give byte-identical
   encoded results. Chunked [Engine.run ~until] matches a one-shot run
   event-for-event, and the result codec round-trips every optional result
   section. *)

let encode = Result_codec.encode

(* ---- the determinism table ---------------------------------------------- *)

(* The protocols [pase_sim compare] sweeps, in its order. *)
let compared =
  let pase c = Runner.Pase c in
  [
    Runner.pase;
    pase { Config.default with Config.scheduling = Config.Edf };
    pase { Config.default with Config.local_only = true };
    pase { Config.default with Config.use_ref_rate = false };
    pase { Config.default with Config.scheduling = Config.Task_aware };
    Runner.Dctcp;
    Runner.D2tcp;
    Runner.L2dct;
    Runner.Pfabric;
    Runner.Pdq;
    Runner.D3;
  ]

let faults spec =
  match Fault.parse spec with Ok evs -> evs | Error e -> failwith e

let with_coflows ~width scn =
  Scenario.with_coflows
    (Scenario.with_sizes scn Dist.web_search_bytes)
    ~deadline_s:(Dist.constant 0.05) ~width ()

(* One row per configuration: a job list run under one hybrid setting.
   Every row is checked for rerun, fork-vs-serial and warm-cache identity
   of its encoded results. *)
type row = { name : string; hybrid : Runner.hybrid option; jobs : Parallel.job list }

let row ?hybrid name jobs = { name; hybrid; jobs }
let all protocols scn = List.map (fun p -> (p, scn)) protocols

let table =
  let fault_spec = "flap:a=agg0,b=core0,at=0.004,down=0.002,up=0.004,count=3" in
  [
    row "worker-aggregator PASE"
      [
        ( Runner.pase,
          Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:3 ~load:0.6 ()
        );
      ];
    row "worker-aggregator grid"
      (List.concat_map
         (fun load ->
           all
             [ Runner.Dctcp; Runner.Pfabric; Runner.pase; Runner.L2dct ]
             (Scenario.worker_aggregator ~hosts:6 ~num_flows:24 ~seed:7 ~load ()))
         [ 0.4; 0.7 ]);
    row "compare testbed"
      (all compared (Scenario.testbed ~num_flows:60 ~seed:1 ~load:0.5 ()));
    row "compare testbed --hybrid"
      ~hybrid:
        { Runner.enabled = true; fluid_threshold = Runner.default_fluid_threshold }
      (all compared (Scenario.testbed ~num_flows:120 ~seed:1 ~load:0.6 ()));
    row "compare testbed websearch coflows"
      (all compared
         (with_coflows ~width:(Dist.uniform 2. 5.)
            (Scenario.testbed ~num_flows:120 ~seed:1 ~load:0.6 ())));
    row "fat-tree websearch coflows DCTCP"
      [
        ( Runner.Dctcp,
          with_coflows ~width:(Dist.uniform 4. 8.)
            (Scenario.fat_tree_uniform ~k:6 ~num_flows:200 ~seed:1 ~load:0.6 ())
        );
      ];
    row "left-right CI fault schedule"
      [
        ( Runner.pase,
          Scenario.with_faults
            (Scenario.left_right ~num_flows:150 ~seed:1 ~load:0.6 ())
            (faults
               (fault_spec
              ^ ";crash:node=tor0,at=0.005,restart=0.012;ctrl:at=0,until=0.05,p=0.3"
               )) );
      ];
    row "left-right flap PASE"
      [
        ( Runner.pase,
          Scenario.with_faults
            (Scenario.left_right ~num_flows:60 ~seed:1 ~load:0.6 ())
            (faults fault_spec) );
      ];
    row "left-right flap+crash grid"
      (all
         [ Runner.pase; Runner.Dctcp; Runner.Pdq; Runner.D3 ]
         (Scenario.with_faults
            (Scenario.left_right ~num_flows:40 ~seed:1 ~load:0.6 ())
            (faults (fault_spec ^ ";crash:node=tor0,at=0.002,restart=0.004"))));
  ]

(* Every row through one [Parallel.run_jobs] call per hybrid setting, so a
   one-job row still crosses the fork pool when [jobs > 1]; the results
   come back split by row. *)
let sweep ?on_result ~jobs ~cache_dir () =
  let rec split rows results =
    match rows with
    | [] -> []
    | r :: rest ->
        let n = List.length r.jobs in
        (r, List.filteri (fun i _ -> i < n) results)
        :: split rest (List.filteri (fun i _ -> i >= n) results)
  in
  List.sort_uniq compare (List.map (fun r -> r.hybrid) table)
  |> List.concat_map (fun hybrid ->
         let rows = List.filter (fun r -> r.hybrid = hybrid) table in
         split rows
           (Parallel.run_jobs ~jobs ~cache_dir ?hybrid ?on_result
              (List.concat_map (fun r -> r.jobs) rows)))

let cache_dir =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "pase-test-cache-%d" (Unix.getpid ()))

let remove_cache_dir () =
  if Sys.file_exists cache_dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat cache_dir f) with _ -> ())
      (Sys.readdir cache_dir);
    try Unix.rmdir cache_dir with _ -> ()
  end

(* The reference every check compares against: serial and in-process. It
   also fills a fresh on-disk cache for the warm-cache check. *)
let serial =
  lazy
    (remove_cache_dir ();
     at_exit remove_cache_dir;
     sweep ~jobs:1 ~cache_dir:(Some cache_dir) ())

let check_against_serial what runs =
  List.iter2
    (fun (row, expected) (_, got) ->
      List.iteri
        (fun i (a, b) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s job %d" row.name what i)
            (encode a) (encode b))
        (List.combine expected got))
    (Lazy.force serial) runs

(* Same seed => bit-identical results across two serial runs. *)
let test_serial_rerun_identical () =
  check_against_serial "rerun" (sweep ~jobs:1 ~cache_dir:None ())

(* The fork pool reproduces the serial results exactly. *)
let test_parallel_matches_serial () =
  check_against_serial "forked" (sweep ~jobs:4 ~cache_dir:None ())

(* A second sweep is served entirely from the on-disk cache and is
   bit-identical to the serial one. *)
let test_cache_hits_everything () =
  ignore (Lazy.force serial);
  let hits = ref 0 and total = ref 0 in
  let warm =
    sweep ~jobs:4 ~cache_dir:(Some cache_dir)
      ~on_result:(fun _ ~cached ~wall:_ _ ->
        incr total;
        if cached then incr hits)
      ()
  in
  Alcotest.(check int) "every configuration cached" !total !hits;
  check_against_serial "warm" warm

(* Chunked [run ~until] equals one-shot execution event-for-event. *)
let test_chunked_until_matches_one_shot () =
  let program e trace =
    (* Ties, nested scheduling across chunk boundaries, and an event exactly
       on a boundary. *)
    for i = 0 to 9 do
      Engine.schedule_at e ~time:(0.25 *. float_of_int i) (fun () ->
          trace := (Engine.now e, i) :: !trace;
          if i = 2 then
            Engine.schedule e ~delay:0.6 (fun () ->
                trace := (Engine.now e, 100 + i) :: !trace))
    done;
    for i = 0 to 3 do
      Engine.schedule_at e ~time:1.7 (fun () ->
          trace := (Engine.now e, 200 + i) :: !trace)
    done
  in
  let one_shot = ref [] in
  let e1 = Engine.create () in
  program e1 one_shot;
  Engine.run ~until:2.5 e1;
  let chunked = ref [] in
  let e2 = Engine.create () in
  program e2 chunked;
  List.iter (fun h -> Engine.run ~until:h e2) [ 0.5; 1.0; 1.5; 1.7; 2.0; 2.5 ];
  Alcotest.(check (list (pair (float 1e-12) int)))
    "same events in the same order" (List.rev !one_shot) (List.rev !chunked);
  Alcotest.(check (float 1e-12)) "same final clock" (Engine.now e1) (Engine.now e2);
  Alcotest.(check int) "same processed count" (Engine.events_processed e1)
    (Engine.events_processed e2)

(* Censored flows keep their task and ideal fields (runner regression). *)
let test_censored_records_complete () =
  let sc = Scenario.worker_aggregator ~hosts:6 ~num_flows:30 ~seed:5 ~load:0.9 () in
  (* A tiny horizon censors most of the workload. *)
  let r = Runner.run ~horizon:0.002 Runner.Dctcp sc in
  Alcotest.(check bool) "some flows censored" true (r.Runner.censored > 0);
  Alcotest.(check (float 1e-12)) "duration reports the horizon" 0.002
    r.Runner.duration;
  List.iter
    (fun (rec_ : Fct.record) ->
      if rec_.Fct.censored then begin
        Alcotest.(check bool) "censored record has ideal" true
          (Option.is_some rec_.Fct.ideal);
        Alcotest.(check bool) "censored record has task" true
          (Option.is_some rec_.Fct.task)
      end)
    (Fct.records r.Runner.fct)

(* Codec: round-trip and versioned rejection. *)
let test_codec_roundtrip () =
  let sc = Scenario.testbed ~num_flows:20 ~seed:2 ~load:0.5 () in
  let r = Runner.run Runner.Dctcp sc in
  (match Result_codec.decode (encode r) with
  | Ok r' -> Alcotest.(check bool) "round-trips" true (encode r = encode r')
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (match Result_codec.decode "garbage" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  let blob = encode r in
  let forged = "PASE-RES9999" ^ String.sub blob 12 (String.length blob - 12) in
  (match Result_codec.decode forged with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error e ->
      Alcotest.(check bool) "reports version mismatch" true
        (String.length e > 0));
  let json = Result_codec.to_json r in
  Alcotest.(check bool) "json names the scenario" true
    (String.length json > 2 && json.[0] = '{')

(* Every optional result section survives the codec: the decoded result
   re-encodes to the same bytes and renders the same JSON. GC deltas depend
   on process history and are zeroed before rendering. Encode first:
   rendering the coflow aggregate flushes its t-digest. *)
let test_codec_roundtrip_every_section () =
  let no_gc r =
    {
      r with
      Runner.gc_minor_words = 0.;
      gc_promoted_words = 0.;
      gc_major_collections = 0;
    }
  in
  List.iter
    (fun (section, present, run) ->
      let r = run () in
      Alcotest.(check bool) (section ^ ": section present") true (present r);
      let blob = encode r in
      let json = Result_codec.to_json (no_gc r) in
      match Result_codec.decode blob with
      | Error e -> Alcotest.fail (section ^ ": " ^ e)
      | Ok r' ->
          Alcotest.(check string) (section ^ ": same bytes") blob (encode r');
          Alcotest.(check string)
            (section ^ ": same JSON") json
            (Result_codec.to_json (no_gc r')))
    [
      ( "streaming",
        (fun r -> Fct.sketch_info r.Runner.fct <> None),
        fun () ->
          Runner.run ~stats:`Streaming Runner.Dctcp
            (Scenario.intra_rack_medium ~num_flows:120 ~seed:11 ~load:0.5 ()) );
      ( "attributed",
        (fun r -> r.Runner.attrib <> None),
        fun () ->
          Runner.run ~attrib:true Runner.pase
            (Scenario.fat_tree_uniform ~k:4 ~num_flows:80 ~seed:2 ~load:0.5 ()) );
      ( "hybrid",
        (fun r -> r.Runner.hybrid <> None),
        fun () ->
          Runner.run
            ~hybrid:{ Runner.enabled = true; fluid_threshold = 32768 }
            Runner.Dctcp
            (Scenario.left_right ~num_flows:50 ~seed:3 ~load:0.6 ()) );
      ( "coflow",
        (fun r -> r.Runner.coflow <> None),
        fun () ->
          Runner.run Runner.Dctcp
            (with_coflows ~width:(Dist.uniform 2. 5.)
               (Scenario.testbed ~num_flows:120 ~seed:1 ~load:0.6 ())) );
      ( "faulted",
        (fun r -> r.Runner.faults_injected > 0),
        fun () ->
          Runner.run Runner.pase
            (Scenario.with_faults
               (Scenario.left_right ~num_flows:60 ~seed:1 ~load:0.6 ())
               (faults
                  "down:a=agg0,b=core0,at=0.004,up=0.01;\
                   crash:node=tor0,at=0.002,restart=0.004")) );
      ( "profiled",
        (fun r -> r.Runner.sched_profile <> []),
        fun () ->
          Runner.run ~profile:true Runner.pase
            (Scenario.testbed ~num_flows:20 ~seed:2 ~load:0.5 ()) );
    ]

(* Duplicate configurations are simulated once and shared. *)
let test_duplicates_shared () =
  let sc = Scenario.testbed ~num_flows:15 ~seed:9 ~load:0.4 () in
  let job = (Runner.Dctcp, sc) in
  let runs = ref 0 in
  let results =
    Parallel.run_jobs ~jobs:1 ~cache_dir:None
      ~on_result:(fun _ ~cached ~wall:_ _ -> if not cached then incr runs)
      [ job; job; job ]
  in
  Alcotest.(check int) "three results" 3 (List.length results);
  Alcotest.(check int) "one simulation" 1 !runs;
  match results with
  | [ a; b; c ] ->
      Alcotest.(check bool) "identical" true
        (encode a = encode b && encode b = encode c)
  | _ -> assert false

let suite =
  [
    Alcotest.test_case "serial rerun identical" `Quick test_serial_rerun_identical;
    Alcotest.test_case "parallel matches serial" `Slow test_parallel_matches_serial;
    Alcotest.test_case "chunked until matches one-shot" `Quick
      test_chunked_until_matches_one_shot;
    Alcotest.test_case "censored records complete" `Quick
      test_censored_records_complete;
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec roundtrip every section" `Quick
      test_codec_roundtrip_every_section;
    Alcotest.test_case "cache hits everything" `Slow test_cache_hits_everything;
    Alcotest.test_case "duplicates shared" `Quick test_duplicates_shared;
  ]
