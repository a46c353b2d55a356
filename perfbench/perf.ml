(* perf: the PASE simulator's benchmark. perfbench/README.md lists every
   workload and metric, the bounds and the seed-state baseline.

   Usage, from the repository root:
     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
         builds this program and runs one workload for S seconds; the last
         stdout line is the JSON result (end-to-end metrics, or with
         --trace 1 the per-layer ones)
     dune exec perfbench/perf.exe -- --reps 5 [--seed 1] [--trace 1]
         all four workloads, repetitions interleaved round-robin, each
         metric as median, IQR and n; --trace 1 adds the layer suite and
         the ledger of every workload
     dune exec perfbench/perf.exe -- --quick
         small inputs; checks that every metric of BENCHMARK.json comes out
         finite for every workload and that all output checks pass
     dune exec perfbench/perf.exe -- --digests --seed N [--quick]
         prints the output digests of every workload, in the format of
         perfbench/digests.txt

   Every repetition runs in a child process (this program re-executed), so
   it starts from a fresh heap and has its own peak RSS. Spans of traced
   runs go to .perfbench/spans.jsonl (--spans FILE). *)

open Workloads

(* ---- failures and checks -------------------------------------------------- *)

let problems = ref []

let problem fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perf: " ^ s);
      problems := s :: !problems)
    fmt

(* Output digests recorded at seed state (perfbench/digests.txt). A seed
   without one is checked by the accounting invariants alone. *)
let stored_digests =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' (String.trim line) with
      | [ w; seed; size; hex ] when w.[0] <> '#' ->
          Some ((w, int_of_string seed, size = "quick"), hex)
      | _ -> None)
    (String.split_on_char '\n' Digests.text)

(* ---- child processes --------------------------------------------------------- *)

let spans_file = ref (Filename.concat Rep.work_dir "spans.jsonl")

(* Run one repetition in a fresh process; [None] when it raised or died. *)
let spawn kind w ~seed ~quick =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--child"; kind; "--workload"; w.name; "--seed"; string_of_int seed ]
    @ (if quick then [ "--quick" ] else [])
    @ if !Measure.tracing then [ "--spans"; !spans_file ] else []
  in
  let ic = Unix.open_process_args_in exe (Array.of_list args) in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  match (Unix.close_process_in ic, line) with
  | Unix.WEXITED 0, Some l -> (
      match Json.parse l with
      | Ok j -> Some j
      | Error e ->
          problem "%s: unreadable %s result: %s" w.name kind e;
          None)
  | _ ->
      problem "%s: %s repetition failed (seed %d)" w.name kind seed;
      None

let metric j name =
  match Json.member "metrics" j with
  | Some m -> Option.value ~default:nan (Json.float_member name m)
  | None -> nan

let floats j name =
  match Option.bind (Json.member name j) Json.to_list with
  | Some l -> List.filter_map Json.to_float l
  | None -> []

let of_reps js name = List.map (fun j -> metric j name) js

(* The checks every timed repetition must pass. *)
let check_timed w (plan : plan) ~seed ~quick j =
  let jobs = float_of_int (List.length (w.jobs ~seed ~quick)) in
  let completed = metric j "completed" and censored = metric j "censored" in
  if completed +. censored <> float_of_int plan.specs then
    problem "%s: %.0f completed + %.0f censored <> %d generated specs" w.name completed
      censored plan.specs;
  if metric j "runs" <> jobs then problem "%s: %.0f results for %.0f jobs" w.name (metric j "runs") jobs;
  if metric j "warm_hits" <> jobs then
    problem "%s: the warm rerun served %.0f of %.0f jobs from the cache" w.name
      (metric j "warm_hits") jobs;
  if metric j "warm_same" <> 1. then problem "%s: results decoded from the cache differ" w.name;
  match
    (List.assoc_opt (w.name, seed, quick) stored_digests, Json.string_member "digest" j)
  with
  | Some expected, Some got when expected <> got ->
      problem "%s: outputs_changed at seed %d (digest %s, stored %s)" w.name seed got expected
  | _ -> ()

let check_attrib w j =
  if metric j "attrib_residual" <> 0. || metric j "attrib_bad" <> 0. then
    problem "%s: attribution residual %g on %.0f flows" w.name (metric j "attrib_residual")
      (metric j "attrib_bad");
  if metric j "attrib_flows" <> metric j "completed" then
    problem "%s: %.0f attribution records for %.0f completed flows" w.name
      (metric j "attrib_flows") (metric j "completed")

(* The timed repetitions of one workload, with the set-up times sampled
   between them: samples spread over the whole run ride out short bursts of
   host noise better than a block taken at its start. *)
type set = { reps : Json.t list; raised : int; setups : float list }

let empty_set = { reps = []; raised = 0; setups = [] }

let add_rep w plan ~seed ~quick s =
  let n = if s.reps = [] && s.raised = 0 then 20 else 10 in
  let s = { s with setups = s.setups @ Workloads.setup_samples w ~seed ~quick ~n } in
  match spawn "timed" w ~seed ~quick with
  | Some j ->
      check_timed w plan ~seed ~quick j;
      { s with reps = s.reps @ [ j ] }
  | None -> { s with raised = s.raised + 1 }

(* Timed repetitions of [w], at least one, while another one is expected
   to end before [seconds] have passed since [start]. *)
let timed_reps w plan ~seed ~quick ~start ~seconds =
  let first = Measure.now () in
  let rec go s =
    let attempts = List.length s.reps + s.raised in
    let per_rep = (Measure.now () -. first) /. float_of_int (max 1 attempts) in
    if attempts = 0 || Measure.now () -. start +. per_rep <= seconds then
      go (add_rep w plan ~seed ~quick s)
    else s
  in
  go empty_set

(* Censored flows plus every flow of a repetition that raised. *)
let failed_flows (plan : plan) s =
  int_of_float (List.fold_left ( +. ) 0. (of_reps s.reps "censored")) + (plan.specs * s.raised)

(* ---- metrics ------------------------------------------------------------------- *)

(* End-to-end metrics of a set: (name, unit, summary). *)
let end_to_end s =
  let per_rep name = Measure.summarise (of_reps s.reps name) in
  [
    ("wall_s", "s", per_rep "wall_s");
    ("setup_s", "s", Measure.summarise s.setups);
    ("cache_hit_s", "s", Measure.summarise (List.concat_map (fun j -> floats j "warm_s") s.reps));
    ("peak_rss_mb", "MiB", per_rep "peak_rss_mb");
  ]

let unit_cost suite name =
  match List.find_opt (fun (n, _, _) -> n = name) suite with
  | Some (_, _, s) -> s.Measure.median
  | None -> nan

(* The ledger: the run's deterministic counts times the isolated unit
   costs, against the measured wall time. Hops are charged the hop cost
   measured on the workload's own topology. Event costs are taken at the
   heap depth nearest the run's peak: a hop's two events move from the
   probe's depth (d1k) to it, and every event not already inside a hop, an
   arbitration round or a fluid pass is charged the bare event cost there.
   Arbitration is charged per decision applied, since a round's cost grows
   with the flows it serves. A sweep divides the simulate terms over its
   workers and adds the coordinator's decoding. *)
let ledger w suite ~build_s ~counts =
  let u = unit_cost suite and c = counts in
  let depth =
    let peak = c "engine.peak_heap" in
    if peak < 2900. then "d1k" else if peak < 23_000. then "d8k" else "d64k"
  in
  let hops = c "link.hops" and rounds = c "arb.rounds" and passes = c "fluid.recomputes" in
  let other_events =
    Float.max 0. (c "engine.events" -. (2. *. hops) -. rounds -. c "arb.applies" -. passes)
  in
  let event_ns = u ("engine.ns_per_event." ^ depth) in
  let hop_ns = u w.hop_cost +. (2. *. (event_ns -. u "engine.ns_per_event.d1k")) in
  let terms =
    [
      ("scenario build", build_s);
      ("packet hops", hops *. hop_ns *. 1e-9);
      ( "transport acks",
        List.fold_left
          (fun acc cls ->
            acc +. (c ("acks." ^ cls) *. u ("transport." ^ cls ^ ".ns_per_ack") *. 1e-9))
          0. [ "pase"; "dctcp"; "pfabric" ] );
      ("arbitration", c "arb.applies" *. u "arb.ns_per_apply" *. 1e-9);
      ("fluid passes", passes *. u "fluid.pass_us.live256" *. 1e-6);
      ("fct records", c "stats.records" *. u "stats.exact.ns_per_record" *. 1e-9);
      ("stats finalise", c "stats.finalise_ms" *. 1e-3);
      ("codec encode", c "codec.encode_ms" *. 1e-3);
      ("other events", other_events *. event_ns *. 1e-9);
    ]
  in
  let serial = List.fold_left (fun acc (_, v) -> acc +. v) 0. terms in
  let predicted =
    if w.sweep then (serial /. c "workers") +. (c "codec.decode_ms" *. 1e-3) else serial
  in
  (predicted, terms)

(* Every per-layer metric of one traced run of [w]: (name, unit, value). *)
let per_layer w (plan : plan) suite ~build_s ~sentinel:(before, after) ~timed ~traced ~attrib =
  let c = metric traced in
  let wall = Measure.median (of_reps timed "wall_s") in
  let predicted, _ = ledger w suite ~build_s ~counts:c in
  let sim = Measure.median (of_reps timed "sim_s") in
  let job_walls = List.concat_map (fun j -> floats j "job_walls_ms") timed in
  let jobs = float_of_int (List.length job_walls / List.length timed) in
  let busy_ms =
    Measure.median (List.map (fun j -> List.fold_left ( +. ) 0. (floats j "job_walls_ms")) timed)
  in
  let workers = c "workers" in
  [
    ("host.sentinel_ms", "ms", before);
    ("host.sentinel_drift_pct", "%", (after -. before) /. before *. 100.);
  ]
  @ List.map (fun (name, unit, s) -> (name, unit, s.Measure.median)) suite
  @ [
      ("engine.events", "count", c "engine.events");
      ("engine.peak_heap", "count", c "engine.peak_heap");
      ("engine.minor_words_per_event", "words", c "gc_minor_words" /. c "engine.events");
      ("link.hops", "count", c "link.hops");
      ("net.stray_pkts", "count", c "net.stray_pkts");
      ("transport.acks", "count", c "transport.acks");
      ("transport.rto_fires", "count", c "transport.rto_fires");
      ("transport.paced_sends", "count", c "transport.paced_sends");
      ("arb.rounds", "count", c "arb.rounds");
      ("arb.applies", "count", c "arb.applies");
      ("arb.ctrl_msgs", "count", c "arb.ctrl_msgs");
      ("fluid.recomputes", "count", c "fluid.recomputes");
      ("fluid.boundary_fires", "count", c "fluid.boundary_fires");
      ("fluid.flows", "count", c "fluid.flows");
      ("fluid.bytes_share", "ratio", c "fluid.bytes" /. plan.spec_bytes);
      ("stats.finalise_ms", "ms", c "stats.finalise_ms");
      ("stats.records", "count", c "stats.records");
      ("scenario.build_ms", "ms", build_s *. 1e3);
      ("scenario.specs", "count", float_of_int plan.specs);
      ("codec.encode_ms", "ms", c "codec.encode_ms");
      ("codec.decode_ms", "ms", c "codec.decode_ms");
      ("codec.json_ms", "ms", c "codec.json_ms");
      ("codec.blob_kb", "KiB", c "codec.blob_kb");
      ("parallel.job_wall_ms.p50", "ms", Summary.percentile 50. job_walls);
      ("parallel.job_wall_ms.p90", "ms", Summary.percentile 90. job_walls);
      ("parallel.overhead_ms_per_job", "ms", ((wall *. 1e3 *. workers) -. busy_ms) /. jobs);
      ("parallel.utilisation", "ratio", busy_ms /. (wall *. 1e3 *. workers));
      ( "parallel.cache_hit_ms_per_job",
        "ms",
        Measure.median (List.concat_map (fun j -> floats j "warm_s") timed) *. 1e3 /. jobs );
      ("obs.profile_overhead_pct", "%", (c "profiled_wall_s" -. wall) /. wall *. 100.);
      ("obs.attrib_overhead_pct", "%", (metric attrib "attrib_wall_s" -. sim) /. sim *. 100.);
      ("ledger.predicted_s", "s", predicted);
      ("ledger.residual_pct", "%", (wall -. predicted) /. wall *. 100.);
    ]

let print_ledger w suite ~build_s ~traced ~wall =
  let predicted, terms = ledger w suite ~build_s ~counts:(metric traced) in
  Printf.printf "\nledger %s: predicted %.3f s against wall %.3f s (residual %+.1f%%, tolerance 25%%)\n"
    w.name predicted wall ((wall -. predicted) /. wall *. 100.);
  List.iter
    (fun (name, v) -> Printf.printf "  %-20s %9.4f s  %5.1f%%\n" name v (v /. wall *. 100.))
    terms;
  if w.sweep then
    Printf.printf "  (simulate terms over %.0f workers, plus %.4f s of coordinator decoding)\n"
      (metric traced "workers") (metric traced "codec.decode_ms" *. 1e-3)

(* One traced run of [w]: timed reference repetitions (the caller's, or
   one of its own), the profiled repetition that yields the counts, and the
   attributed one; the layer suite is measured once by the caller. Prints
   the ledger and returns the per-layer metrics with the reference
   repetitions. *)
let traced_run ?(timed = []) w plan suite ~seed ~quick =
  let before = Sentinel.reading ~quick in
  let build_s = Measure.median (Workloads.setup_samples w ~seed ~quick ~n:20) in
  let timed = if timed <> [] then timed else (add_rep w plan ~seed ~quick empty_set).reps in
  let traced = spawn "traced" w ~seed ~quick in
  let attrib = spawn "attrib" w ~seed ~quick in
  let after = Sentinel.reading ~quick in
  match (timed, traced, attrib) with
  | _ :: _, Some traced, Some attrib ->
      check_attrib w attrib;
      if metric traced "warm_same" <> 1. then
        problem "%s: profiled results decoded from the cache differ" w.name;
      List.iter
        (fun j ->
          match
            (Json.string_member "serial_blob_digest" traced, Json.string_member "blob_digest" j)
          with
          | Some serial, Some forked when serial <> forked ->
              problem "%s: forked results are not byte-equal to a serial run" w.name
          | _ -> ())
        timed;
      print_ledger w suite ~build_s ~traced ~wall:(Measure.median (of_reps timed "wall_s"));
      Some
        ( per_layer w plan suite ~build_s ~sentinel:(before, after) ~timed ~traced ~attrib,
          timed )
  | _ -> None

(* ---- one workload for a fixed time ------------------------------------------------- *)

let result_line ~attempted ~failed metrics =
  print_endline
    (Measure.json_obj
       [
         ("correct", string_of_bool (!problems = []));
         ("attempted", string_of_int attempted);
         ("failed", string_of_int failed);
         ( "metrics",
           Measure.json_obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Measure.json_obj [ ("value", Measure.json_num v); ("unit", Printf.sprintf "%S" unit) ]))
                metrics) );
       ])

let single w ~seed ~seconds ~trace =
  let start = Measure.now () in
  let plan = Workloads.plan w ~seed ~quick:false in
  if not trace then begin
    let s = timed_reps w plan ~seed ~quick:false ~start ~seconds in
    Printf.eprintf "perf: %s seed %d: %d repetitions, wall_s %s\n%!" w.name seed
      (List.length s.reps)
      (String.concat " " (List.map (Printf.sprintf "%.3f") (of_reps s.reps "wall_s")));
    result_line
      ~attempted:(plan.specs * (List.length s.reps + s.raised))
      ~failed:(failed_flows plan s)
      (List.map (fun (n, u, s) -> (n, u, s.Measure.median)) (end_to_end s))
  end
  else begin
    Measure.tracing := true;
    Measure.trace_id := Printf.sprintf "%s/seed%d" w.name seed;
    let suite = Measure.span "layer suite" (fun () -> Layers.suite ~quick:false) in
    let result = traced_run w plan suite ~seed ~quick:false in
    Measure.flush_spans !spans_file;
    match result with
    | Some (layers, timed) ->
        result_line ~attempted:plan.specs
          ~failed:(failed_flows plan { empty_set with reps = timed })
          layers
    | None -> result_line ~attempted:plan.specs ~failed:plan.specs []
  end

(* ---- all workloads, interleaved ------------------------------------------------------ *)

let benchmark_json () =
  match In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all with
  | text -> (
      match Json.parse text with Ok j -> Some j | Error _ -> None)
  | exception Sys_error _ -> None

(* (name, unit, bound) of each metric listed under [section]. *)
let declared section =
  match Option.bind (benchmark_json ()) (Json.member section) with
  | Some (Json.Arr l) ->
      List.filter_map
        (fun m ->
          match (Json.string_member "name" m, Json.string_member "unit" m) with
          | Some n, Some u -> Some (n, u, Option.value ~default:nan (Json.float_member "bound" m))
          | _ -> None)
        l
  | _ -> []

let print_summary_table title rows =
  Printf.printf "\n%s\n  %-22s %-6s %12s %12s %8s %3s\n" title "metric" "unit" "median" "IQR" "IQR%" "n";
  List.iter
    (fun (name, unit, (s : Measure.summary)) ->
      Printf.printf "  %-22s %-6s %12.6g %12.6g %7.2f%% %3d\n" name unit s.Measure.median
        (s.Measure.q3 -. s.Measure.q1) (Measure.rel_iqr s *. 100.) s.Measure.n)
    rows

let interleaved ~reps ~seed ~quick ~trace workloads =
  let plans = List.map (fun w -> (w.name, Workloads.plan w ~seed ~quick)) workloads in
  let plan w = List.assoc w.name plans in
  (* Sets whose sentinel drift exceeds the tightest wall_s bound are rerun,
     at most twice; every attempt is reported. The quick self-test checks
     outputs, not timings, and never reruns. *)
  let tightest =
    List.fold_left
      (fun acc (n, _, b) -> if n = "wall_s" then Float.min acc b else acc)
      infinity (declared "end_to_end")
  in
  let rec set attempt =
    let before = Sentinel.reading ~quick in
    let sets = Hashtbl.create 8 and attributed = Hashtbl.create 8 in
    let get tbl w d = Option.value ~default:d (Hashtbl.find_opt tbl w.name) in
    for _ = 1 to reps do
      List.iter
        (fun w ->
          Hashtbl.replace sets w.name (add_rep w (plan w) ~seed ~quick (get sets w empty_set));
          if w.attrib_rep then
            match spawn "attrib" w ~seed ~quick with
            | Some j ->
                check_attrib w j;
                Hashtbl.replace attributed w.name (get attributed w [] @ [ j ])
            | None -> ())
        workloads
    done;
    let after = Sentinel.reading ~quick in
    let drift = (after -. before) /. before in
    Printf.printf "\nset %d: seed %d, %d repetitions per workload; sentinel %.1f ms -> %.1f ms (drift %+.2f%%)\n"
      attempt seed reps before after (drift *. 100.);
    let rows =
      List.map
        (fun w ->
          let s = get sets w empty_set in
          let attempted = float_of_int ((plan w).specs * reps) in
          let extra =
            (if w.attrib_rep then
               [ ("attrib_wall_s", "s", Measure.summarise (of_reps (get attributed w []) "attrib_wall_s")) ]
             else [])
            @ [
                ( "failed_frac",
                  "ratio",
                  Measure.summarise [ float_of_int (failed_flows (plan w) s) /. attempted ] );
              ]
          in
          (w, end_to_end s @ extra, s.reps))
        workloads
    in
    List.iter (fun (w, r, _) -> print_summary_table w.name r) rows;
    if Float.abs drift > tightest && attempt < 3 && not quick then begin
      Printf.printf "sentinel drift %.2f%% exceeds the tightest wall_s bound (%.0f%%): rerunning the set\n"
        (drift *. 100.) (tightest *. 100.);
      set (attempt + 1)
    end
    else rows
  in
  let rows = set 1 in
  (* Fidelity of the hybrid tier, from one untimed twin of the workload. *)
  let rows =
    List.map
      (fun (w, r, ts) ->
        if not w.p99_twin then (w, r, ts)
        else
          match spawn "p99twin" w ~seed ~quick with
          | Some j ->
              Printf.printf "\n%s short-flow p99: packet %.3f ms, hybrid %.3f ms (%+.1f%%)\n" w.name
                (metric j "packet_short_p99_ms") (metric j "hybrid_short_p99_ms")
                (metric j "short_p99_err_pct");
              (w, r @ [ ("short_p99_err_pct", "%", Measure.summarise [ metric j "short_p99_err_pct" ]) ], ts)
          | None -> (w, r, ts))
      rows
  in
  let layers =
    if not trace then []
    else begin
      Measure.tracing := true;
      let suite = Measure.span "layer suite" (fun () -> Layers.suite ~quick) in
      print_summary_table "layer suite (unit costs)" suite;
      List.map
        (fun (w, _, ts) ->
          Measure.trace_id := Printf.sprintf "%s/seed%d" w.name seed;
          match traced_run ~timed:ts w (plan w) suite ~seed ~quick with
          | Some (layer_rows, _) ->
              Printf.printf "\nper-layer metrics, %s\n" w.name;
              List.iter
                (fun (name, unit, v) -> Printf.printf "  %-30s %-6s %14.6g\n" name unit v)
                layer_rows;
              (w.name, layer_rows)
          | None -> (w.name, []))
        rows
    end
  in
  Measure.flush_spans !spans_file;
  (rows, layers)

(* The self-test: every metric BENCHMARK.json declares comes out finite, with
   its declared unit, for every workload, and a traced run emits no other;
   nothing failed; all checks pass. *)
let self_check (rows, layers) =
  let declared_all = declared "end_to_end" @ declared "per_layer" in
  if declared_all = [] then problem "BENCHMARK.json is missing or unreadable";
  List.iter
    (fun (w, r, _) ->
      let layer_rows = Option.value ~default:[] (List.assoc_opt w.name layers) in
      List.iter
        (fun (name, _, _) ->
          if not (List.exists (fun (n, _, _) -> n = name) declared_all) then
            problem "%s: %s is emitted but not declared" w.name name)
        layer_rows;
      let emitted =
        List.map (fun (n, u, s) -> (n, (u, s.Measure.median))) r
        @ List.map (fun (n, u, v) -> (n, (u, v))) layer_rows
      in
      List.iter
        (fun (name, unit, _) ->
          match List.assoc_opt name emitted with
          | Some (u, v) when u = unit && Float.is_finite v -> ()
          | Some (u, v) -> problem "%s: %s = %g %s (declared unit %s)" w.name name v u unit
          | None -> problem "%s: %s not emitted" w.name name)
        declared_all;
      match List.assoc_opt "failed_frac" emitted with
      | Some (_, 0.) -> ()
      | _ -> problem "%s: failed_frac is not 0" w.name)
    rows

(* ---- command line ----------------------------------------------------------------- *)

let () =
  let workload = ref [] and seed = ref 1 and seconds = ref 15. and trace = ref false in
  let reps = ref 0 and quick = ref false and digests = ref false and child = ref "" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v :: !workload; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v <> "0"; parse rest
    | "--reps" :: v :: rest -> reps := int_of_string v; parse rest
    | "--spans" :: v :: rest -> spans_file := v; parse rest
    | "--child" :: v :: rest -> child := v; parse rest
    | "--quick" :: rest -> quick := true; parse rest
    | "--digests" :: rest -> digests := true; parse rest
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let selected =
    match !workload with
    | [] -> Workloads.all
    | names ->
        List.map
          (fun n ->
            match Workloads.find n with
            | Some w -> w
            | None -> failwith (Printf.sprintf "unknown workload %S" n))
          (List.rev names)
  in
  Rep.ensure_dir Rep.work_dir;
  let seed = !seed and quick = !quick in
  if !child <> "" then begin
    let w = List.hd selected in
    if !child = "traced" then begin
      Measure.tracing := true;
      Measure.trace_id := Printf.sprintf "%s/seed%d" w.name seed
    end;
    (match !child with
    | "timed" -> Rep.timed w ~seed ~quick
    | "attrib" -> Rep.attributed w ~seed ~quick
    | "traced" -> Rep.traced w ~seed ~quick
    | "p99twin" -> Rep.p99_twin w ~seed ~quick
    | k -> failwith ("unknown child kind " ^ k));
    Measure.flush_spans !spans_file
  end
  else if !digests then
    List.iter
      (fun w ->
        match spawn "timed" w ~seed ~quick with
        | Some j ->
            Printf.printf "%s %d %s %s\n%!" w.name seed (if quick then "quick" else "full")
              (Option.value ~default:"?" (Json.string_member "digest" j))
        | None -> exit 1)
      selected
  else if !reps > 0 || quick then begin
    if !trace || quick then (try Sys.remove !spans_file with Sys_error _ -> ());
    let out =
      interleaved ~reps:(max 1 !reps) ~seed ~quick ~trace:(!trace || quick) selected
    in
    if quick then self_check out;
    Printf.printf "\n%s\n" (if !problems = [] then "all output checks passed" else "OUTPUT CHECKS FAILED");
    if !problems <> [] then exit 1
  end
  else
    match selected with
    | [ w ] ->
        if !trace then (try Sys.remove !spans_file with Sys_error _ -> ());
        single w ~seed ~seconds:!seconds ~trace:!trace
    | _ -> failwith "pass one --workload, or --reps N for all of them"
