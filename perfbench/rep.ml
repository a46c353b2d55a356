(* One repetition of a workload, run in a child process of its own so every
   repetition starts from a fresh heap and reports its own peak RSS. The
   child prints its measurements as one JSON line on stdout. *)

open Workloads

let work_dir = ".perfbench"

let ensure_dir d = if not (Sys.file_exists d) then Unix.mkdir d 0o755

let remove_dir d =
  if Sys.file_exists d then begin
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Unix.rmdir d
  end

(* Result JSON without the GC deltas: they depend on process history, not
   on the simulation, and stay out of every byte comparison. *)
let strip_gc json =
  let key = {|,"gc":{|} in
  let kl = String.length key in
  let rec find i =
    if i + kl > String.length json then None
    else if String.sub json i kl = key then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> json
  | Some i ->
      let j = String.index_from json i '}' in
      String.sub json 0 i ^ String.sub json (j + 1) (String.length json - j - 1)

let json_digest results =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun r -> strip_gc (Result_codec.to_json r)) results)))

let blob_digest results =
  Digest.to_hex (Digest.string (String.concat "" (List.map Result_codec.encode results)))

let sum f results = List.fold_left (fun acc r -> acc +. f r) 0. results
let isum f results = sum (fun r -> float_of_int (f r)) results

type cold = {
  results : Runner.result list;
  blob : string;  (** digest of the encoded results, taken first *)
  json : string;  (** digest of their JSON *)
  wall_s : float;  (** the cold [Parallel.run_jobs] call *)
  job_walls : float array;  (** per-job simulate time, from [on_result] *)
  rss_mb : float;  (** peak RSS right after the cold call *)
  warm_s : float list;  (** repeated warm calls served from the cache *)
  warm_hits : int;  (** fewest jobs any warm call served from the cache *)
  warm_same : bool;  (** every warm result equals its cold twin *)
}

(* The cold sweep with a fresh on-disk cache, then the identical jobs again
   from the warm cache. *)
let cold_then_warm ?(profile = false) w ~seed ~quick =
  let jobs = w.jobs ~seed ~quick in
  let n = List.length jobs in
  let width = pool_width w in
  ensure_dir work_dir;
  let dir = Printf.sprintf "%s/cache-%d" work_dir (Unix.getpid ()) in
  remove_dir dir;
  (* The cache key digests the running executable once per process: pay
     for that before the clock starts. *)
  ignore (Parallel.job_key (fst (List.hd jobs)) (snd (List.hd jobs)));
  let job_walls = Array.make n nan in
  let run_jobs ~on_result =
    Parallel.run_jobs ~jobs:width ~cache_dir:(Some dir) ~profile ?hybrid:w.hybrid
      ~on_result jobs
  in
  let results, wall_s =
    Measure.time (fun () ->
        Measure.span "Parallel.run_jobs" (fun () ->
            run_jobs ~on_result:(fun i ~cached:_ ~wall _ ->
                job_walls.(i) <- wall;
                let stop = Measure.now () in
                Measure.add_span ~parent:!Measure.open_span
                  ~name:(Printf.sprintf "job %d" i) ~start:(stop -. wall) ~stop)))
  in
  let rss_mb = Measure.peak_rss_mb () in
  (* Encode before rendering JSON: rendering the coflow aggregate flushes
     its t-digest, which changes the encoded bytes of the same result. *)
  let blob = blob_digest results in
  let json = json_digest results in
  let warm_hits = ref n and warm_same = ref true in
  (* Each warm call starts from a collected heap, as a fresh process
     serving a cached run would. *)
  let warm_times =
    List.init 11 (fun _ ->
        Gc.full_major ();
        let hits = ref 0 in
        let again, t =
          Measure.time (fun () ->
              Measure.span "Parallel.run_jobs warm" (fun () ->
                  run_jobs ~on_result:(fun _ ~cached ~wall:_ _ ->
                      if cached then incr hits)))
        in
        warm_hits := min !warm_hits !hits;
        if json_digest again <> json then warm_same := false;
        t)
  in
  remove_dir dir;
  {
    results;
    blob;
    json;
    wall_s;
    job_walls;
    rss_mb;
    warm_s = warm_times;
    warm_hits = !warm_hits;
    warm_same = !warm_same;
  }

let outcome_fields (c : cold) =
  let r = c.results in
  [
    ("wall_s", c.wall_s);
    ("peak_rss_mb", c.rss_mb);
    ("sim_s", Array.fold_left ( +. ) 0. c.job_walls);
    ("runs", float_of_int (List.length r));
    ("completed", isum (fun r -> r.Runner.completed) r);
    ("censored", isum (fun r -> r.Runner.censored) r);
    ("events", isum (fun r -> r.Runner.events) r);
    ("stray_pkts", isum (fun r -> r.Runner.stray_pkts) r);
    ("warm_hits", float_of_int c.warm_hits);
    ("warm_same", if c.warm_same then 1. else 0.);
  ]

let print_line ?(strings = []) ?(lists = []) metrics =
  print_endline
    (Measure.json_obj
       (List.map (fun (k, v) -> (k, Printf.sprintf "%S" v)) strings
       @ List.map
           (fun (k, vs) -> (k, "[" ^ String.concat "," (List.map Measure.json_num vs) ^ "]"))
           lists
       @ [
           ( "metrics",
             Measure.json_obj (List.map (fun (k, v) -> (k, Measure.json_num v)) metrics) );
         ]))

(* A timed repetition: tracing, profiling, attribution and sampling off. *)
let timed w ~seed ~quick =
  let c = cold_then_warm w ~seed ~quick in
  print_line
    ~strings:[ ("digest", c.json); ("blob_digest", c.blob) ]
    ~lists:
      [
        ("job_walls_ms", Array.to_list (Array.map (fun w -> w *. 1e3) c.job_walls));
        ("warm_s", c.warm_s);
      ]
    (outcome_fields c)

(* The attributed twin of a timed repetition ([attrib_wall_s]): the same
   jobs through [Runner.run ~attrib:true], serially. Every record's
   components must sum back to its FCT exactly. *)
let attributed w ~seed ~quick =
  let worst = ref 0. and bad = ref 0 and attributed = ref 0 in
  let on_attrib ~size_pkts:_ (d : Delay.record) =
    incr attributed;
    if not (Delay.check_sum d) then incr bad;
    let parts =
      d.Delay.serialization +. d.Delay.propagation +. d.Delay.arb_wait
      +. d.Delay.rto_stall +. d.Delay.queueing
    in
    worst := Float.max !worst (Float.abs (d.Delay.fct -. parts))
  in
  let results, wall =
    Measure.time (fun () ->
        List.map
          (fun (proto, scenario) ->
            Runner.run ~attrib:true ~on_attrib ?hybrid:w.hybrid proto scenario)
          (w.jobs ~seed ~quick))
  in
  print_line
    [
      ("attrib_wall_s", wall);
      ("attrib_residual", !worst);
      ("attrib_bad", float_of_int !bad);
      ("attrib_flows", float_of_int !attributed);
      ("completed", isum (fun r -> r.Runner.completed) results);
    ]

(* ---- traced repetition ------------------------------------------------- *)

let site r label =
  float_of_int (Option.value ~default:0 (List.assoc_opt label r.Runner.sched_profile))

let hybrid_field f r = match r.Runner.hybrid with Some h -> f h | None -> 0.

let completed_pkts r =
  List.fold_left
    (fun acc (x : Fct.record) -> if x.Fct.censored then acc else acc + x.Fct.size_pkts)
    0 (Fct.records r.Runner.fct)

(* Median host milliseconds of [f], summed over the results. *)
let cost_ms results f =
  sum
    (fun r ->
      (Measure.summarise
         (List.init 5 (fun _ -> snd (Measure.time (fun () -> ignore (f r))) *. 1e3)))
        .Measure.median)
    results

(* The counts of a profiled run and the unit costs measured on its own
   results; a sweep is also rerun serially so the coordinator can check that
   forked results are byte-equal to in-process ones. *)
let traced w ~seed ~quick =
  let c = cold_then_warm ~profile:true w ~seed ~quick in
  let r = c.results in
  let jobs = w.jobs ~seed ~quick in
  let acks cls =
    List.fold_left2
      (fun acc (proto, _) r ->
        if ack_class proto = cls then acc +. float_of_int (completed_pkts r) else acc)
      0. jobs r
  in
  let finalise (r : Runner.result) =
    Measure.span "Fct finalise" (fun () ->
        let f = r.Runner.fct in
        ignore (Fct.afct f, Fct.percentile f 99., Fct.percentile f 99.9);
        ignore (Fct.cdf ~points:100 f, Fct.task_completion_times f))
  in
  let blobs = List.map Result_codec.encode r in
  let counts =
    [
      ("engine.events", isum (fun r -> r.Runner.events) r);
      ("engine.peak_heap", float_of_int (List.fold_left (fun m r -> max m r.Runner.peak_heap) 0 r));
      ("gc_minor_words", sum (fun r -> r.Runner.gc_minor_words) r);
      ("link.hops", sum (fun r -> site r "link-tx") r);
      ("net.stray_pkts", isum (fun r -> r.Runner.stray_pkts) r);
      ("transport.acks", isum completed_pkts r);
      ("acks.pase", acks "pase");
      ("acks.dctcp", acks "dctcp");
      ("acks.pfabric", acks "pfabric");
      ("transport.rto_fires", sum (fun r -> site r "rto") r);
      ("transport.paced_sends", sum (fun r -> site r "pace") r);
      ("arb.rounds", sum (fun r -> site r "arb-round") r);
      ("arb.applies", sum (fun r -> site r "arb-apply") r);
      ("arb.ctrl_msgs", isum (fun r -> r.Runner.ctrl_msgs) r);
      ("fluid.recomputes", sum (fun r -> site r "fluid-recompute") r);
      ("fluid.boundary_fires", sum (fun r -> site r "fluid-boundary") r);
      ("fluid.flows", sum (hybrid_field (fun h -> float_of_int h.Runner.fluid_flows)) r);
      ("fluid.bytes", sum (hybrid_field (fun h -> h.Runner.fluid_bytes)) r);
      ("stats.records", isum (fun r -> Fct.count r.Runner.fct) r);
    ]
  in
  let costs =
    [
      ("stats.finalise_ms", cost_ms r finalise);
      ("codec.encode_ms",
        cost_ms r (fun r -> Measure.span "Result_codec.encode" (fun () -> Result_codec.encode r)));
      ("codec.decode_ms",
        cost_ms blobs (fun b -> Measure.span "Result_codec.decode" (fun () -> Result_codec.decode b)));
      ("codec.json_ms",
        cost_ms r (fun r -> Measure.span "Result_codec.to_json" (fun () -> Result_codec.to_json r)));
      ("codec.blob_kb", float_of_int (List.fold_left (fun n b -> n + String.length b) 0 blobs) /. 1024.);
      ("profiled_wall_s", c.wall_s);
      ("workers", float_of_int (pool_width w));
      ("warm_same", if c.warm_same then 1. else 0.);
    ]
  in
  let serial =
    if w.sweep then
      let again =
        Measure.span "Parallel.run_jobs serial" (fun () ->
            Parallel.run_jobs ~jobs:1 ~cache_dir:None ?hybrid:w.hybrid jobs)
      in
      [ ("serial_blob_digest", blob_digest again) ]
    else []
  in
  print_line ~strings:serial (counts @ costs)

(* Short-flow p99 of the hybrid tier against the packet engine on a
   single-job workload, both tagged with the default threshold;
   deterministic, untimed. *)
let p99_twin w ~seed ~quick =
  let proto, scenario = List.hd (w.jobs ~seed ~quick) in
  let short_p99 enabled =
    match
      (Runner.run ~hybrid:{ Workloads.default_hybrid with Runner.enabled } proto scenario)
        .Runner.hybrid
    with
    | Some h -> h.Runner.short_p99
    | None -> nan
  in
  let packet = short_p99 false and hybrid = short_p99 true in
  print_line
    [
      ("packet_short_p99_ms", packet *. 1e3);
      ("hybrid_short_p99_ms", hybrid *. 1e3);
      ("short_p99_err_pct", (hybrid -. packet) /. packet *. 100.);
    ]
