let version = 8
let magic = "PASE-RES"
let header_len = String.length magic + 4

let encode (r : Runner.result) =
  Printf.sprintf "%s%04d%s" magic version
    (* lint: allow no-marshal — this module IS the blessed codec boundary *)
    (Marshal.to_string (r : Runner.result) [])

let decode s =
  if String.length s < header_len then Error "truncated header"
  else if String.sub s 0 (String.length magic) <> magic then
    Error "bad magic (not a PASE result blob)"
  else
    match int_of_string_opt (String.sub s (String.length magic) 4) with
    | None -> Error "unreadable version field"
    | Some v when v <> version ->
        Error (Printf.sprintf "version mismatch: blob v%d, codec v%d" v version)
    | Some _ -> (
        (* lint: allow no-marshal — this module IS the blessed codec boundary *)
        try Ok (Marshal.from_string s header_len : Runner.result)
        with exn ->
          Error (Printf.sprintf "corrupt payload: %s" (Printexc.to_string exn)))

(* ---- JSON export ------------------------------------------------------- *)

let json_opt_int = function None -> "null" | Some i -> string_of_int i

let record_to_json (r : Fct.record) =
  Printf.sprintf
    {|{"flow":%d,"size_pkts":%d,"start":%s,"fct":%s,"deadline":%s,"censored":%b,"ideal":%s,"task":%s,"fluid":%b}|}
    r.Fct.flow r.Fct.size_pkts
    (Json.float r.Fct.start_time)
    (Json.float r.Fct.fct)
    (Json.opt_float r.Fct.deadline)
    r.Fct.censored
    (Json.opt_float r.Fct.ideal)
    (json_opt_int r.Fct.task)
    r.Fct.fluid

let attrib_record_to_json ~size_pkts (r : Delay.record) =
  Printf.sprintf
    {|{"flow":%d,"size_pkts":%d,"fct":%s,"serialization":%s,"propagation":%s,"queueing":%s,"arb_wait":%s,"rto_stall":%s,"timeouts":%d}|}
    r.Delay.flow size_pkts (Json.float r.Delay.fct)
    (Json.float r.Delay.serialization)
    (Json.float r.Delay.propagation)
    (Json.float r.Delay.queueing)
    (Json.float r.Delay.arb_wait)
    (Json.float r.Delay.rto_stall)
    r.Delay.timeouts

let to_json ?(records = false) ?(extra = []) (r : Runner.result) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       {|{"version":%d,"scenario":%s,"protocol":%s,"load":%s,"afct":%s,"p99":%s,"p999":%s,"app_throughput":%s,"loss_rate":%s,"ctrl_msgs":%d,"ctrl_msg_rate":%s,"duration":%s,"events":%d,"completed":%d,"censored":%d,"stray_pkts":%d,"peak_heap":%d|}
       version (Json.string r.Runner.scenario)
       (Json.string r.Runner.protocol)
       (Json.float r.Runner.load) (Json.float r.Runner.afct)
       (Json.float r.Runner.p99)
       (Json.float r.Runner.p999)
       (Json.float r.Runner.app_throughput)
       (Json.float r.Runner.loss_rate)
       r.Runner.ctrl_msgs
       (Json.float r.Runner.ctrl_msg_rate)
       (Json.float r.Runner.duration)
       r.Runner.events r.Runner.completed r.Runner.censored
       r.Runner.stray_pkts r.Runner.peak_heap);
  (* Fault-plane metrics: always emitted so the schema is stable; all-zero /
     null for fault-free runs. *)
  Buffer.add_string buf
    (Printf.sprintf
       {|,"blackholed_pkts":%d,"ctrl_lost":%d,"faults":{"injected":%d,"link_downtime_s":%s,"recovery_s":%s,"afct_baseline":%s,"afct_inflation":%s}|}
       r.Runner.blackholed_pkts r.Runner.ctrl_lost_msgs
       r.Runner.faults_injected
       (Json.float r.Runner.link_downtime_s)
       (Json.float r.Runner.recovery_s)
       (Json.float r.Runner.afct_baseline)
       (Json.float r.Runner.afct_inflation));
  (* Statistics mode: exact retains every record; streaming carries the
     sketch parameters and the p99 rank-error bound so downstream tooling
     can judge quantile accuracy without the raw sample. *)
  (match Fct.sketch_info r.Runner.fct with
  | None -> Buffer.add_string buf {|,"stats":{"mode":"exact"}|}
  | Some sk ->
      Buffer.add_string buf
        (Printf.sprintf
           {|,"stats":{"mode":"streaming","quantile_rank_error_p99":%s,"sketch":{"delta":%s,"centroids":%d,"reservoir_len":%d,"reservoir_seen":%d}}|}
           (Json.float (Fct.quantile_rank_error r.Runner.fct 99.))
           (Json.float sk.Fct.sk_delta)
           sk.Fct.sk_centroids sk.Fct.sk_reservoir_len
           sk.Fct.sk_reservoir_seen));
  (* Delay attribution aggregate (codec v6); absent unless run ~attrib. *)
  (match r.Runner.attrib with
  | None -> ()
  | Some a ->
      Buffer.add_string buf
        (Printf.sprintf {|,"attrib":%s|} (Attrib.to_json a)));
  (* Hybrid fidelity accounting (codec v7); absent unless run ~hybrid. *)
  (match r.Runner.hybrid with
  | None -> ()
  | Some h ->
      Buffer.add_string buf
        (Printf.sprintf
           {|,"hybrid":{"on":%b,"fluid_threshold":%d,"fluid_flows":%d,"demotions":%d,"fault_demotions":%d,"recomputes":%d,"fluid_bytes":%s,"short_p99":%s}|}
           h.Runner.hybrid_on h.Runner.threshold_bytes h.Runner.fluid_flows
           h.Runner.fluid_demotions h.Runner.fault_demotions
           h.Runner.fluid_recomputes
           (Json.float h.Runner.fluid_bytes)
           (Json.float h.Runner.short_p99)));
  (* Coflow (task-group) CCT aggregate (codec v8); absent when no spec
     carried a task id. *)
  (match r.Runner.coflow with
  | None -> ()
  | Some c ->
      Buffer.add_string buf
        (Printf.sprintf {|,"coflow":%s|} (Coflow.to_json c)));
  (match r.Runner.sched_profile with
  | [] -> ()
  | sites ->
      Buffer.add_string buf ",\"sched_profile\":{";
      List.iteri
        (fun i (label, n) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf {|%s:%d|} (Json.string label) n))
        sites;
      Buffer.add_char buf '}');
  (* GC deltas (profiling runs only; all-zero otherwise). Nondeterministic
     across processes, like wall time: strip ".gc" before byte-comparing. *)
  if
    r.Runner.gc_minor_words <> 0.
    || r.Runner.gc_promoted_words <> 0.
    || r.Runner.gc_major_collections <> 0
  then
    Buffer.add_string buf
      (Printf.sprintf
         {|,"gc":{"minor_words":%s,"promoted_words":%s,"major_collections":%d}|}
         (Json.float r.Runner.gc_minor_words)
         (Json.float r.Runner.gc_promoted_words)
         r.Runner.gc_major_collections);
  List.iter
    (fun (key, value) ->
      Buffer.add_string buf
        (Printf.sprintf {|,%s:%s|} (Json.string key) value))
    extra;
  if records then begin
    Buffer.add_string buf ",\"flows\":[";
    List.iteri
      (fun i rec_ ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (record_to_json rec_))
      (Fct.records r.Runner.fct);
    Buffer.add_char buf ']'
  end;
  Buffer.add_char buf '}';
  Buffer.contents buf
