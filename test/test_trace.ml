(* Trace bus: disabled-bus overhead contract, JSONL determinism across
   reruns and across fork (serial vs. worker), filter semantics, ring-buffer
   bounds, and the stray-packet counter surfaced by the runner. *)

let tmp_file tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "pase-trace-%s-%d.jsonl" tag (Unix.getpid ()))

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let traced_run_to path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let sc = Scenario.testbed ~num_flows:20 ~seed:2 ~load:0.5 () in
      Runner.run ~trace:(Trace.create [ Trace.jsonl_sink oc ]) Runner.pase sc)

let pkt ~flow seq =
  Packet.make ~flow ~src:0 ~dst:1 ~kind:Packet.Data ~size:1500 ~seq
    ~sent_at:0. ()

(* A bus with no sink is off and counts nothing: the guard at every
   instrumentation site short-circuits. *)
let test_disabled_bus_is_silent () =
  let bus = Trace.create [] in
  Alcotest.(check bool) "bus off" false (Trace.on bus);
  Alcotest.(check bool) "off bus off" false (Trace.on Trace.off);
  let sc = Scenario.testbed ~num_flows:10 ~seed:1 ~load:0.4 () in
  let r = Runner.run ~trace:bus Runner.Dctcp sc in
  Alcotest.(check bool) "flows ran" true (r.Runner.completed > 0);
  Alcotest.(check int) "no events emitted" 0 (Trace.emitted bus);
  (* emit without a sink is a no-op, not an error *)
  Trace.emit bus (Trace.Flow_finish { flow = 0; fct = 1. });
  Trace.emit Trace.off (Trace.Flow_finish { flow = 0; fct = 1. });
  Alcotest.(check int) "still nothing" 0 (Trace.emitted bus);
  Alcotest.(check int) "off bus counts nothing" 0 (Trace.emitted Trace.off)

(* Two traced runs of the same configuration produce byte-identical JSONL
   files, and every line is a JSON object with the common envelope. *)
let test_jsonl_reruns_byte_identical () =
  let f1 = tmp_file "a" and f2 = tmp_file "b" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with _ -> ()) [ f1; f2 ])
    (fun () ->
      let r1 = traced_run_to f1 in
      let r2 = traced_run_to f2 in
      Alcotest.(check bool) "results identical" true
        (Result_codec.encode r1 = Result_codec.encode r2);
      let a = read_file f1 and b = read_file f2 in
      Alcotest.(check bool) "trace non-empty" true (String.length a > 0);
      Alcotest.(check bool) "traces byte-identical" true (a = b);
      String.split_on_char '\n' a
      |> List.iter (fun line ->
             if line <> "" then begin
               Alcotest.(check bool) "line is an object" true
                 (line.[0] = '{' && line.[String.length line - 1] = '}');
               Alcotest.(check bool) "line has a timestamp" true
                 (String.length line > 5 && String.sub line 0 5 = {|{"t":|})
             end))

(* A forked child (the shape of a parallel worker) writes exactly the trace
   the parent writes for the same job. *)
let test_fork_matches_serial () =
  let f_parent = tmp_file "serial" and f_child = tmp_file "forked" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with _ -> ()) [ f_parent; f_child ])
    (fun () ->
      (match Unix.fork () with
      | 0 ->
          let ok = try ignore (traced_run_to f_child); true with _ -> false in
          Stdlib.exit (if ok then 0 else 1)
      | child ->
          let _, status = Unix.waitpid [] child in
          Alcotest.(check bool) "child succeeded" true
            (status = Unix.WEXITED 0));
      ignore (traced_run_to f_parent);
      Alcotest.(check bool) "forked trace matches serial" true
        (read_file f_parent = read_file f_child))

(* Filter semantics, driven through buses with synthetic events: same-key
   values union, distinct keys intersect, flow/link filters exclude
   flowless/linkless events. Each bus shares one ring sink. *)
let test_filters () =
  let ring, sink = Trace.ring_sink ~capacity:64 in
  let burst bus =
    Trace.emit bus
      (Trace.Drop { pkt = pkt ~flow:1 0; link = (0, 3); qpkts = 9 });
    Trace.emit bus
      (Trace.Drop { pkt = pkt ~flow:2 0; link = (4, 5); qpkts = 9 });
    Trace.emit bus
      (Trace.Enqueue { pkt = pkt ~flow:1 1; link = (0, 3); qpkts = 1 });
    Trace.emit bus (Trace.Cwnd { flow = 2; cwnd = 4.; ssthresh = 8. });
    Trace.emit bus
      (Trace.Arb { link = (0, 3); delegate = 0; flows = 2; top_flows = 1 })
  in
  let all = Trace.create [ sink ] in
  burst all;
  Alcotest.(check int) "no filter passes all" 5 (Trace.ring_seen ring);
  Alcotest.(check int) "bus counts what passed" 5 (Trace.emitted all);

  burst (Trace.create ~kinds:[ Trace.Kind.Drop ] [ sink ]);
  Alcotest.(check int) "kind filter" 7 (Trace.ring_seen ring);

  burst (Trace.create ~kinds:[ Trace.Kind.Drop ] ~flows:[ 1 ] [ sink ]);
  (* kind=drop AND flow=1: one event per burst *)
  Alcotest.(check int) "kind+flow intersect" 8 (Trace.ring_seen ring);

  burst (Trace.create ~flows:[ 1 ] [ sink ]);
  (* flow=1 alone: drop+enqueue for flow 1; Cwnd is flow 2; Arb is
     flowless and must not pass a flow filter. *)
  Alcotest.(check int) "flow filter excludes flowless" 10
    (Trace.ring_seen ring);

  let links = Trace.create ~links:[ (4, 5) ] [ sink ] in
  burst links;
  Alcotest.(check int) "link filter excludes linkless" 11
    (Trace.ring_seen ring);
  Alcotest.(check int) "each bus counts its own" 1 (Trace.emitted links);
  match List.rev (Trace.ring_contents ring) with
  | (_, Trace.Drop { link = (4, 5); _ }) :: _ -> ()
  | (_, e) :: _ ->
      Alcotest.failf "unexpected last event kind %s"
        (Trace.Kind.name (Trace.kind_of e))
  | [] -> Alcotest.fail "ring empty"

(* A bus stamps events from its clock; [with_clock] restamps the same bus,
   sharing its sinks and its emitted count. *)
let test_clock () =
  let ring, sink = Trace.ring_sink ~capacity:4 in
  let bus = Trace.with_clock (Trace.create [ sink ]) (fun () -> 1.5) in
  Trace.emit bus (Trace.Ctrl { flow = 0; msgs = 1 });
  let later = Trace.with_clock bus (fun () -> 2.5) in
  Trace.emit later (Trace.Ctrl { flow = 1; msgs = 1 });
  Alcotest.(check (list (float 0.))) "timestamps" [ 1.5; 2.5 ]
    (List.map fst (Trace.ring_contents ring));
  Alcotest.(check int) "shared count" 2 (Trace.emitted bus);
  Alcotest.(check bool) "off stays off" false
    (Trace.on (Trace.with_clock Trace.off (fun () -> 1.)))

(* The ring keeps the newest [capacity] events, oldest first, and counts
   everything it ever saw. *)
let test_ring_bounds () =
  let ring, sink = Trace.ring_sink ~capacity:4 in
  let bus = Trace.create [ sink ] in
  for i = 0 to 9 do
    Trace.emit bus (Trace.Ctrl { flow = i; msgs = 1 })
  done;
  Alcotest.(check int) "length bounded" 4 (Trace.ring_length ring);
  Alcotest.(check int) "seen counts evicted" 10 (Trace.ring_seen ring);
  Alcotest.(check int) "dropped = seen - capacity" 6 (Trace.ring_dropped ring);
  let flows =
    List.map
      (function _, Trace.Ctrl { flow; _ } -> flow | _ -> -1)
      (Trace.ring_contents ring)
  in
  Alcotest.(check (list int)) "newest four, oldest first" [ 6; 7; 8; 9 ] flows;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Trace.ring_sink: capacity must be positive") (fun () ->
      ignore (Trace.ring_sink ~capacity:0))

(* One incast stack: eight DCTCP flows of seeded sizes into host 0 of a
   five-host rack, shallow enough to mark and drop. [trace] and [attrib]
   are its observers; [records] collects its attribution records as its
   flows complete. *)
let incast_stack ?trace ?(attrib = false) ~seed () =
  let e = Engine.create () in
  let clock () = Engine.now e in
  let c =
    Counters.create
      ?trace:(Option.map (fun b -> Trace.with_clock b clock) trace)
      ~delay:(if attrib then Delay.create e else Delay.off)
      ()
  in
  let topo =
    Topology.single_rack e c ~hosts:5 ~rate_bps:1e9 ~link_delay_s:10e-6
      ~qdisc:(fun ~rate_bps:_ ->
        Queue_disc.red_ecn c ~limit_pkts:30 ~mark_threshold:8)
  in
  let net = topo.Topology.net in
  let records = ref [] in
  let rng = Rng.create seed in
  for id = 0 to 7 do
    let src = topo.Topology.hosts.(1 + (id mod 4))
    and dst = topo.Topology.hosts.(0) in
    let start = float_of_int id *. 40e-6 in
    let flow =
      Flow.make ~id ~src ~dst ~size_pkts:(20 + Rng.int rng 80)
        ~start_time:start ()
    in
    Engine.schedule_at e ~time:start (fun () ->
        let recv = Receiver.create net ~flow () in
        let init_rtt = Topology.base_rtt topo ~src ~dst ~data_bytes:1500 in
        let on_complete _ ~fct:_ =
          Receiver.stop recv;
          Option.iter
            (fun r -> records := r :: !records)
            (Delay.take c.Counters.delay ~flow:id)
        in
        Sender_base.start
          (Dctcp.create net ~flow ~conf:(Dctcp.conf ~init_rtt ()) ~on_complete
             ()))
  done;
  (e, c, records)

(* An event's JSON line without its packet id: ids come from [Packet]'s
   process-wide counter, which two interleaved runs share. *)
let without_pkt_id =
  let id = Str.regexp {|"pkt":[0-9]+|} in
  fun line -> Str.global_replace id {|"pkt":_|} line

let ring_lines ring =
  List.map
    (fun (time, ev) -> without_pkt_id (Trace.to_json ~time ev))
    (Trace.ring_contents ring)

(* Two simulations in one process keep their own observers: a traced stack
   and an attributed one, stepped alternately in 100 us chunks, each
   reproduce their solo runs — the traced stack's events and timestamps,
   the other's attribution records — and the untraced stack emits
   nothing. *)
let test_two_stacks_keep_their_observers () =
  let ring_solo, sink = Trace.ring_sink ~capacity:100_000 in
  let e, _, _ = incast_stack ~trace:(Trace.create [ sink ]) ~seed:1 () in
  Engine.run e;
  let e, _, solo_records = incast_stack ~attrib:true ~seed:2 () in
  Engine.run e;
  let ring, sink = Trace.ring_sink ~capacity:100_000 in
  let bus = Trace.create [ sink ] in
  let ea, _, _ = incast_stack ~trace:bus ~seed:1 () in
  let eb, cb, records = incast_stack ~attrib:true ~seed:2 () in
  let t = ref 0. in
  while Engine.pending ea + Engine.pending eb > 0 do
    t := !t +. 100e-6;
    Engine.run ~until:!t ea;
    Engine.run ~until:!t eb
  done;
  Alcotest.(check bool) "traced stack emitted" true (Trace.ring_seen ring > 0);
  Alcotest.(check (list string)) "traced stack's events equal its solo run"
    (ring_lines ring_solo) (ring_lines ring);
  Alcotest.(check int) "bus counts its own run" (Trace.ring_seen ring)
    (Trace.emitted bus);
  Alcotest.(check bool) "untraced stack's bus is off" false
    (Trace.on cb.Counters.trace);
  Alcotest.(check int) "untraced stack emits nothing" 0
    (Trace.emitted cb.Counters.trace);
  Alcotest.(check int) "every attributed flow completed" 8
    (List.length !records);
  Alcotest.(check bool) "attribution records equal their solo run" true
    (List.equal ( = ) !solo_records !records)

(* Kind names round-trip (the CLI parses them back). *)
let test_kind_names_roundtrip () =
  List.iter
    (fun k ->
      match Trace.Kind.of_name (Trace.Kind.name k) with
      | Some k' ->
          Alcotest.(check int) "round-trips" (Trace.Kind.index k)
            (Trace.Kind.index k')
      | None -> Alcotest.failf "name %s not parsed" (Trace.Kind.name k))
    Trace.Kind.all;
  Alcotest.(check bool) "unknown name rejected" true
    (Trace.Kind.of_name "no-such-kind" = None);
  Alcotest.(check int) "count matches all" Trace.Kind.count
    (List.length Trace.Kind.all)

(* Runner surfaces stray packets (none on a healthy run) and the engine's
   peak heap depth. *)
let test_runner_counters () =
  let sc = Scenario.testbed ~num_flows:15 ~seed:4 ~load:0.5 () in
  let r = Runner.run ~profile:true Runner.Dctcp sc in
  Alcotest.(check int) "no stray packets" 0 r.Runner.stray_pkts;
  Alcotest.(check bool) "peak heap positive" true (r.Runner.peak_heap > 0);
  Alcotest.(check bool) "profile has sites" true
    (List.length r.Runner.sched_profile > 0);
  List.iter
    (fun (label, n) ->
      Alcotest.(check bool) (label ^ " counted") true (n >= 0))
    r.Runner.sched_profile;
  (* unprofiled runs carry no site table *)
  let r' = Runner.run Runner.Dctcp sc in
  Alcotest.(check (list (pair string int))) "profiling off" []
    r'.Runner.sched_profile

(* Every stray on the 400-flow incast rack is a late delivery: a data or
   ACK packet that reached its destination after the flow's handler
   closed. None is unroutable. pFabric accounts for nearly all of them
   (see DESIGN.md §11). *)
let test_incast_strays_are_late_deliveries () =
  let pfabric_strays = ref 0 in
  List.iter
    (fun load ->
      let sc = Scenario.worker_aggregator ~num_flows:400 ~seed:1 ~load () in
      List.iter
        (fun proto ->
          let ring, sink = Trace.ring_sink ~capacity:1024 in
          let bus = Trace.create ~kinds:[ Trace.Kind.Stray ] [ sink ] in
          let r = Runner.run ~trace:bus proto sc in
          let what = Printf.sprintf "%s at load %g" (Runner.name proto) load in
          Alcotest.(check int) (what ^ ": every stray traced") r.Runner.stray_pkts
            (Trace.ring_seen ring);
          Alcotest.(check int) (what ^ ": ring kept all") 0 (Trace.ring_dropped ring);
          List.iter
            (function
              | _, Trace.Stray { pkt; node } ->
                  Alcotest.(check int) (what ^ ": stray at its destination")
                    pkt.Packet.dst node;
                  Alcotest.(check bool) (what ^ ": data or ACK") true
                    (pkt.Packet.kind = Packet.Data || pkt.Packet.kind = Packet.Ack)
              | _ -> Alcotest.fail (what ^ ": non-stray event on a stray bus"))
            (Trace.ring_contents ring);
          match proto with
          | Runner.Pfabric ->
              pfabric_strays := !pfabric_strays + r.Runner.stray_pkts
          | _ -> ())
        [
          Runner.pase;
          Runner.Dctcp;
          Runner.D2tcp;
          Runner.L2dct;
          Runner.Pfabric;
          Runner.Pdq;
          Runner.D3;
        ])
    [ 0.3; 0.6; 0.9 ];
  Alcotest.(check bool) "pFabric strays observed" true (!pfabric_strays > 0)

let suite =
  [
    Alcotest.test_case "disabled bus is silent" `Quick
      test_disabled_bus_is_silent;
    Alcotest.test_case "jsonl reruns byte-identical" `Quick
      test_jsonl_reruns_byte_identical;
    Alcotest.test_case "fork matches serial" `Quick test_fork_matches_serial;
    Alcotest.test_case "filters" `Quick test_filters;
    Alcotest.test_case "clock" `Quick test_clock;
    Alcotest.test_case "ring bounds" `Quick test_ring_bounds;
    Alcotest.test_case "kind names roundtrip" `Quick test_kind_names_roundtrip;
    Alcotest.test_case "runner counters" `Quick test_runner_counters;
    Alcotest.test_case "incast strays are late deliveries" `Quick
      test_incast_strays_are_late_deliveries;
    Alcotest.test_case "two stacks keep their observers" `Quick
      test_two_stacks_keep_their_observers;
  ]
