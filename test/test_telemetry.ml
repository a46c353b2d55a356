(* Link telemetry through the fabric sampler: sampling cadence, utilization
   math, queue peaks. *)

let rig () =
  let e = Engine.create () in
  let c = Counters.create () in
  let arrivals = ref 0 in
  let link =
    Link.create e
      ~qdisc:(Queue_disc.droptail c ~limit_pkts:1000)
      ~rate_bps:1e9 ~delay_s:0.
      ~deliver:(fun _ -> incr arrivals)
      ()
  in
  (e, link)

let pkt seq =
  Packet.make ~flow:1 ~src:0 ~dst:1 ~kind:Packet.Data ~size:1500 ~seq
    ~sent_at:0. ()

let start e link =
  let store = Series.store () in
  let s = Sampler.start e ~store ~interval:1e-3 ~links:[ ("l", link) ] () in
  (s, store)

let values store metric =
  List.filter_map
    (fun (s : Series.sample) ->
      if s.Series.metric = metric then Some s.Series.v else None)
    (Series.samples store)

let peak store metric = List.fold_left Float.max 0. (values store metric)

let test_idle_link_zero_utilization () =
  let e, link = rig () in
  let s, store = start e link in
  Engine.run ~until:0.005 e;
  Sampler.stop s;
  Alcotest.(check bool) "samples taken" true (Sampler.ticks s >= 4);
  Alcotest.(check (float 1e-9))
    "idle = 0" 0.
    (Summary.mean (values store "link.l.util"));
  Alcotest.(check (float 0.)) "no queue" 0. (peak store "q.l.pkts")

let test_saturated_link_full_utilization () =
  let e, link = rig () in
  let s, store = start e link in
  (* 1 Gbps for 5 ms = ~417 packets; enqueue more than that. *)
  for i = 0 to 599 do
    Link.send link (pkt i)
  done;
  Engine.run ~until:0.005 e;
  Sampler.stop s;
  let u = Summary.mean (values store "link.l.util") in
  Alcotest.(check bool) (Printf.sprintf "busy (%.2f)" u) true (u > 0.95);
  Alcotest.(check bool) "queue observed" true (peak store "q.l.pkts" > 100.)

let test_stop_freezes_samples () =
  let e, link = rig () in
  let s, store = start e link in
  Engine.run ~until:0.002 e;
  Sampler.stop s;
  let n = Series.seen store in
  Engine.run ~until:0.010 e;
  Alcotest.(check int) "no new samples after stop" n (Series.seen store)

(* Chunked [Engine.run ~until] segments must yield exactly the samples a
   one-shot run produces — times, metrics and values alike. (The engine's
   horizon check peeks rather than pops, so a tick scheduled past one
   chunk's horizon keeps its place; this pins the guarantee for the
   sampler.) *)
let test_chunked_matches_one_shot () =
  let with_traffic run_segments =
    let e, link = rig () in
    let s, store = start e link in
    for i = 0 to 299 do
      Link.send link (pkt i)
    done;
    run_segments e;
    Sampler.stop s;
    Series.samples store
  in
  let oneshot = with_traffic (fun e -> Engine.run ~until:0.005 e) in
  let chunked =
    with_traffic (fun e ->
        List.iter
          (fun until -> Engine.run ~until e)
          [ 0.0007; 0.0018; 0.003; 0.0042; 0.005 ])
  in
  Alcotest.(check int)
    "same sample count" (List.length oneshot) (List.length chunked);
  List.iter2
    (fun (a : Series.sample) (b : Series.sample) ->
      Alcotest.(check string) "metric" a.Series.metric b.Series.metric;
      Alcotest.(check bool) "time" true (a.Series.t = b.Series.t);
      Alcotest.(check bool) "value" true (a.Series.v = b.Series.v))
    oneshot chunked

let test_rejects_bad_period () =
  let e, link = rig () in
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Sampler.start: interval must be positive") (fun () ->
      ignore
        (Sampler.start e ~store:(Series.store ()) ~interval:0.
           ~links:[ ("l", link) ] ()))

let suite =
  [
    Alcotest.test_case "idle link" `Quick test_idle_link_zero_utilization;
    Alcotest.test_case "saturated link" `Quick
      test_saturated_link_full_utilization;
    Alcotest.test_case "stop freezes" `Quick test_stop_freezes_samples;
    Alcotest.test_case "chunked matches one-shot" `Quick
      test_chunked_matches_one_shot;
    Alcotest.test_case "rejects bad period" `Quick test_rejects_bad_period;
  ]
