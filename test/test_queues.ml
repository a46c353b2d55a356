(* Queue disciplines: droptail, RED/ECN marking, strict-priority bands,
   pFabric scheduling/dropping, and conservation properties. *)

let mk ?(flow = 0) ?(seq = 0) ?(size = 1500) ?(prio = 0.) ?(tos = 0)
    ?(ecn_capable = true) ?(kind = Packet.Data) () =
  Packet.make ~flow ~src:0 ~dst:1 ~kind ~size ~seq ~prio ~tos ~ecn_capable
    ~sent_at:0. ()

(* The tests drain queues through [take], the link's path; [dequeue] is
   only checked as its wrapper in [test_take_empty]. *)
let next q =
  let p = q.Queue_disc.take () in
  if p == Pkt_ring.dummy then Alcotest.fail "queue empty early" else p

let test_droptail_fifo () =
  let c = Counters.create () in
  let q = Queue_disc.droptail c ~limit_pkts:10 in
  for i = 0 to 4 do
    q.Queue_disc.enqueue (mk ~seq:i ())
  done;
  for i = 0 to 4 do
    Alcotest.(check int) "FIFO order" i (next q).Packet.seq
  done;
  Alcotest.(check bool) "drained" true (q.Queue_disc.take () == Pkt_ring.dummy)

let test_droptail_limit () =
  let c = Counters.create () in
  let q = Queue_disc.droptail c ~limit_pkts:3 in
  for i = 0 to 9 do
    q.Queue_disc.enqueue (mk ~seq:i ())
  done;
  Alcotest.(check int) "3 queued" 3 (q.Queue_disc.pkts ());
  Alcotest.(check int) "7 dropped" 7 c.Counters.dropped_pkts;
  Alcotest.(check int) "drops are data" 7 c.Counters.dropped_data_pkts

let test_droptail_bytes () =
  let c = Counters.create () in
  let q = Queue_disc.droptail c ~limit_pkts:10 in
  q.Queue_disc.enqueue (mk ~size:100 ());
  q.Queue_disc.enqueue (mk ~size:200 ());
  Alcotest.(check int) "bytes" 300 (q.Queue_disc.bytes ());
  ignore (next q);
  Alcotest.(check int) "bytes after dequeue" 200 (q.Queue_disc.bytes ())

let test_red_marks_above_threshold () =
  let c = Counters.create () in
  let q = Queue_disc.red_ecn c ~limit_pkts:100 ~mark_threshold:5 in
  let pkts = List.init 10 (fun i -> mk ~seq:i ()) in
  List.iter q.Queue_disc.enqueue pkts;
  (* Packets arriving when occupancy >= 5 (i.e. the 6th onward) are marked. *)
  let marked = List.filter (fun p -> p.Packet.ecn_ce) pkts in
  Alcotest.(check int) "5 marked" 5 (List.length marked);
  List.iter
    (fun p -> Alcotest.(check bool) "late ones marked" true (p.Packet.seq >= 5))
    marked;
  Alcotest.(check int) "counter" 5 c.Counters.ecn_marked_pkts

let test_red_ignores_non_ecn () =
  let c = Counters.create () in
  let q = Queue_disc.red_ecn c ~limit_pkts:100 ~mark_threshold:0 in
  let p = mk ~ecn_capable:false () in
  q.Queue_disc.enqueue p;
  Alcotest.(check bool) "not marked" false p.Packet.ecn_ce

let test_prio_strictness () =
  let c = Counters.create () in
  let q = Prio_queue.create c ~bands:4 ~limit_pkts:100 ~mark_threshold:50 in
  q.Queue_disc.enqueue (mk ~seq:0 ~tos:3 ());
  q.Queue_disc.enqueue (mk ~seq:1 ~tos:1 ());
  q.Queue_disc.enqueue (mk ~seq:2 ~tos:0 ());
  q.Queue_disc.enqueue (mk ~seq:3 ~tos:2 ());
  q.Queue_disc.enqueue (mk ~seq:4 ~tos:0 ());
  let order =
    List.init 5 (fun _ -> (next q).Packet.seq)
  in
  (* Band 0 first (FIFO within band), then bands 1, 2, 3. *)
  Alcotest.(check (list int)) "strict priority" [ 2; 4; 1; 3; 0 ] order

let test_prio_tos_clamped () =
  let c = Counters.create () in
  let q = Prio_queue.create c ~bands:2 ~limit_pkts:10 ~mark_threshold:50 in
  q.Queue_disc.enqueue (mk ~seq:0 ~tos:7 ());
  (* tos 7 with 2 bands goes to band 1, still deliverable. *)
  Alcotest.(check int) "delivered" 0
    (next q).Packet.seq

let test_prio_pushout () =
  let c = Counters.create () in
  let q = Prio_queue.create c ~bands:4 ~limit_pkts:4 ~mark_threshold:50 in
  (* Fill with low priority. *)
  for i = 0 to 3 do
    q.Queue_disc.enqueue (mk ~seq:i ~tos:3 ())
  done;
  (* High-priority arrival evicts a low-priority packet. *)
  q.Queue_disc.enqueue (mk ~seq:100 ~tos:0 ());
  Alcotest.(check int) "still 4 queued" 4 (q.Queue_disc.pkts ());
  Alcotest.(check int) "one drop" 1 c.Counters.dropped_pkts;
  Alcotest.(check int) "high prio delivered first" 100
    (next q).Packet.seq

let test_prio_full_of_high_drops_low () =
  let c = Counters.create () in
  let q = Prio_queue.create c ~bands:4 ~limit_pkts:4 ~mark_threshold:50 in
  for i = 0 to 3 do
    q.Queue_disc.enqueue (mk ~seq:i ~tos:0 ())
  done;
  (* Low-priority arrival cannot push out higher bands: dropped. *)
  q.Queue_disc.enqueue (mk ~seq:100 ~tos:2 ());
  Alcotest.(check int) "arrival dropped" 1 c.Counters.dropped_pkts;
  Alcotest.(check int) "4 queued" 4 (q.Queue_disc.pkts ())

let test_prio_per_band_marking () =
  let c = Counters.create () in
  let q, occupancy =
    Prio_queue.create_with_inspect c ~bands:2 ~limit_pkts:100 ~mark_threshold:3
  in
  (* Fill band 1 beyond K; band 0 packets must not be marked. *)
  for i = 0 to 5 do
    q.Queue_disc.enqueue (mk ~seq:i ~tos:1 ())
  done;
  let p0 = mk ~seq:100 ~tos:0 () in
  q.Queue_disc.enqueue p0;
  Alcotest.(check bool) "band-0 arrival unmarked" false p0.Packet.ecn_ce;
  Alcotest.(check int) "band 1 occupancy" 6 (occupancy 1);
  Alcotest.(check int) "band 0 occupancy" 1 (occupancy 0);
  Alcotest.(check int) "3 marked in band 1" 3 c.Counters.ecn_marked_pkts

let test_pfabric_priority_dequeue () =
  let c = Counters.create () in
  let q = Pfabric_queue.create c ~limit_pkts:10 in
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:0 ~prio:50. ());
  q.Queue_disc.enqueue (mk ~flow:2 ~seq:0 ~prio:10. ());
  q.Queue_disc.enqueue (mk ~flow:3 ~seq:0 ~prio:30. ());
  let first = next q in
  Alcotest.(check int) "lowest prio value wins" 2 first.Packet.flow

let test_pfabric_starvation_avoidance () =
  let c = Counters.create () in
  let q = Pfabric_queue.create c ~limit_pkts:10 in
  (* Flow 1's later packet has the best priority (smallest remaining), but
     its earliest buffered segment must leave first. *)
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:5 ~prio:20. ());
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:3 ~prio:22. ());
  q.Queue_disc.enqueue (mk ~flow:2 ~seq:0 ~prio:90. ());
  let first = next q in
  Alcotest.(check int) "flow 1 chosen" 1 first.Packet.flow;
  Alcotest.(check int) "earliest segment first" 3 first.Packet.seq

let test_pfabric_drop_worst () =
  let c = Counters.create () in
  let q = Pfabric_queue.create c ~limit_pkts:3 in
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:0 ~prio:10. ());
  q.Queue_disc.enqueue (mk ~flow:2 ~seq:0 ~prio:99. ());
  q.Queue_disc.enqueue (mk ~flow:3 ~seq:0 ~prio:50. ());
  (* Buffer full; a more important arrival evicts the worst (flow 2). *)
  q.Queue_disc.enqueue (mk ~flow:4 ~seq:0 ~prio:20. ());
  Alcotest.(check int) "one drop" 1 c.Counters.dropped_pkts;
  let flows =
    List.init 3 (fun _ -> (next q).Packet.flow)
  in
  Alcotest.(check (list int)) "survivors by priority" [ 1; 4; 3 ] flows

let test_pfabric_drop_arrival_if_worst () =
  let c = Counters.create () in
  let q = Pfabric_queue.create c ~limit_pkts:2 in
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:0 ~prio:10. ());
  q.Queue_disc.enqueue (mk ~flow:2 ~seq:0 ~prio:20. ());
  q.Queue_disc.enqueue (mk ~flow:3 ~seq:0 ~prio:99. ());
  Alcotest.(check int) "arrival dropped" 1 c.Counters.dropped_pkts;
  Alcotest.(check int) "still 2" 2 (q.Queue_disc.pkts ())

(* Packets that tie on (prio, seq) across flows go out in buffer order, and
   a removal moves the last buffered packet into the freed slot: after the
   first dequeue, flow 4's packet sits ahead of flows 2 and 3. *)
let test_pfabric_ties_follow_buffer_order () =
  let c = Counters.create () in
  let q = Pfabric_queue.create c ~limit_pkts:10 in
  q.Queue_disc.enqueue (mk ~flow:1 ~seq:0 ~prio:1. ());
  List.iter
    (fun flow -> q.Queue_disc.enqueue (mk ~flow ~seq:0 ~prio:5. ()))
    [ 2; 3; 4 ];
  let flows =
    List.init 4 (fun _ -> (next q).Packet.flow)
  in
  Alcotest.(check (list int)) "buffer order breaks ties" [ 1; 4; 3; 2 ] flows

(* Conservation: enqueued = dequeued + dropped + resident, for any queue. *)
let conservation_property make_queue =
  QCheck.Test.make ~count:200
    ~name:"queue conserves packets (in = out + dropped + resident)"
    QCheck.(list (pair (int_range 0 7) (int_range 0 3)))
    (fun ops ->
      let c = Counters.create () in
      let q = make_queue c in
      let attempts = ref 0 in
      let out = ref 0 in
      List.iteri
        (fun i (tos, deq) ->
          incr attempts;
          q.Queue_disc.enqueue (mk ~seq:i ~tos ~prio:(float_of_int tos) ());
          for _ = 1 to deq do
            if q.Queue_disc.take () != Pkt_ring.dummy then incr out
          done)
        ops;
      !attempts = !out + c.Counters.dropped_pkts + q.Queue_disc.pkts ())

let prop_droptail_conservation =
  conservation_property (fun c -> Queue_disc.droptail c ~limit_pkts:5)

let prop_prio_conservation =
  conservation_property (fun c ->
      Prio_queue.create c ~bands:4 ~limit_pkts:5 ~mark_threshold:3)

let prop_pfabric_conservation =
  conservation_property (fun c -> Pfabric_queue.create c ~limit_pkts:5)

let prop_prio_strict =
  QCheck.Test.make ~count:200 ~name:"prio bands always drain high before low"
    QCheck.(list (int_range 0 3))
    (fun toses ->
      let c = Counters.create () in
      let q = Prio_queue.create c ~bands:4 ~limit_pkts:10_000 ~mark_threshold:9999 in
      List.iteri (fun i tos -> q.Queue_disc.enqueue (mk ~seq:i ~tos ())) toses;
      let rec drain acc =
        let p = q.Queue_disc.take () in
        if p == Pkt_ring.dummy then List.rev acc else drain (p.Packet.tos :: acc)
      in
      let order = drain [] in
      order = List.sort compare toses)

(* [take] marks an empty queue with the shared [Pkt_ring.dummy], and
   [dequeue] turns that into [None], on every discipline. *)
let test_take_empty () =
  let c = Counters.create () in
  let discs =
    [
      ("droptail", Queue_disc.droptail c ~limit_pkts:4);
      ("red", Queue_disc.red_ecn c ~limit_pkts:4 ~mark_threshold:2);
      ("prio", Prio_queue.create c ~bands:3 ~limit_pkts:4 ~mark_threshold:2);
      ("pfabric", Pfabric_queue.create c ~limit_pkts:4);
    ]
  in
  List.iter
    (fun (name, q) ->
      Alcotest.(check bool) (name ^ ": empty take") true
        (q.Queue_disc.take () == Pkt_ring.dummy);
      let p = mk ~tos:2 () in
      q.Queue_disc.enqueue p;
      Alcotest.(check bool) (name ^ ": take returns the packet") true
        (q.Queue_disc.take () == p);
      Alcotest.(check bool) (name ^ ": drained take") true
        (q.Queue_disc.take () == Pkt_ring.dummy);
      Alcotest.(check bool) (name ^ ": drained dequeue") true
        (q.Queue_disc.dequeue () = None))
    discs

(* A sentinel in the packet pool would come back from [make] as a live
   packet, and a queue holding it would report itself empty ([take]
   returns the sentinel), stalling its link. [Packet.free] must ignore
   them: the rings' shared dummy, and the [Packet.dummy ()] values that
   [Link] (its idle wire head) and [Pfabric_queue] (its dead buffer slots)
   keep. *)
let test_sentinels_never_pooled () =
  Packet.reset_ids ();
  let sentinels = [ Pkt_ring.dummy; Packet.dummy (); Packet.dummy () ] in
  List.iter Packet.free sentinels;
  let dead = mk ~seq:7 () in
  Packet.free dead;
  List.iter Packet.free sentinels;
  let made = List.init 8 (fun i -> mk ~seq:i ()) in
  List.iter
    (fun p ->
      Alcotest.(check bool) "live id" true (p.Packet.id >= 0);
      Alcotest.(check bool) "not a sentinel" false
        (List.exists (fun s -> s == p) sentinels))
    made;
  Alcotest.(check bool) "the dead packet is reused" true
    (List.exists (fun p -> p == dead) made);
  List.iter
    (fun s -> Alcotest.(check int) "sentinel untouched" (-1) s.Packet.id)
    sentinels

let suite =
  [
    Alcotest.test_case "droptail FIFO" `Quick test_droptail_fifo;
    Alcotest.test_case "droptail limit" `Quick test_droptail_limit;
    Alcotest.test_case "droptail bytes" `Quick test_droptail_bytes;
    Alcotest.test_case "RED marks above threshold" `Quick test_red_marks_above_threshold;
    Alcotest.test_case "RED ignores non-ECN" `Quick test_red_ignores_non_ecn;
    Alcotest.test_case "prio strictness" `Quick test_prio_strictness;
    Alcotest.test_case "prio tos clamped" `Quick test_prio_tos_clamped;
    Alcotest.test_case "prio pushout" `Quick test_prio_pushout;
    Alcotest.test_case "prio full of high drops low" `Quick test_prio_full_of_high_drops_low;
    Alcotest.test_case "prio per-band marking" `Quick test_prio_per_band_marking;
    Alcotest.test_case "pfabric priority dequeue" `Quick test_pfabric_priority_dequeue;
    Alcotest.test_case "pfabric starvation avoidance" `Quick test_pfabric_starvation_avoidance;
    Alcotest.test_case "pfabric drop worst" `Quick test_pfabric_drop_worst;
    Alcotest.test_case "pfabric drop arrival if worst" `Quick test_pfabric_drop_arrival_if_worst;
    Alcotest.test_case "pfabric ties follow buffer order" `Quick
      test_pfabric_ties_follow_buffer_order;
    Alcotest.test_case "take marks empty with the dummy" `Quick test_take_empty;
    Alcotest.test_case "sentinels never pooled" `Quick
      test_sentinels_never_pooled;
    Qseed.to_alcotest prop_droptail_conservation;
    Qseed.to_alcotest prop_prio_conservation;
    Qseed.to_alcotest prop_pfabric_conservation;
    Qseed.to_alcotest prop_prio_strict;
  ]
