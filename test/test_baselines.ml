(* The baselines' per-link control state against the list-and-sort versions
   it replaced ([Baseline_oracles]): random operation sequences must give
   bit-identical allocations (D3 routers, PDQ arbiters) and the same
   dequeues, drops and counters (the pFabric buffer). *)

module O = Baseline_oracles

let bits = Int64.bits_of_float
let flow_ids = QCheck.Gen.int_range 0 7

let same_rate what ~flow got want =
  if bits got <> bits want then
    QCheck.Test.fail_reportf "%s flow %d: got %h, oracle %h" what flow got want

(* ---- D3 router ---------------------------------------------------------- *)

type d3_op =
  | D3_update of int * float
  | D3_remove of int
  | D3_clear
  | D3_alloc of int

let show_d3 = function
  | D3_update (f, r) -> Printf.sprintf "update %d %h" f r
  | D3_remove f -> Printf.sprintf "remove %d" f
  | D3_clear -> "clear"
  | D3_alloc f -> Printf.sprintf "alloc %d" f

(* Requests repeat, overcommit the 1 Gbps capacity and go negative, so
   reservations both exhaust the link and leave fair share over. *)
let gen_d3 =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun f r -> D3_update (f, r))
            flow_ids
            (oneofl [ 0.; -1e8; 1e8; 2.5e8; 2.5e8; 4e8; 1e9; 3e9 ]) );
        (2, map (fun f -> D3_remove f) flow_ids);
        (1, return D3_clear);
        (4, map (fun f -> D3_alloc f) flow_ids);
      ])

let d3_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_d3 ops))
    QCheck.Gen.(list_size (int_range 1 120) gen_d3)

let prop_d3_router_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"d3 router matches list-and-sort oracle"
    d3_ops (fun ops ->
      let r = D3.Router.create ~capacity_bps:1e9 in
      let o = O.D3_router.Router.create ~capacity_bps:1e9 in
      List.iter
        (fun op ->
          (match op with
          | D3_update (flow, request_bps) ->
              D3.Router.update r ~flow ~request_bps;
              O.D3_router.Router.update o ~flow ~request_bps
          | D3_remove flow ->
              D3.Router.remove r ~flow;
              O.D3_router.Router.remove o ~flow
          | D3_clear ->
              D3.Router.clear r;
              O.D3_router.Router.clear o
          | D3_alloc flow ->
              same_rate "alloc" ~flow
                (D3.Router.allocation r ~flow)
                (O.D3_router.Router.allocation o ~flow));
          if D3.Router.flows r <> O.D3_router.Router.flows o then
            QCheck.Test.fail_reportf "flows: %d, oracle %d" (D3.Router.flows r)
              (O.D3_router.Router.flows o);
          for flow = 0 to 7 do
            same_rate "after op" ~flow
              (D3.Router.allocation r ~flow)
              (O.D3_router.Router.allocation o ~flow)
          done)
        ops;
      true)

(* ---- PDQ arbiter -------------------------------------------------------- *)

type pdq_update = {
  flow : int;
  remaining : int;
  nic : float;
  usable : float;
  deadline : float option;
}

type pdq_op =
  | Pdq_update of pdq_update
  | Pdq_remove of int
  | Pdq_clear
  | Pdq_alloc of int * float

let show_pdq = function
  | Pdq_update u ->
      Printf.sprintf "update %d rem=%d nic=%h use=%h dl=%s" u.flow u.remaining
        u.nic u.usable
        (match u.deadline with None -> "-" | Some d -> Printf.sprintf "%h" d)
  | Pdq_remove f -> Printf.sprintf "remove %d" f
  | Pdq_clear -> "clear"
  | Pdq_alloc (f, rtt) -> Printf.sprintf "alloc %d rtt=%h" f rtt

(* Few distinct deadlines and remaining sizes, so criticality ties fall
   through to the flow id; small remainders trip Early Start. *)
let gen_pdq =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map
            (fun (flow, remaining, (nic, usable), deadline) ->
              Pdq_update { flow; remaining; nic; usable; deadline })
            (quad flow_ids
               (oneofl [ 0; 1; 3; 3; 12; 40; 40; 200 ])
               (pair (oneofl [ 1e9; 1e9; 4e8 ]) (oneofl [ 0.; 2e8; 5e8; 1e9 ]))
               (oneofl [ None; None; Some 0.001; Some 0.001; Some 0.002 ])) );
        (2, map (fun f -> Pdq_remove f) flow_ids);
        (1, return Pdq_clear);
        ( 4,
          map2 (fun f rtt -> Pdq_alloc (f, rtt)) flow_ids
            (oneofl [ 150e-6; 1e-3 ]) );
      ])

let pdq_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_pdq ops))
    QCheck.Gen.(list_size (int_range 1 120) gen_pdq)

let mss_bits = 11680.

let prop_pdq_arbiter_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"pdq arbiter matches list-and-sort oracle"
    pdq_ops (fun ops ->
      let a = Pdq.Arbiter.create ~capacity_bps:1e9 in
      let o = O.Pdq_arbiter.Arbiter.create ~capacity_bps:1e9 in
      List.iter
        (fun op ->
          (match op with
          | Pdq_update { flow; remaining; nic; usable; deadline } ->
              Pdq.Arbiter.update a ~flow ~remaining_pkts:remaining ~nic_bps:nic
                ~usable_bps:usable ~deadline;
              O.Pdq_arbiter.Arbiter.update o ~flow ~remaining_pkts:remaining
                ~nic_bps:nic ~usable_bps:usable ~deadline
          | Pdq_remove flow ->
              Pdq.Arbiter.remove a ~flow;
              O.Pdq_arbiter.Arbiter.remove o ~flow
          | Pdq_clear ->
              Pdq.Arbiter.clear a;
              O.Pdq_arbiter.Arbiter.clear o
          | Pdq_alloc (flow, rtt) ->
              same_rate "alloc" ~flow
                (Pdq.Arbiter.allocation a ~flow ~rtt ~mss_bits)
                (O.Pdq_arbiter.Arbiter.allocation o ~flow ~rtt ~mss_bits));
          if Pdq.Arbiter.flows a <> O.Pdq_arbiter.Arbiter.flows o then
            QCheck.Test.fail_reportf "flows: %d, oracle %d"
              (Pdq.Arbiter.flows a)
              (O.Pdq_arbiter.Arbiter.flows o);
          for flow = 0 to 7 do
            same_rate "after op" ~flow
              (Pdq.Arbiter.allocation a ~flow ~rtt:150e-6 ~mss_bits)
              (O.Pdq_arbiter.Arbiter.allocation o ~flow ~rtt:150e-6 ~mss_bits)
          done)
        ops;
      true)

(* ---- pFabric buffer ----------------------------------------------------- *)

type pf_op = Enq of int * float * int | Deq

let show_pf = function
  | Enq (f, p, s) -> Printf.sprintf "enq flow=%d prio=%g seq=%d" f p s
  | Deq -> "deq"

(* Four flows, four priorities and four seqs: (prio, seq) ties across flows
   and repeated seqs within a flow (retransmits) are the common case, and a
   limit of 1-5 packets keeps eviction busy. *)
let gen_pf =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun f p s -> Enq (f, p, s))
            (int_range 0 3)
            (oneofl [ 0.; 1.; 2.; 5. ])
            (int_range 0 3) );
        (2, return Deq);
      ])

let pf_ops =
  QCheck.make
    ~print:(fun (limit, ops) ->
      Printf.sprintf "limit %d: %s" limit
        (String.concat "; " (List.map show_pf ops)))
    QCheck.Gen.(pair (int_range 1 5) (list_size (int_range 1 150) gen_pf))

(* One side of the comparison: a queue on counters whose ring bus keeps
   every drop. Each side gets its own copy of every arrival, tagged with
   the arrival's index in [ack]; a traced run never recycles dropped
   packets, so the drop events still carry their tags at the end. *)
type side = {
  c : Counters.t;
  q : Queue_disc.t;
  ring : Trace.ring;
  mutable out : int list;  (* dequeued tags, newest first *)
}

let side make =
  let ring, sink = Trace.ring_sink ~capacity:1024 in
  let bus = Trace.create ~kinds:[ Trace.Kind.Drop ] [ sink ] in
  let c = Counters.create ~trace:bus () in
  { c; q = make c; ring; out = [] }

let dequeue s =
  let p = s.q.Queue_disc.take () in
  if p == Pkt_ring.dummy then false
  else begin
    s.out <- p.Packet.ack :: s.out;
    true
  end

let observed s =
  let c = s.c and q = s.q in
  ( s.out,
    List.filter_map
      (function _, Trace.Drop { pkt; _ } -> Some pkt.Packet.ack | _ -> None)
      (Trace.ring_contents s.ring),
    [
      c.enqueued_pkts;
      c.enqueued_bytes;
      c.dequeued_pkts;
      c.dequeued_bytes;
      c.dropped_pkts;
      c.dropped_bytes;
      c.dropped_data_pkts;
      q.Queue_disc.pkts ();
      q.Queue_disc.bytes ();
      q.Queue_disc.drops ();
    ] )

let prop_pfabric_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:"pfabric buffer matches option-array oracle" pf_ops
    (fun (limit_pkts, ops) ->
      let a = side (fun c -> Pfabric_queue.create c ~limit_pkts) in
      let o = side (fun c -> O.Pfabric_queue.create c ~limit_pkts) in
      List.iteri
        (fun i op ->
          (match op with
          | Enq (flow, prio, seq) ->
              let mk () =
                Packet.make ~flow ~src:0 ~dst:1 ~kind:Packet.Data
                  ~size:(1000 + flow) ~seq ~ack:i ~prio ~sent_at:0. ()
              in
              a.q.Queue_disc.enqueue (mk ());
              o.q.Queue_disc.enqueue (mk ())
          | Deq ->
              ignore (dequeue a);
              ignore (dequeue o));
          if a.q.Queue_disc.bands () <> o.q.Queue_disc.bands () then
            QCheck.Test.fail_reportf "bands differ after op %d" i)
        ops;
      while dequeue a do () done;
      while dequeue o do () done;
      observed a = observed o)

let suite =
  [
    Qseed.to_alcotest prop_d3_router_matches_oracle;
    Qseed.to_alcotest prop_pdq_arbiter_matches_oracle;
    Qseed.to_alcotest prop_pfabric_matches_oracle;
  ]
