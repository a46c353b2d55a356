(* Algorithm 1 (pure): queue assignment, reference rates, and invariants. *)

let inp flow criterion demand =
  { Arbitration.flow; criterion; demand_bps = demand }

let assign ?(cap = 1e9) ?(nq = 8) ?(base = 1e5) flows =
  Arbitration.assign ~capacity_bps:cap ~num_queues:nq ~base_rate_bps:base flows

let find fid outs =
  List.find (fun o -> o.Arbitration.out_flow = fid) outs

let test_single_flow_top_queue () =
  let outs = assign [ inp 1 10. 1e9 ] in
  let o = find 1 outs in
  Alcotest.(check int) "top queue" 0 o.Arbitration.queue;
  Alcotest.(check (float 1.)) "full capacity" 1e9 o.Arbitration.rref_bps

let test_demand_capped_by_capacity () =
  let outs = assign [ inp 1 10. 5e9 ] in
  Alcotest.(check (float 1.)) "capped" 1e9 (find 1 outs).Arbitration.rref_bps

let test_two_small_flows_share_top () =
  let outs = assign [ inp 1 10. 0.4e9; inp 2 20. 0.4e9 ] in
  Alcotest.(check int) "first top" 0 (find 1 outs).Arbitration.queue;
  Alcotest.(check int) "second top too" 0 (find 2 outs).Arbitration.queue;
  Alcotest.(check (float 1.)) "own demand" 0.4e9 (find 2 outs).Arbitration.rref_bps

let test_leftover_rate () =
  let outs = assign [ inp 1 10. 0.7e9; inp 2 20. 0.6e9 ] in
  (* Second flow's reference rate is the residual capacity. *)
  Alcotest.(check (float 1.)) "residual" 0.3e9 (find 2 outs).Arbitration.rref_bps;
  Alcotest.(check int) "still top queue" 0 (find 2 outs).Arbitration.queue

let test_saturating_flows_stack_queues () =
  (* Full-demand flows: one per queue level. *)
  let outs = assign (List.init 5 (fun i -> inp i (float_of_int i) 1e9)) in
  List.iteri
    (fun i _ ->
      Alcotest.(check int)
        (Printf.sprintf "flow %d queue" i)
        i
        (find i outs).Arbitration.queue)
    outs;
  Alcotest.(check (float 1.)) "lower queues get base rate" 1e5
    (find 3 outs).Arbitration.rref_bps

let test_lowest_queue_caps () =
  let outs = assign ~nq:4 (List.init 10 (fun i -> inp i (float_of_int i) 1e9)) in
  List.iter
    (fun o ->
      Alcotest.(check bool) "queue within range" true
        (o.Arbitration.queue >= 0 && o.Arbitration.queue < 4))
    outs;
  Alcotest.(check int) "overflow goes to lowest" 3 (find 9 outs).Arbitration.queue

let test_priority_ordering_by_criterion () =
  (* Smaller criterion = more important, regardless of list order. *)
  let outs = assign [ inp 1 500. 1e9; inp 2 5. 1e9; inp 3 50. 1e9 ] in
  Alcotest.(check int) "smallest first" 0 (find 2 outs).Arbitration.queue;
  Alcotest.(check int) "middle second" 1 (find 3 outs).Arbitration.queue;
  Alcotest.(check int) "largest last" 2 (find 1 outs).Arbitration.queue

let test_tie_break_on_flow_id () =
  let outs = assign [ inp 2 10. 1e9; inp 1 10. 1e9 ] in
  Alcotest.(check int) "lower id wins tie" 0 (find 1 outs).Arbitration.queue;
  Alcotest.(check int) "other demoted" 1 (find 2 outs).Arbitration.queue

(* Invariants over random inputs. *)
let gen_flows =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (triple (int_range 0 1000) (float_range 1. 1e6) (float_range 1e3 2e9)))

let arb_flows =
  QCheck.make ~print:(fun l -> string_of_int (List.length l)) gen_flows

let dedup_ids flows =
  (* Distinct flow ids; keep first occurrence. *)
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun (id, crit, dem) ->
      if Hashtbl.mem seen id then None
      else begin
        Hashtbl.add seen id ();
        Some (inp id crit dem)
      end)
    flows

let prop_top_queue_rates_within_capacity =
  QCheck.Test.make ~count:500 ~name:"sum of top-queue Rref <= capacity"
    arb_flows (fun flows ->
      let flows = dedup_ids flows in
      QCheck.assume (flows <> []);
      let outs = assign ~cap:1e9 flows in
      let top_sum =
        List.fold_left
          (fun acc o ->
            if o.Arbitration.queue = 0 then acc +. o.Arbitration.rref_bps
            else acc)
          0. outs
      in
      top_sum <= 1e9 *. (1. +. 1e-9))

let prop_queue_monotone_in_priority =
  QCheck.Test.make ~count:500
    ~name:"higher-priority flows never sit in lower queues" arb_flows
    (fun flows ->
      let flows = dedup_ids flows in
      QCheck.assume (flows <> []);
      let outs = assign flows in
      (* Sort outputs by the input criterion order and check queues are
         non-decreasing. *)
      let crit_of fid =
        let f = List.find (fun i -> i.Arbitration.flow = fid) flows in
        (f.Arbitration.criterion, f.Arbitration.flow)
      in
      let sorted =
        List.sort
          (fun a b ->
            compare (crit_of a.Arbitration.out_flow) (crit_of b.Arbitration.out_flow))
          outs
      in
      let rec non_decreasing = function
        | a :: (b :: _ as rest) ->
            a.Arbitration.queue <= b.Arbitration.queue && non_decreasing rest
        | _ -> true
      in
      non_decreasing sorted)

let prop_every_flow_assigned =
  QCheck.Test.make ~count:500 ~name:"every input flow gets an assignment"
    arb_flows (fun flows ->
      let flows = dedup_ids flows in
      QCheck.assume (flows <> []);
      let outs = assign flows in
      List.length outs = List.length flows
      && List.for_all
           (fun i ->
             List.exists (fun o -> o.Arbitration.out_flow = i.Arbitration.flow) outs)
           flows)

let prop_rref_positive =
  QCheck.Test.make ~count:500 ~name:"reference rates are positive" arb_flows
    (fun flows ->
      let flows = dedup_ids flows in
      QCheck.assume (flows <> []);
      assign flows |> List.for_all (fun o -> o.Arbitration.rref_bps > 0.))

(* Differential test of the stateful [Arbitrator] against the pure
   [Arbitration.assign]: random sequences of soft-state operations over at
   most 64 flows, with tied and infinite criteria. After every pass, each
   flow's cached result, the allocation count, the top-queue counts and
   the total demand must equal what [assign] computes on the arbitrator's
   current entries; floats are compared bit for bit. Upserts go through
   [enter], and the last handle of every flow must read the same result
   (none once its flow was removed). A model tracks the entries and which
   of them the last pass saw. *)

type op =
  | Upsert of int * float * float * float  (* flow, criterion, demand, now *)
  | Remove of int
  | Expire of float * float  (* now, max_age *)
  | Clear
  | Set_capacity of float
  | Refill of int  (* upsert all 64 flows, scrambled by the multiplier *)
  | Arbitrate

let gen_op =
  let open QCheck.Gen in
  let flow = int_bound 63 in
  let criterion =
    oneof [ oneofl [ 1.; 2.; 3.; 50.; infinity ]; float_range 0. 100. ]
  in
  let demand = oneof [ oneofl [ 0.25e9; 1e9; 3e9 ]; float_range 1e3 2e9 ] in
  let time = map float_of_int (int_bound 20) in
  frequency
    [
      (10, map (fun (((f, c), d), n) -> Upsert (f, c, d, n))
             (pair (pair (pair flow criterion) demand) time));
      (2, map (fun f -> Remove f) flow);
      (1, map (fun (n, a) -> Expire (n, a)) (pair time time));
      (1, return Clear);
      (1, map (fun c -> Set_capacity c) (oneofl [ -1.; 0.5e9; 1e9; 4e9 ]));
      (1, map (fun k -> Refill k) (int_range 1 96));
      (3, return Arbitrate);
    ]

let show_op = function
  | Upsert (f, c, d, n) -> Printf.sprintf "upsert %d %h %h %h" f c d n
  | Remove f -> Printf.sprintf "remove %d" f
  | Expire (n, a) -> Printf.sprintf "expire %h %h" n a
  | Clear -> "clear"
  | Set_capacity c -> Printf.sprintf "set_capacity %h" c
  | Refill k -> Printf.sprintf "refill %d" k
  | Arbitrate -> "arbitrate"

let arb_ops =
  QCheck.make
    ~print:(fun (nq, ops) ->
      Printf.sprintf "queues %d: %s" nq (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (oneofl [ 1; 2; 4; 8 ]) (list_size (int_range 1 200) gen_op))

module IM = Map.Make (Int)

let bits = Int64.bits_of_float

let prop_arbitrator_matches_assign =
  QCheck.Test.make ~count:300 ~name:"arbitrator matches assign" arb_ops
    (fun (num_queues, ops) ->
      let base_rate_bps = 1e5 in
      let a = Arbitrator.create ~capacity_bps:1e9 () in
      (* flow -> (criterion, demand, refreshed); results of the last pass *)
      let entries = ref IM.empty and results = ref IM.empty in
      let handles = ref IM.empty in
      let cap = ref 1e9 in
      let check_pass () =
        let inputs =
          IM.fold
            (fun flow (criterion, demand_bps, _) acc ->
              { Arbitration.flow; criterion; demand_bps } :: acc)
            !entries []
        in
        let outs =
          if inputs = [] then []
          else Arbitration.assign ~capacity_bps:!cap ~num_queues ~base_rate_bps inputs
        in
        results :=
          List.fold_left
            (fun m o -> IM.add o.Arbitration.out_flow (o.Arbitration.queue, o.Arbitration.rref_bps) m)
            IM.empty outs;
        for flow = 0 to 63 do
          let got = Arbitrator.cached a ~flow and want = IM.find_opt flow !results in
          match (got, want) with
          | None, None -> ()
          | Some (q, r), Some (q', r') when q = q' && bits r = bits r' -> ()
          | _ -> QCheck.Test.fail_reportf "flow %d: cached result differs" flow
        done;
        IM.iter
          (fun flow h ->
            let q, r = Option.value (IM.find_opt flow !results) ~default:(-1, infinity) in
            if Arbitrator.queue h <> q || bits (Arbitrator.rref_bps h) <> bits r then
              QCheck.Test.fail_reportf "flow %d: handle result differs" flow;
            if Arbitrator.live h <> IM.mem flow !entries then
              QCheck.Test.fail_reportf "flow %d: handle liveness differs" flow)
          !handles;
        if Arbitrator.allocations a <> IM.cardinal !results then
          QCheck.Test.fail_report "allocations";
        for k = 0 to num_queues + 1 do
          let want = List.length (List.filter (fun o -> o.Arbitration.queue < k) outs) in
          if Arbitrator.in_top_queues a ~k <> want then
            QCheck.Test.fail_reportf "in_top_queues %d" k
        done;
        let demand = IM.fold (fun _ (_, d, _) acc -> acc +. d) !entries 0. in
        if bits (Arbitrator.total_demand a) <> bits demand then
          QCheck.Test.fail_report "total_demand"
      in
      let upsert flow criterion demand_bps now =
        handles := IM.add flow (Arbitrator.enter a ~flow ~criterion ~demand_bps ~now) !handles;
        entries := IM.add flow (criterion, demand_bps, now) !entries
      in
      List.iter
        (fun op ->
          (match op with
          | Upsert (flow, criterion, demand_bps, now) -> upsert flow criterion demand_bps now
          | Refill k ->
              for flow = 0 to 63 do
                upsert flow (float_of_int (flow * k mod 97)) 0.4e9 20.
              done
          | Remove flow ->
              Arbitrator.remove a ~flow;
              entries := IM.remove flow !entries;
              results := IM.remove flow !results
          | Expire (now, max_age) ->
              Arbitrator.expire a ~now ~max_age;
              let stale = IM.filter (fun _ (_, _, r) -> now -. r > max_age) !entries in
              entries := IM.filter (fun f _ -> not (IM.mem f stale)) !entries;
              results := IM.filter (fun f _ -> not (IM.mem f stale)) !results
          | Clear ->
              Arbitrator.clear a;
              entries := IM.empty;
              results := IM.empty
          | Set_capacity c ->
              Arbitrator.set_capacity a c;
              if c > 0. then cap := c
          | Arbitrate ->
              Arbitrator.arbitrate a ~num_queues ~base_rate_bps;
              check_pass ());
          if Arbitrator.flows a <> IM.cardinal !entries then
            QCheck.Test.fail_report "flows";
          for flow = 0 to 63 do
            if Arbitrator.mem a ~flow <> IM.mem flow !entries then
              QCheck.Test.fail_reportf "mem %d" flow
          done)
        ops;
      true)

let suite =
  [
    Alcotest.test_case "single flow top queue" `Quick test_single_flow_top_queue;
    Alcotest.test_case "demand capped" `Quick test_demand_capped_by_capacity;
    Alcotest.test_case "two small flows share top" `Quick test_two_small_flows_share_top;
    Alcotest.test_case "leftover rate" `Quick test_leftover_rate;
    Alcotest.test_case "saturating flows stack queues" `Quick test_saturating_flows_stack_queues;
    Alcotest.test_case "lowest queue caps" `Quick test_lowest_queue_caps;
    Alcotest.test_case "priority ordering" `Quick test_priority_ordering_by_criterion;
    Alcotest.test_case "tie break on id" `Quick test_tie_break_on_flow_id;
    Qseed.to_alcotest prop_top_queue_rates_within_capacity;
    Qseed.to_alcotest prop_queue_monotone_in_priority;
    Qseed.to_alcotest prop_every_flow_assigned;
    Qseed.to_alcotest prop_rref_positive;
    Qseed.to_alcotest prop_arbitrator_matches_assign;
  ]
