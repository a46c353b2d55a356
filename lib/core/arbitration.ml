type input = { flow : int; criterion : float; demand_bps : float }
type output = { out_flow : int; queue : int; rref_bps : float }

let assign_sorted ~capacity_bps ~num_queues ~base_rate_bps ~demands ~queues
    ~rrefs n =
  if capacity_bps <= 0. then invalid_arg "Arbitration.assign: capacity";
  if num_queues <= 0 then invalid_arg "Arbitration.assign: num_queues";
  let adh = ref 0. in
  for i = 0 to n - 1 do
    let d = demands.(i) in
    if !adh < capacity_bps then begin
      queues.(i) <- 0;
      rrefs.(i) <- Float.min d (capacity_bps -. !adh)
    end
    else begin
      (* Queue k serves aggregate higher-priority demand in [kC, (k+1)C):
         a flow behind exactly C of demand goes to the second queue,
         keeping strict priority between a saturating flow and its
         successor. *)
      queues.(i) <-
        Int.min (int_of_float (Float.floor (!adh /. capacity_bps))) (num_queues - 1);
      rrefs.(i) <- base_rate_bps
    end;
    adh := !adh +. d
  done

let priority_order a b =
  match Float.compare a.criterion b.criterion with
  | 0 -> Int.compare a.flow b.flow
  | c -> c

let assign ~capacity_bps ~num_queues ~base_rate_bps flows =
  let sorted = Array.of_list (List.sort priority_order flows) in
  let n = Array.length sorted in
  let demands = Array.map (fun f -> f.demand_bps) sorted in
  let queues = Array.make n 0 and rrefs = Array.make n 0. in
  assign_sorted ~capacity_bps ~num_queues ~base_rate_bps ~demands ~queues ~rrefs n;
  List.init n (fun i ->
      { out_flow = sorted.(i).flow; queue = queues.(i); rref_bps = rrefs.(i) })
