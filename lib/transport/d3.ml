module Router = struct
  type entry = { flow : int; mutable request_bps : float }

  (* The table's order is arrival order, so FCFS needs no sort. *)
  type t = entry Explicit_rate.Table.t

  let create = Explicit_rate.Table.create
  let remove = Explicit_rate.Table.remove
  let flows = Explicit_rate.Table.flows
  let clear = Explicit_rate.Table.clear

  let update t ~flow ~request_bps =
    match Explicit_rate.Table.find t ~flow with
    | Some e -> e.request_bps <- Float.max 0. request_bps
    | None ->
        Explicit_rate.Table.append t ~flow
          { flow; request_bps = Float.max 0. request_bps }

  (* FCFS greedy satisfaction of reservations, then an equal share of what
     is left: one pass over the arrival-ordered entries. *)
  let allocation (t : t) ~flow =
    let n = t.len in
    if n = 0 then 0.
    else begin
      let avail = ref t.capacity_bps in
      let granted = ref 0. in
      let found = ref false in
      for i = 0 to n - 1 do
        let e = t.order.(i) in
        let g = Float.min e.request_bps !avail in
        if e.flow = flow then begin
          granted := g;
          found := true
        end;
        avail := !avail -. g
      done;
      let fair = Float.max 0. !avail /. float_of_int n in
      if !found then !granted +. fair else 0.
    end
end

(* The rate that finishes the flow exactly at its deadline. *)
let desired_rate (h : _ Explicit_rate.host) =
  match Flow.absolute_deadline (Sender_base.flow h.sender) with
  | None -> 0.
  | Some abs_deadline ->
      let now = Engine.now (Sender_base.engine h.sender) in
      let left = abs_deadline -. now in
      let remaining_bits =
        float_of_int (Sender_base.remaining_pkts h.sender)
        *. Explicit_rate.mss_bits h
      in
      if left <= 0. then h.nic_bps else Float.min h.nic_bps (remaining_bits /. left)

let policy =
  {
    Explicit_rate.apply_label = "d3-apply";
    tick_label = "d3-tick";
    request =
      (fun h ->
        let flow = Explicit_rate.flow_id h in
        let request_bps = desired_rate h in
        Array.iter (fun r -> Router.update r ~flow ~request_bps) h.agents);
    grant = (fun h r -> Router.allocation r ~flow:(Explicit_rate.flow_id h));
    unpause_rtt = false;
  }
