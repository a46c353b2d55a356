let es_rtts = 1.

module Arbiter = struct
  type entry = {
    flow : int;
    mutable remaining_pkts : int;
    mutable nic_bps : float;  (* line rate: cap on any grant *)
    mutable usable_bps : float;
        (* what the flow can actually use given its other links (suppressed
           demand): capacity reserved for a flow never exceeds this *)
    deadline : float option;
  }

  (* The table's order is criticality order ([compare_entries]); [update]
     restores it in place. *)
  type t = entry Explicit_rate.Table.t

  let create = Explicit_rate.Table.create
  let remove = Explicit_rate.Table.remove
  let flows = Explicit_rate.Table.flows
  let clear = Explicit_rate.Table.clear

  (* Criticality order: earliest deadline first, then shortest remaining,
     then flow id for determinism (PDQ's EDF+SJF tie-breaking). Flow ids
     are unique, so this is a total order. *)
  let compare_entries a b =
    match (a.deadline, b.deadline) with
    | Some da, Some db when da <> db -> compare da db
    | Some _, None -> -1
    | None, Some _ -> 1
    | _ ->
        let c = compare a.remaining_pkts b.remaining_pkts in
        if c <> 0 then c else compare a.flow b.flow

  (* Insertion sort: linear when one entry is out of place, which is all an
     [update] can leave behind. *)
  let restore_order (t : t) =
    let a = t.order in
    for i = 1 to t.len - 1 do
      let x = a.(i) in
      if compare_entries a.(i - 1) x > 0 then begin
        let j = ref (i - 1) in
        while !j >= 0 && compare_entries a.(!j) x > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      end
    done

  let update t ~flow ~remaining_pkts ~nic_bps ~usable_bps ~deadline =
    (match Explicit_rate.Table.find t ~flow with
    | Some e ->
        e.remaining_pkts <- remaining_pkts;
        e.nic_bps <- nic_bps;
        e.usable_bps <- usable_bps
    | None ->
        Explicit_rate.Table.append t ~flow
          { flow; remaining_pkts; nic_bps; usable_bps; deadline });
    restore_order t

  (* The rate this link would grant [flow]: walk flows in criticality
     order; each higher-priority flow consumes only what it can use
     (suppressed demand), and a flow about to finish cedes its slot to the
     next in line (Early Start). *)
  let allocation (t : t) ~flow ~rtt ~mss_bits =
    let avail = ref t.capacity_bps in
    let grant = ref 0. in
    let i = ref 0 in
    while !i < t.len do
      let e = t.order.(!i) in
      let g = Float.min e.nic_bps !avail in
      if e.flow = flow then begin
        grant := g;
        i := t.len
      end
      else begin
        let consumed = Float.min g e.usable_bps in
        let finish_time =
          if consumed > 0. then
            float_of_int e.remaining_pkts *. mss_bits /. consumed
          else infinity
        in
        let consumed = if finish_time < es_rtts *. rtt then 0. else consumed in
        avail := Float.max 0. (!avail -. consumed);
        incr i
      end
    done;
    !grant
end

(* What this flow could use on link [j], namely the minimum of the other
   links' last grants (its bottleneck elsewhere). *)
let usable_elsewhere (h : _ Explicit_rate.host) j =
  let m = ref h.nic_bps in
  Array.iteri (fun k g -> if k <> j then m := Float.min !m g) h.grants;
  !m

let policy =
  {
    Explicit_rate.apply_label = "pdq-apply";
    tick_label = "pdq-tick";
    request =
      (fun h ->
        let flow = Explicit_rate.flow_id h in
        let deadline = Flow.absolute_deadline (Sender_base.flow h.sender) in
        let remaining = Sender_base.remaining_pkts h.sender in
        Array.iteri
          (fun j a ->
            Arbiter.update a ~flow ~remaining_pkts:remaining ~nic_bps:h.nic_bps
              ~usable_bps:(usable_elsewhere h j) ~deadline)
          h.agents);
    grant =
      (fun h a ->
        Arbiter.allocation a ~flow:(Explicit_rate.flow_id h) ~rtt:h.rtt
          ~mss_bits:(Explicit_rate.mss_bits h));
    unpause_rtt = true;
  }
