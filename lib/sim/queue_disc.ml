type t = {
  enqueue : Packet.t -> unit;
  dequeue : unit -> Packet.t option;
  pkts : unit -> int;
  bytes : unit -> int;
  bands : unit -> (int * int) array;
  drops : unit -> int;
  set_cap_frac : float -> unit;
  loc : Trace.loc;
}

(* Marking thresholds scale with the capacity fraction left to the packet
   tier: DCTCP's K is calibrated to the drain rate, so when fluid traffic
   consumes part of the link the residual drains slower and must mark
   earlier. Computed only when the fraction changes (a fluid control event),
   never on the per-packet path. *)
let scaled_threshold k frac =
  max 1 (int_of_float (ceil (float_of_int k *. frac)))

let link_of (loc : Trace.loc) = (loc.Trace.from_node, loc.Trace.to_node)

let count_drop (loc : Trace.loc) (c : Counters.t) ~qpkts (pkt : Packet.t) =
  c.dropped_pkts <- c.dropped_pkts + 1;
  c.dropped_bytes <- c.dropped_bytes + pkt.size;
  (match pkt.kind with
  | Packet.Data -> c.dropped_data_pkts <- c.dropped_data_pkts + 1
  | Packet.Ack | Packet.Probe | Packet.Probe_ack | Packet.Ctrl -> ());
  if Trace.on c.trace then
    Trace.emit c.trace (Trace.Drop { pkt; link = link_of loc; qpkts })
  else
    (* A dropped packet leaves the data path here: every caller discards it
       after this call, so it can be recycled (trace off only; see above). *)
    Packet.free pkt

let count_enqueue (loc : Trace.loc) (c : Counters.t) ~qpkts (pkt : Packet.t) =
  c.enqueued_pkts <- c.enqueued_pkts + 1;
  c.enqueued_bytes <- c.enqueued_bytes + pkt.size;
  if Delay.on c.delay then pkt.enq_at <- Delay.now c.delay;
  if Trace.on c.trace then
    Trace.emit c.trace (Trace.Enqueue { pkt; link = link_of loc; qpkts })

let count_dequeue (loc : Trace.loc) (c : Counters.t) ~qpkts (pkt : Packet.t) =
  c.dequeued_pkts <- c.dequeued_pkts + 1;
  c.dequeued_bytes <- c.dequeued_bytes + pkt.size;
  (* Delay attribution reads [pkt.enq_at] once per hop at delivery time
     (Link.prop_done), not here: one combined accumulation per hop instead
     of three separate guarded table lookups. *)
  if Trace.on c.trace then
    Trace.emit c.trace (Trace.Dequeue { pkt; link = link_of loc; qpkts })

let count_mark (loc : Trace.loc) (c : Counters.t) ~qpkts (pkt : Packet.t) =
  pkt.Packet.ecn_ce <- true;
  c.Counters.ecn_marked_pkts <- c.Counters.ecn_marked_pkts + 1;
  if Trace.on c.trace then
    Trace.emit c.trace (Trace.Mark { pkt; link = link_of loc; qpkts })

let no_bands () = [||]

let fifo counters ~limit_pkts ~mark_threshold =
  let q = Pkt_ring.create () in
  let bytes = ref 0 in
  let drops = ref 0 in
  let loc = Trace.unattached_loc () in
  let eff_mark = ref mark_threshold in
  let set_cap_frac frac =
    match mark_threshold with
    | Some k -> eff_mark := Some (scaled_threshold k frac)
    | None -> ()
  in
  let enqueue pkt =
    let n = Pkt_ring.length q in
    if n >= limit_pkts then begin
      incr drops;
      count_drop loc counters ~qpkts:n pkt
    end
    else begin
      (match !eff_mark with
      | Some k when pkt.Packet.ecn_capable && n >= k ->
          count_mark loc counters ~qpkts:n pkt
      | _ -> ());
      (* lint: allow pool-lifetime — ownership transfers to the FIFO; freed on drop or delivery *)
      Pkt_ring.push q pkt;
      bytes := !bytes + pkt.Packet.size;
      count_enqueue loc counters ~qpkts:(n + 1) pkt
    end
  in
  let dequeue () =
    if Pkt_ring.length q = 0 then None
    else begin
      let pkt = Pkt_ring.pop q in
      bytes := !bytes - pkt.Packet.size;
      count_dequeue loc counters ~qpkts:(Pkt_ring.length q) pkt;
      Some pkt
    end
  in
  {
    enqueue;
    dequeue;
    pkts = (fun () -> Pkt_ring.length q);
    bytes = (fun () -> !bytes);
    bands = no_bands;
    drops = (fun () -> !drops);
    set_cap_frac;
    loc;
  }

let droptail counters ~limit_pkts = fifo counters ~limit_pkts ~mark_threshold:None

let red_ecn counters ~limit_pkts ~mark_threshold =
  fifo counters ~limit_pkts ~mark_threshold:(Some mark_threshold)
