(* The buffer is parallel arrays: the packets, and beside them the three
   keys that scheduling and dropping compare, so the scans read flat
   [float]/[int] arrays instead of each packet. Hosts stamp [prio], [seq]
   and [flow] before [Net.send] and nothing writes them in flight, so the
   cached keys never go stale. A removal moves the last live element into
   the hole. Equal keys are broken by buffer position, so the positions
   are part of the schedule: a heap or any other order would change
   results. *)

type buf = {
  pkts : Packet.t array;
  prio : float array;
  seq : int array;
  flow : int array;
  empty : Packet.t;  (* fills dead slots so they retain no packet *)
  mutable len : int;
}

let buf_create limit =
  let n = max limit 1 in
  let empty = Packet.dummy () in
  {
    pkts = Array.make n empty;
    prio = Array.make n 0.;
    seq = Array.make n 0;
    flow = Array.make n 0;
    empty;
    len = 0;
  }

let buf_add b pkt =
  let i = b.len in
  (* lint: allow pool-lifetime — ownership transfers to the shared buffer; freed on eviction or delivery *)
  b.pkts.(i) <- pkt;
  b.prio.(i) <- pkt.Packet.prio;
  b.seq.(i) <- pkt.Packet.seq;
  b.flow.(i) <- pkt.Packet.flow;
  b.len <- i + 1

let buf_remove b i =
  let last = b.len - 1 in
  (* lint: allow pool-lifetime — a move within the buffer, which keeps ownership *)
  b.pkts.(i) <- b.pkts.(last);
  b.prio.(i) <- b.prio.(last);
  b.seq.(i) <- b.seq.(last);
  b.flow.(i) <- b.flow.(last);
  (* lint: allow pool-lifetime — the sentinel is never pooled *)
  b.pkts.(last) <- b.empty;
  b.len <- last

(* Telemetry tiers for the continuous [prio] value (remaining flow size in
   segments): tier = min 7 (floor (log2 (1 + prio))), i.e. tier 0 holds
   prio < 1 (last segment in flight), tier k holds 2^k - 1 <= prio < 2^(k+1)
   - 1, tier 7 everything >= 127 segments remaining. *)
let tiers = 8

let tier_of prio =
  let p = Float.max 0. prio in
  let t = int_of_float (Float.log2 (1. +. p)) in
  if t < 0 then 0 else if t >= tiers then tiers - 1 else t

let create counters ~limit_pkts =
  let b = buf_create limit_pkts in
  let bytes = ref 0 in
  let drops = ref 0 in
  let loc = Trace.unattached_loc () in
  (* Index of the buffered packet with the worst (largest) priority value;
     ties broken toward later seq so we evict the youngest of the worst
     flow's packets first. *)
  let worst_index () =
    if b.len = 0 then -1
    else begin
      let worst = ref 0 in
      for i = 1 to b.len - 1 do
        let w = !worst in
        if
          b.prio.(i) > b.prio.(w)
          || (b.prio.(i) = b.prio.(w) && b.seq.(i) > b.seq.(w))
        then worst := i
      done;
      !worst
    end
  in
  let enqueue pkt =
    if b.len >= limit_pkts then begin
      let w = worst_index () in
      if w >= 0 && b.prio.(w) > pkt.Packet.prio then begin
        let victim = b.pkts.(w) in
        buf_remove b w;
        bytes := !bytes - victim.Packet.size;
        incr drops;
        Queue_disc.count_drop loc counters ~qpkts:b.len victim;
        buf_add b pkt;
        bytes := !bytes + pkt.Packet.size;
        Queue_disc.count_enqueue loc counters ~qpkts:b.len pkt
      end
      else begin
        incr drops;
        Queue_disc.count_drop loc counters ~qpkts:b.len pkt
      end
    end
    else begin
      buf_add b pkt;
      bytes := !bytes + pkt.Packet.size;
      Queue_disc.count_enqueue loc counters ~qpkts:b.len pkt
    end
  in
  let take () =
    if b.len = 0 then Pkt_ring.dummy
    else begin
      (* Find the most important packet, then the earliest segment of its
         flow (starvation avoidance keeps per-flow delivery in order). *)
      let best = ref 0 in
      for i = 1 to b.len - 1 do
        let j = !best in
        if
          b.prio.(i) < b.prio.(j)
          || (b.prio.(i) = b.prio.(j) && b.seq.(i) < b.seq.(j))
        then best := i
      done;
      let chosen_flow = b.flow.(!best) in
      let pick = ref !best in
      for i = 0 to b.len - 1 do
        if b.flow.(i) = chosen_flow && b.seq.(i) < b.seq.(!pick) then pick := i
      done;
      let pkt = b.pkts.(!pick) in
      buf_remove b !pick;
      bytes := !bytes - pkt.Packet.size;
      Queue_disc.count_dequeue loc counters ~qpkts:b.len pkt;
      pkt
    end
  in
  let band_occ () =
    let occ = Array.make tiers (0, 0) in
    for i = 0 to b.len - 1 do
      let t = tier_of b.prio.(i) in
      let pk, by = occ.(t) in
      occ.(t) <- (pk + 1, by + b.pkts.(i).Packet.size)
    done;
    occ
  in
  {
    Queue_disc.enqueue;
    take;
    dequeue = Queue_disc.dequeue_of take;
    pkts = (fun () -> b.len);
    bytes = (fun () -> !bytes);
    bands = band_occ;
    drops = (fun () -> !drops);
    (* pFabric has no marking and its priority dropping is size-based, not
       rate-calibrated; the fluid tier also never shares links with it
       (pFabric is not fluid-whitelisted), so the fraction is irrelevant. *)
    set_cap_frac = (fun _ -> ());
    loc;
  }
