(* Verbatim copies of the baselines' per-link control state as it was
   before the array-backed rewrite, kept as oracles for the differential
   properties in [Test_baselines]: [D3.Router] and [Pdq.Arbiter] rebuilt
   and sorted their flow list on every allocation call, and
   [Pfabric_queue] scanned a [Packet.t option] buffer. Do not edit them to
   follow the library; a divergence is what the properties look for. *)

module D3_router = struct
  module Router = struct
    type entry = { flow : int; mutable request_bps : float; arrival : int }

    type t = {
      capacity_bps : float;
      entries : (int, entry) Hashtbl.t;
      mutable next_arrival : int;
    }

    let create ~capacity_bps =
      { capacity_bps; entries = Hashtbl.create 32; next_arrival = 0 }

    let update t ~flow ~request_bps =
      match Hashtbl.find_opt t.entries flow with
      | Some e -> e.request_bps <- Float.max 0. request_bps
      | None ->
          Hashtbl.replace t.entries flow
            { flow; request_bps = Float.max 0. request_bps; arrival = t.next_arrival };
          t.next_arrival <- t.next_arrival + 1

    let remove t ~flow = Hashtbl.remove t.entries flow
    let flows t = Hashtbl.length t.entries

    (* Router crash / link outage: reservations at this router are lost and
       rebuilt from the hosts' per-RTT rate requests. [next_arrival] keeps
       counting so re-registered flows queue behind surviving FCFS order. *)
    let clear t = Hashtbl.reset t.entries

    let allocation t ~flow =
      let n = Hashtbl.length t.entries in
      if n = 0 then 0.
      else begin
        let sorted =
          Det_tbl.fold (fun _ e acc -> e :: acc) t.entries []
          |> List.sort (fun a b -> compare a.arrival b.arrival)
        in
        (* FCFS greedy satisfaction of reservations. *)
        let avail = ref t.capacity_bps in
        let granted = Hashtbl.create n in
        List.iter
          (fun e ->
            let g = Float.min e.request_bps !avail in
            Hashtbl.replace granted e.flow g;
            avail := !avail -. g)
          sorted;
        let fair = Float.max 0. !avail /. float_of_int n in
        match Hashtbl.find_opt granted flow with
        | Some g -> g +. fair
        | None -> 0.
      end
  end
end

module Pdq_arbiter = struct
  let es_rtts = Pdq.es_rtts

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

    type t = { capacity_bps : float; entries : (int, entry) Hashtbl.t }

    let create ~capacity_bps = { capacity_bps; entries = Hashtbl.create 32 }

    let update t ~flow ~remaining_pkts ~nic_bps ~usable_bps ~deadline =
      match Hashtbl.find_opt t.entries flow with
      | Some e ->
          e.remaining_pkts <- remaining_pkts;
          e.nic_bps <- nic_bps;
          e.usable_bps <- usable_bps
      | None ->
          Hashtbl.replace t.entries flow
            { flow; remaining_pkts; nic_bps; usable_bps; deadline }

    let remove t ~flow = Hashtbl.remove t.entries flow
    let flows t = Hashtbl.length t.entries

    (* Switch crash / link outage: flow state at this switch is lost; hosts
       repopulate it through their per-RTT refresh headers. *)
    let clear t = Hashtbl.reset t.entries

    (* Criticality order: earliest deadline first, then shortest remaining,
       then flow id for determinism (PDQ's EDF+SJF tie-breaking). *)
    let compare_entries a b =
      match (a.deadline, b.deadline) with
      | Some da, Some db when da <> db -> compare da db
      | Some _, None -> -1
      | None, Some _ -> 1
      | _ ->
          let c = compare a.remaining_pkts b.remaining_pkts in
          if c <> 0 then c else compare a.flow b.flow

    (* The rate this link would grant [flow]: walk flows in criticality
       order; each higher-priority flow consumes only what it can use
       (suppressed demand), and a flow about to finish cedes its slot to the
       next in line (Early Start). *)
    let allocation t ~flow ~rtt ~mss_bits =
      let sorted =
        Det_tbl.fold (fun _ e acc -> e :: acc) t.entries []
        |> List.sort compare_entries
      in
      let rec walk avail = function
        | [] -> 0.
        | e :: rest ->
            let grant = Float.min e.nic_bps avail in
            if e.flow = flow then grant
            else
              let consumed = Float.min grant e.usable_bps in
              let finish_time =
                if consumed > 0. then
                  float_of_int e.remaining_pkts *. mss_bits /. consumed
                else infinity
              in
              let consumed = if finish_time < es_rtts *. rtt then 0. else consumed in
              walk (Float.max 0. (avail -. consumed)) rest
      in
      walk t.capacity_bps sorted
  end
end

module Pfabric_queue = struct
  (* Buffer as a growable array of packet options; holes are compacted lazily
     by swapping with the last live element on removal. Order information
     needed for starvation avoidance comes from packet seq numbers, not from
     buffer position. *)

  type buf = { mutable items : Packet.t option array; mutable len : int }

  let buf_create limit = { items = Array.make (max limit 1) None; len = 0 }

  let buf_add b pkt =
    (* lint: allow pool-lifetime — ownership transfers to the shared buffer; freed on eviction or delivery *)
    b.items.(b.len) <- Some pkt;
    b.len <- b.len + 1

  let buf_remove b i =
    let last = b.len - 1 in
    b.items.(i) <- b.items.(last);
    b.items.(last) <- None;
    b.len <- last

  let buf_get b i = match b.items.(i) with Some p -> p | None -> assert false

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
      let best = ref (-1) in
      for i = 0 to b.len - 1 do
        let p = buf_get b i in
        match !best with
        | -1 -> best := i
        | j ->
            let q = buf_get b j in
            if
              p.Packet.prio > q.Packet.prio
              || (p.Packet.prio = q.Packet.prio && p.Packet.seq > q.Packet.seq)
            then best := i
      done;
      !best
    in
    let enqueue pkt =
      if b.len >= limit_pkts then begin
        let w = worst_index () in
        if w >= 0 && (buf_get b w).Packet.prio > pkt.Packet.prio then begin
          let victim = buf_get b w in
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
          let p = buf_get b i and q = buf_get b !best in
          if
            p.Packet.prio < q.Packet.prio
            || (p.Packet.prio = q.Packet.prio && p.Packet.seq < q.Packet.seq)
          then best := i
        done;
        let chosen_flow = (buf_get b !best).Packet.flow in
        let pick = ref !best in
        for i = 0 to b.len - 1 do
          let p = buf_get b i in
          if p.Packet.flow = chosen_flow && p.Packet.seq < (buf_get b !pick).Packet.seq
          then pick := i
        done;
        let pkt = buf_get b !pick in
        buf_remove b !pick;
        bytes := !bytes - pkt.Packet.size;
        Queue_disc.count_dequeue loc counters ~qpkts:b.len pkt;
        pkt
      end
    in
    let band_occ () =
      let occ = Array.make tiers (0, 0) in
      for i = 0 to b.len - 1 do
        let p = buf_get b i in
        let t = tier_of p.Packet.prio in
        let pk, by = occ.(t) in
        occ.(t) <- (pk + 1, by + p.Packet.size)
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
end
