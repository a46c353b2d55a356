let create_with_inspect counters ~bands ~limit_pkts ~mark_threshold =
  if bands <= 0 then invalid_arg "Prio_queue.create: bands must be positive";
  let qs = Array.init bands (fun _ -> Pkt_ring.create ()) in
  let band_bytes = Array.make bands 0 in
  let total = ref 0 in
  let bytes = ref 0 in
  let drops = ref 0 in
  let loc = Trace.unattached_loc () in
  let band_of (pkt : Packet.t) =
    let b = pkt.Packet.tos in
    if b < 0 then 0 else if b >= bands then bands - 1 else b
  in
  (* Evict one packet from the lowest-priority non-empty band strictly below
     [band] (i.e., with a larger index). Returns true on success. *)
  let push_out_below band =
    let rec scan i =
      if i <= band then false
      else if Pkt_ring.length qs.(i) > 0 then begin
        (* Drop the band's most recent arrival: the band is FIFO, so this
           preserves in-order delivery of its older packets. *)
        let p = Pkt_ring.pop_tail qs.(i) in
        total := !total - 1;
        bytes := !bytes - p.Packet.size;
        band_bytes.(i) <- band_bytes.(i) - p.Packet.size;
        incr drops;
        Queue_disc.count_drop loc counters ~qpkts:!total p;
        true
      end
      else scan (i - 1)
    in
    scan (bands - 1)
  in
  let eff_mark = ref mark_threshold in
  let set_cap_frac frac =
    eff_mark := Queue_disc.scaled_threshold mark_threshold frac
  in
  let enqueue pkt =
    let band = band_of pkt in
    let admitted =
      if !total < limit_pkts then true
      else push_out_below band
    in
    if not admitted then begin
      incr drops;
      Queue_disc.count_drop loc counters ~qpkts:!total pkt
    end
    else begin
      if pkt.Packet.ecn_capable && Pkt_ring.length qs.(band) >= !eff_mark
      then Queue_disc.count_mark loc counters ~qpkts:!total pkt;
      (* lint: allow pool-lifetime — ownership transfers to the band queue; freed on drop or delivery *)
      Pkt_ring.push qs.(band) pkt;
      total := !total + 1;
      bytes := !bytes + pkt.Packet.size;
      band_bytes.(band) <- band_bytes.(band) + pkt.Packet.size;
      Queue_disc.count_enqueue loc counters ~qpkts:!total pkt
    end
  in
  let dequeue () =
    let rec scan i =
      if i >= bands then None
      else if Pkt_ring.length qs.(i) > 0 then begin
        let pkt = Pkt_ring.pop qs.(i) in
        total := !total - 1;
        bytes := !bytes - pkt.Packet.size;
        band_bytes.(i) <- band_bytes.(i) - pkt.Packet.size;
        Queue_disc.count_dequeue loc counters ~qpkts:!total pkt;
        Some pkt
      end
      else scan (i + 1)
    in
    if !total = 0 then None else scan 0
  in
  let band_occ () =
    Array.init bands (fun i -> (Pkt_ring.length qs.(i), band_bytes.(i)))
  in
  let disc =
    {
      Queue_disc.enqueue;
      dequeue;
      pkts = (fun () -> !total);
      bytes = (fun () -> !bytes);
      bands = band_occ;
      drops = (fun () -> !drops);
      set_cap_frac;
      loc;
    }
  in
  (disc, fun i -> Pkt_ring.length qs.(i))

let create counters ~bands ~limit_pkts ~mark_threshold =
  fst (create_with_inspect counters ~bands ~limit_pkts ~mark_threshold)
