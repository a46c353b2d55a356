type t = {
  net : Net.t;
  flow : Flow.t;
  ack_tos : int;
  ack_prio : float;
  received : Seg_store.t;  (* Acked = received *)
  mutable cum : int;
}

let cum_ack t = t.cum

let send_reply t ~kind ~seq ~sack ~ecn_echo =
  let pkt =
    Packet.make ~flow:t.flow.Flow.id ~src:t.flow.Flow.dst ~dst:t.flow.Flow.src
      ~kind ~size:Packet.ack_bytes ~seq ~ack:t.cum ~sack
      ~prio:t.ack_prio ~tos:t.ack_tos ~ecn_capable:false ~ecn_echo
      ~sent_at:(Engine.now (Net.engine t.net)) ()
  in
  Net.send t.net pkt

let handle t (pkt : Packet.t) =
  match pkt.Packet.kind with
  | Packet.Data ->
      let seq = pkt.Packet.seq in
      if Seg_store.get t.received seq <> Seg_store.Acked then begin
        Seg_store.set t.received seq Seg_store.Acked;
        while Seg_store.get t.received t.cum = Seg_store.Acked do
          t.cum <- t.cum + 1
        done
      end;
      send_reply t ~kind:Packet.Ack ~seq ~sack:seq ~ecn_echo:pkt.Packet.ecn_ce
  | Packet.Probe ->
      let seq = pkt.Packet.seq in
      let got = Seg_store.get t.received seq = Seg_store.Acked in
      send_reply t ~kind:Packet.Probe_ack ~seq
        ~sack:(if got then seq else -1)
        ~ecn_echo:pkt.Packet.ecn_ce
  | Packet.Ack | Packet.Probe_ack | Packet.Ctrl -> ()

let create net ~flow ?(ack_tos = 0) ?(ack_prio = 0.) () =
  let t =
    {
      net;
      flow;
      ack_tos;
      ack_prio;
      received = Seg_store.create ();
      cum = 0;
    }
  in
  Net.register_flow net ~host:flow.Flow.dst ~flow:flow.Flow.id (handle t);
  t

let stop t = Net.unregister_flow t.net ~host:t.flow.Flow.dst ~flow:t.flow.Flow.id
