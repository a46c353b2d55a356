type t = {
  sender : Sender_base.t;
  hierarchy : Hierarchy.t;
  cfg : Config.t;
  criterion_override : (unit -> float) option;
  rtt : float;
  nic_bps : float;
  ecn : Ecn_cc.state;
  mutable queue : int;
  mutable rref_bps : float;
  mutable is_inter : bool;  (* already running DCTCP laws in a middle queue *)
  mutable pending : (int * float) option;  (* promotion awaiting drain *)
  mutable probes_sent : int;
  mutable guided : bool;
      (* false while remote arbitration is unreachable (crash / lost
         control messages): windows fall back to plain DCTCP laws instead
         of trusting a stale reference rate *)
  mutable started : bool;
}

let sender t = t.sender
let queue t = t.queue
let rref_bps t = t.rref_bps
let probes_sent t = t.probes_sent

let mss_bits t =
  float_of_int (8 * (Sender_base.conf t.sender).Sender_base.mss)

let rref_pkts t = Float.max 1. (t.rref_bps *. t.rtt /. mss_bits t)

let is_bottom t q = q >= t.cfg.Config.num_queues - 1
let is_top q = q = 0

(* Set the window for the queue just entered (Algorithm 2, per-assignment
   part). With [use_ref_rate] off (PASE-DCTCP, Fig 13a) windows evolve by
   plain DCTCP laws and only the packet priority follows arbitration. *)
let apply_window_policy t =
  if t.cfg.Config.use_ref_rate && t.guided then begin
    if is_top t.queue then begin
      Sender_base.set_cwnd t.sender (rref_pkts t);
      t.is_inter <- false
    end
    else if is_bottom t t.queue then begin
      Sender_base.set_cwnd t.sender 1.;
      t.is_inter <- false
    end
    else if not t.is_inter then begin
      Sender_base.set_cwnd t.sender 1.;
      t.is_inter <- true
    end
  end

let really_apply t (q, rref) =
  t.queue <- q;
  t.rref_bps <- rref;
  if Trace.on (Sender_base.trace t.sender) then
    Trace.emit (Sender_base.trace t.sender)
      (Trace.Queue_assign
         {
           flow = (Sender_base.flow t.sender).Flow.id;
           queue = q;
           rref_bps = rref;
         });
  apply_window_policy t;
  Sender_base.try_send t.sender

let apply_assignment t ~queue:q ~rref_bps:rref =
  if Sender_base.completed t.sender then ()
  else if q < t.queue && Sender_base.inflight t.sender > 0 then
    (* Promotion with packets still out at the old priority: hold new
       transmissions until they drain (reordering guard, §3.2). *)
    t.pending <- Some (q, rref)
  else begin
    t.pending <- None;
    really_apply t (q, rref)
  end

let on_ack t sender ~ecn ~newly_acked =
  Ecn_cc.observe t.ecn sender ~ecn ~weight:newly_acked;
  (* Reordering guard release: old-priority packets have drained. *)
  (match t.pending with
  | Some (q, rref) when Sender_base.inflight sender = 0 ->
      t.pending <- None;
      really_apply t (q, rref)
  | _ -> ());
  if ecn then
    ignore
      (Ecn_cc.try_cut t.ecn sender
         ~multiplier:(1. -. (Ecn_cc.alpha t.ecn /. 2.)))
  else if newly_acked > 0 then begin
    let guided = t.cfg.Config.use_ref_rate && t.guided in
    if guided && is_top t.queue then Sender_base.set_cwnd sender (rref_pkts t)
    else if guided && is_bottom t t.queue then Sender_base.set_cwnd sender 1.
    else
      (* DCTCP increase laws. Intermediate queues stay work-conserving
         this way: when the band above drains, the flow ramps into the
         spare capacity. PASE-DCTCP, and flows whose arbitration is
         unreachable, run them in every queue. *)
      Ecn_cc.increase sender ~weight:(fun _ -> 1.) ~newly_acked
  end

let demand t () =
  if Sender_base.completed t.sender then 0.
  else
    let remaining_bits =
      float_of_int (Sender_base.remaining_pkts t.sender) *. mss_bits t
    in
    Float.min t.nic_bps (remaining_bits /. Float.max t.rtt (Sender_base.srtt t.sender))

let criterion t () =
  match t.criterion_override with
  | Some f -> f ()
  | None -> (
      match t.cfg.Config.scheduling with
      | Config.Srpt | Config.Task_aware ->
          (* Task_aware without an override degrades to SRPT. *)
          float_of_int (Sender_base.remaining_pkts t.sender)
      | Config.Edf -> (
          match Flow.absolute_deadline (Sender_base.flow t.sender) with
          | Some d -> d
          | None -> infinity))

let create net hierarchy ~flow ~cfg ~rtt ~nic_bps ?criterion_override ~on_complete () =
  let conf =
    {
      Sender_base.default_conf with
      Sender_base.init_cwnd = 1.;
      min_rto = Config.rto_top;
      init_rtt = rtt;
      ecn_capable = true;
    }
  in
  let ecn = Ecn_cc.create_state () in
  (* Hooks fire only after [start], by which time [self_ref] is set. *)
  let self_ref = ref None in
  let self () =
    match !self_ref with Some s -> s | None -> assert false
  in
  let stamp _ (pkt : Packet.t) =
    let t = self () in
    pkt.Packet.tos <- t.queue;
    pkt.Packet.prio <- float_of_int (Sender_base.remaining_pkts t.sender)
  in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.stamp;
      on_ack = (fun s ~ecn ~newly_acked -> on_ack (self ()) s ~ecn ~newly_acked);
      on_fast_retransmit =
        (fun s -> ignore (Ecn_cc.try_cut (self ()).ecn s ~multiplier:0.5));
      on_timeout =
        (fun s ->
          let t = self () in
          if is_top t.queue || (not t.cfg.Config.use_probes) || not t.guided
          then begin
            (* The RTO path presumes every outstanding old-priority packet
               lost (go-back-N), so the promotion reordering guard has
               nothing left to wait for. Release it here: with zero packets
               in flight no ack will ever fire the [on_ack] release, and a
               held guard blocks the retransmissions via [allow_send]. *)
            (match t.pending with
            | Some (q, rref) ->
                t.pending <- None;
                really_apply t (q, rref)
            | None -> ());
            `Default
          end
          else begin
            (* Parked or lost? Ask with a header-only probe. *)
            t.probes_sent <- t.probes_sent + 1;
            Sender_base.send_probe s;
            `Handled
          end);
      allow_send = (fun _ -> (self ()).pending = None);
      base_rto =
        (fun _ ->
          let t = self () in
          (* Unguided flows keep the aggressive RTO: with arbitration down
             they must detect blackholed packets themselves. *)
          if is_top t.queue || not t.guided then Config.rto_top
          else t.cfg.Config.rto_low);
    }
  in
  let on_complete sender ~fct =
    Hierarchy.remove_flow hierarchy ~flow_id:flow.Flow.id;
    on_complete sender ~fct
  in
  let sender = Sender_base.create net ~flow ~conf ~hooks ~on_complete () in
  let mss_bits = float_of_int (8 * conf.Sender_base.mss) in
  let t =
    {
      sender;
      hierarchy;
      cfg;
      criterion_override;
      rtt;
      nic_bps;
      ecn;
      queue = cfg.Config.num_queues - 1;
      rref_bps = mss_bits /. rtt;
      is_inter = false;
      pending = None;
      probes_sent = 0;
      guided = true;
      started = false;
    }
  in
  self_ref := Some t;
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Hierarchy.add_flow t.hierarchy ~flow:(Sender_base.flow t.sender)
      ~criterion:(criterion t) ~demand:(demand t)
      ~unreachable:(fun lost -> t.guided <- not lost)
      ~apply:(fun ~queue ~rref_bps -> apply_assignment t ~queue ~rref_bps)
      ();
    Sender_base.start t.sender
  end
