(* The transmitter serializes: at most one packet is "on the wire head"
   ([txing]) at a time, and completed transmissions enter a FIFO ring of
   in-flight packets awaiting the (constant, per-link) propagation delay.
   Because the delay is constant and transmissions complete in schedule
   order, propagation events fire in ring order — so the two per-hop
   closures ("link-tx", "link-prop") are allocated once per link at
   [create] and reused for every packet, instead of once per packet hop.

   Constant delays also keep those events in time order across links, so
   they go through engine FIFO lanes instead of the event heap:
   propagations on the lane for the link's [delay_s], full-rate
   transmissions on the lane for their serialization time. Links with the
   same delay, or the same rate and packet size, share a lane.

   Fault plane: a link can be administratively [set_up false]. While down,
   the transmitter stalls (queued packets wait in the qdisc and may
   overflow it) and everything already on the wire is blackholed — the
   packet being serialized when the link dropped ([tx_doomed]) and the
   [doomed_fly] oldest ring entries, whose propagation events still fire on
   schedule but discard instead of delivering. Senders recover via their
   normal RTO path. *)

type t = {
  engine : Engine.t;
  qdisc : Queue_disc.t;
  rate_bps : float;
  mutable fluid_bps : float;
      (* capacity consumed by the fluid tier; the transmitter serializes
         against the residual. 0 outside hybrid runs: [rate -. 0. = rate]
         exactly, so the packet path is bit-identical with hybrid off. *)
  mutable standing_s : float;
      (* extra one-way latency modelling the standing queue fluid flows
         bottlenecked here maintain (DCTCP holds ~K packets); 0 outside
         hybrid runs and on non-bottleneck links *)
  mutable last_arrival : float;
      (* latest scheduled arrival; arrivals are clamped monotone so the
         constant-delay FIFO ring keeps firing in order even as
         [standing_s] moves between fluid recomputes *)
  delay_s : float;
  deliver : Packet.t -> unit;
  counters : Counters.t;
  trace : Trace.t;  (* [counters]' observers, one load closer per hop *)
  delay : Delay.t;
  mutable busy : bool;
  mutable up : bool;
  mutable tx_doomed : bool;  (* packet on the wire head when the link died *)
  mutable doomed_fly : int;  (* oldest in-flight packets to blackhole *)
  mutable blackholed : int;
  mutable bytes_txed : int;
  dummy : Packet.t;  (* [txing] when idle, so it retains nothing *)
  mutable txing : Packet.t;  (* the packet being serialized; dummy if none *)
  fly : Pkt_ring.t;  (* packets propagating, oldest first *)
  prop_lane : Engine.lane;
  mutable tx_sizes : int array;  (* packet sizes with a full-rate lane *)
  mutable tx_lanes : Engine.lane array;  (* parallel to [tx_sizes] *)
  mutable tx_done : unit -> unit;
  mutable prop_done : unit -> unit;
}

let blackhole t pkt =
  t.blackholed <- t.blackholed + 1;
  t.counters.blackholed_pkts <- t.counters.blackholed_pkts + 1;
  if Trace.on t.trace then begin
    let l = t.qdisc.Queue_disc.loc in
    Trace.emit t.trace
      (Trace.Blackhole { pkt; link = (l.Trace.from_node, l.Trace.to_node) })
  end
  else Packet.free pkt

(* The full-rate serialization lane for [size]-byte packets, found by a
   scan of the (two or three) sizes this link has sent. *)
let rec tx_lane t size i =
  if i = Array.length t.tx_sizes then begin
    let l =
      Engine.delay_lane t.engine ~delay:(float_of_int (8 * size) /. t.rate_bps)
    in
    t.tx_sizes <- Array.append t.tx_sizes [| size |];
    t.tx_lanes <- Array.append t.tx_lanes [| l |];
    l
  end
  else if t.tx_sizes.(i) = size then t.tx_lanes.(i)
  else tx_lane t size (i + 1)

let transmit_next t =
  if not t.up then t.busy <- false
  else
    let pkt = t.qdisc.Queue_disc.take () in
    if pkt == Pkt_ring.dummy then t.busy <- false
    else begin
      t.busy <- true;
      (* lint: allow pool-lifetime — ownership transfers to the wire head; handed to the fly ring or blackholed at tx_done *)
      t.txing <- pkt;
      let size = pkt.Packet.size in
      let tx_time = float_of_int (8 * size) /. (t.rate_bps -. t.fluid_bps) in
      (* A residual rate moves with every fluid recompute, so hybrid
         transmissions are not in time order and stay in the heap. *)
      if t.fluid_bps = 0. then
        Engine.lane_schedule ~label:"link-tx" t.engine (tx_lane t size 0)
          ~delay:tx_time t.tx_done
      else Engine.schedule ~label:"link-tx" t.engine ~delay:tx_time t.tx_done
    end

let create engine ~qdisc ~rate_bps ~delay_s ?(counters = Counters.create ())
    ~deliver () =
  if rate_bps <= 0. then invalid_arg "Link.create: rate must be positive";
  if delay_s < 0. then invalid_arg "Link.create: negative delay";
  let dummy = Packet.dummy () in
  let t =
    {
      engine;
      qdisc;
      rate_bps;
      delay_s;
      deliver;
      counters;
      trace = counters.Counters.trace;
      delay = counters.Counters.delay;
      fluid_bps = 0.;
      standing_s = 0.;
      last_arrival = 0.;
      busy = false;
      up = true;
      tx_doomed = false;
      doomed_fly = 0;
      blackholed = 0;
      bytes_txed = 0;
      dummy;
      txing = dummy;
      fly = Pkt_ring.create ();
      prop_lane = Engine.delay_lane engine ~delay:delay_s;
      tx_sizes = [||];
      tx_lanes = [||];
      tx_done = ignore;
      prop_done = ignore;
    }
  in
  t.prop_done <-
    (fun () ->
      let pkt = Pkt_ring.pop t.fly in
      if t.doomed_fly > 0 then begin
        t.doomed_fly <- t.doomed_fly - 1;
        blackhole t pkt
      end
      else begin
        (if Delay.on t.delay then
           (* The whole hop's attribution in one call: arrival time minus
              the propagation and (current-rate) serialization components is
              the qdisc residence, measured from the [enq_at] stamp. Only
              delivered packets contribute to the measured proportions. *)
           let ser =
             float_of_int (8 * pkt.Packet.size) /. (t.rate_bps -. t.fluid_bps)
           in
           let queue =
             Engine.now t.engine -. t.delay_s -. ser -. pkt.Packet.enq_at
           in
           Delay.hop t.delay ~flow:pkt.Packet.flow
             ~queue:(Float.max 0. queue)
             ~ser ~prop:t.delay_s);
        t.deliver pkt
      end);
  t.tx_done <-
    (fun () ->
      let pkt = t.txing in
      t.txing <- t.dummy;
      if t.tx_doomed then begin
        (* The link dropped while this packet was being serialized: the
           tail never made it onto the wire. *)
        t.tx_doomed <- false;
        blackhole t pkt;
        transmit_next t
      end
      else begin
        t.bytes_txed <- t.bytes_txed + pkt.Packet.size;
        (if Trace.on t.trace then
           let l = t.qdisc.Queue_disc.loc in
           Trace.emit t.trace
             (Trace.Tx { pkt; link = (l.Trace.from_node, l.Trace.to_node) }));
        (* Propagation: the head bit pipeline is folded into arrival time;
           the transmitter is free as soon as the last bit leaves. *)
        (* lint: allow pool-lifetime — ownership transfers to the in-flight ring; freed on delivery or blackhole *)
        Pkt_ring.push t.fly pkt;
        (* The fast branch is the exact pre-hybrid computation: with the
           standing term never set (and so [last_arrival] never touched)
           the scheduled delay is bit-identical to [delay_s]. The slow
           branch clamps arrivals monotone — a FIFO never reorders — so a
           shrinking standing term cannot invert the fly ring's order. *)
        (if t.standing_s = 0. && t.last_arrival = 0. then
           Engine.lane_schedule ~label:"link-prop" t.engine t.prop_lane
             ~delay:t.delay_s t.prop_done
         else begin
           let now = Engine.now t.engine in
           let arrive =
             Float.max (now +. t.delay_s +. t.standing_s) t.last_arrival
           in
           t.last_arrival <- arrive;
           Engine.schedule ~label:"link-prop" t.engine ~delay:(arrive -. now)
             t.prop_done
         end);
        transmit_next t
      end);
  t

let set_up t up =
  if up <> t.up then begin
    t.up <- up;
    if up then begin
      if not t.busy then transmit_next t
    end
    else begin
      (* Everything on the wire is lost: the packet mid-serialization and
         every in-flight packet. Their already-scheduled events still fire
         (determinism: the event stream never mutates) but discard. *)
      t.doomed_fly <- Pkt_ring.length t.fly;
      if t.busy then t.tx_doomed <- true
    end
  end

let send t pkt =
  t.qdisc.Queue_disc.enqueue pkt;
  if (not t.busy) && t.up then transmit_next t

let rate_bps t = t.rate_bps
let delay_s t = t.delay_s

(* At most 98% of the line rate goes to the fluid tier: the residual keeps
   ACKs and stray control packets of the packet tier trickling even on
   links the allocator filled completely (n_pkt counts only registered
   data paths, not reverse ACK paths). *)
let set_fluid_bps t bps =
  let bps = Float.max 0. (Float.min bps (0.98 *. t.rate_bps)) in
  if bps <> t.fluid_bps then begin
    t.fluid_bps <- bps;
    t.qdisc.Queue_disc.set_cap_frac ((t.rate_bps -. t.fluid_bps) /. t.rate_bps)
  end

let fluid_bps t = t.fluid_bps

(* Standing-queue latency from the fluid tier: DCTCP-family fluid flows hold
   roughly the marking threshold of backlog at their bottleneck, which
   packet-tier traffic waits behind in the full engine. Negative values
   clamp to zero; shrinkage is safe (arrival clamping above). *)
let set_standing_s t s = t.standing_s <- Float.max 0. s
let standing_s t = t.standing_s
let qdisc t = t.qdisc
let bytes_txed t = t.bytes_txed
let busy t = t.busy
let is_up t = t.up
let blackholed t = t.blackholed
