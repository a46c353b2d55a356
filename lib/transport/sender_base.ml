type conf = {
  mss : int;
  init_cwnd : float;
  max_cwnd : float;
  init_ssthresh : float;
  min_rto : float;
  max_rto : float;
  init_rtt : float;
  ecn_capable : bool;
}

(* The per-ACK float state. A float-only record is stored flat, so these
   updates write unboxed floats; as fields of [t], a mixed record, each
   store would allocate a box. *)
type cc = {
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable srtt : float;
  mutable rttvar : float;
  mutable next_pace_at : float;
}

type t = {
  net : Net.t;
  engine : Engine.t;
  trace : Trace.t;  (* the run's observers, from the net's counters *)
  delay : Delay.t;
  flow : Flow.t;
  conf : conf;
  hooks : hooks;
  status : Seg_store.t;
  mutable sent_at : float array;
  mutable sent_retx : Bytes.t;
      (* Send time and retransmission flag of segment [seq] at slot
         [seq land (capacity - 1)] (capacity a power of two). A slot is
         valid exactly while its segment is [Inflight]; every such segment
         lies in [cum_ack, next_new), which the capacity covers. *)
  cc : cc;
  mutable next_new : int;  (* next never-transmitted segment *)
  mutable cum_ack : int;  (* first unacked segment *)
  mutable acked_count : int;
  mutable inflight : int;
  mutable lost : int;  (* segments in [Lost] status, awaiting retransmission *)
  mutable backoff : int;
  mutable consecutive_timeouts : int;
  mutable dupacks : int;
  mutable recover_until : int;  (* suppress fast-rtx until cum_ack passes *)
  mutable in_recovery : bool;
  mutable rto_timer : Engine.timer option;  (* created on first arm *)
  mutable probe_outstanding : bool;
  mutable pace_scheduled : bool;
  mutable completed : bool;
  on_complete : t -> fct:float -> unit;
}

and hooks = {
  stamp : t -> Packet.t -> unit;
  on_ack : t -> ecn:bool -> newly_acked:int -> unit;
  on_fast_retransmit : t -> unit;
  on_timeout : t -> [ `Default | `Handled ];
  allow_send : t -> bool;
  pacing_rate : t -> float option;
  base_rto : t -> float;
}

let default_conf =
  {
    mss = 1460;
    init_cwnd = 2.;
    max_cwnd = 10_000.;
    init_ssthresh = 1000.;
    min_rto = 0.010;
    max_rto = 2.0;
    init_rtt = 0.0003;
    ecn_capable = true;
  }

let net t = t.net
let engine t = t.engine
let trace t = t.trace
let flow t = t.flow
let conf t = t.conf
let cwnd t = t.cc.cwnd

let set_cwnd t w =
  t.cc.cwnd <- Float.min t.conf.max_cwnd (Float.max 1. w);
  if Trace.on t.trace then
    Trace.emit t.trace
      (Trace.Cwnd
         { flow = t.flow.Flow.id; cwnd = t.cc.cwnd; ssthresh = t.cc.ssthresh })
let ssthresh t = t.cc.ssthresh
let set_ssthresh t v = t.cc.ssthresh <- Float.max 2. v
let srtt t = t.cc.srtt
let acked_pkts t = t.acked_count
let remaining_pkts t = Int.max 0 (t.flow.Flow.size_pkts - t.acked_count)
let sent_new_pkts t = t.next_new
let cum_ack t = t.cum_ack
let inflight t = t.inflight
let completed t = t.completed
let consecutive_timeouts t = t.consecutive_timeouts

let window t = Int.max 1 (int_of_float t.cc.cwnd)

let rto_value t =
  let base =
    Float.max (t.hooks.base_rto t) (t.cc.srtt +. (4. *. t.cc.rttvar))
  in
  let backed = base *. Float.ldexp 1. t.backoff in
  Float.min t.conf.max_rto backed

let cancel_timer t =
  match t.rto_timer with
  | Some tm -> Engine.timer_cancel t.engine tm
  | None -> ()

(* Attribution probe: is the transport blocked by its protocol hooks — an
   arbitration assignment still pending, or a pacing grant spacing sends
   out — rather than by loss recovery? Only consulted when attributing. *)
let delay_gated t =
  (not (t.hooks.allow_send t))
  ||
  match t.hooks.pacing_rate t with
  | Some _ -> true
  | None -> false

(* Grow the send-time ring until it covers [cum_ack, next_new), moving
   the slots of that window to their new positions. *)
let cover_window t =
  let cap = Array.length t.sent_at in
  let span = t.next_new - t.cum_ack in
  if span > cap then begin
    let ncap = ref (2 * cap) in
    while !ncap < span do
      ncap := 2 * !ncap
    done;
    let times = Array.make !ncap 0. in
    let retx = Bytes.make !ncap '\000' in
    for s = t.cum_ack to t.next_new - 1 do
      times.(s land (!ncap - 1)) <- t.sent_at.(s land (cap - 1));
      Bytes.set retx (s land (!ncap - 1)) (Bytes.get t.sent_retx (s land (cap - 1)))
    done;
    t.sent_at <- times;
    t.sent_retx <- retx
  end

let record_send t seq ~retx =
  cover_window t;
  let i = seq land (Array.length t.sent_at - 1) in
  t.sent_at.(i) <- Engine.now t.engine;
  Bytes.set t.sent_retx i (if retx then '\001' else '\000')

(* Forward declarations resolved through mutual recursion. The RTO rides a
   single reschedulable engine timer for the life of the flow: every ack
   resets it in place instead of allocating a fresh event record. *)
let rec arm_timer t =
  if not t.completed then
    match t.rto_timer with
    | Some tm ->
        if not (Engine.timer_pending tm) then
          Engine.timer_schedule t.engine tm ~delay:(rto_value t)
    | None ->
        let tm =
          Engine.timer ~label:"rto" t.engine (fun () -> handle_timeout t)
        in
        t.rto_timer <- Some tm;
        Engine.timer_schedule t.engine tm ~delay:(rto_value t)

and reset_timer t =
  cancel_timer t;
  if t.inflight > 0 || t.cum_ack < t.next_new then arm_timer t

and handle_timeout t =
  if t.completed then ()
  else begin
    if Delay.on t.delay then
      Delay.before_timeout t.delay ~flow:t.flow.Flow.id
        ~now:(Engine.now t.engine);
    t.consecutive_timeouts <- t.consecutive_timeouts + 1;
    if Trace.on t.trace then
      Trace.emit t.trace
        (Trace.Flow_timeout { flow = t.flow.Flow.id; backoff = t.backoff });
    (match t.hooks.on_timeout t with
    | `Handled -> ()
    | `Default -> default_timeout_action t);
    t.backoff <- Int.min 8 (t.backoff + 1);
    arm_timer t;
    if Delay.on t.delay && not t.completed then
      Delay.sync t.delay ~flow:t.flow.Flow.id ~inflight:t.inflight
        ~gated:(delay_gated t) ~now:(Engine.now t.engine)
  end

and default_timeout_action t =
  (* Go-back-N on RTO: everything unacked and in flight is presumed lost. *)
  for s = t.cum_ack to t.next_new - 1 do
    if Seg_store.get t.status s = Seg_store.Inflight then begin
      Seg_store.set t.status s Seg_store.Lost;
      t.inflight <- t.inflight - 1;
      t.lost <- t.lost + 1
    end
  done;
  t.in_recovery <- false;
  set_ssthresh t (t.cc.cwnd /. 2.);
  set_cwnd t 1.;
  try_send t

and next_to_send t =
  (* The segment to send next, or -1 for none. Lost segments
     (retransmissions) take precedence over new data. Every [Lost] segment
     lies in [cum_ack, next_new), so the result is a retransmission exactly
     when it is below [next_new]; skip the scan when there is none. *)
  let s = ref (if t.lost = 0 then t.next_new else t.cum_ack) in
  while !s < t.next_new && Seg_store.get t.status !s <> Seg_store.Lost do
    incr s
  done;
  if !s < t.next_new then !s
  else if t.next_new < t.flow.Flow.size_pkts then t.next_new
  else -1

and send_segment t seq ~retx =
  if not retx then t.next_new <- Int.max t.next_new (seq + 1);
  if Seg_store.get t.status seq = Seg_store.Lost then t.lost <- t.lost - 1;
  Seg_store.set t.status seq Seg_store.Inflight;
  t.inflight <- t.inflight + 1;
  if Delay.on t.delay then
    Delay.on_send t.delay ~flow:t.flow.Flow.id ~now:(Engine.now t.engine);
  record_send t seq ~retx;
  let pkt =
    Packet.make_full ~flow:t.flow.Flow.id ~src:t.flow.Flow.src
      ~dst:t.flow.Flow.dst ~kind:Packet.Data
      ~size:(t.conf.mss + Packet.header_bytes)
      ~seq ~ack:(-1) ~sack:(-1) ~prio:0. ~tos:0
      ~ecn_capable:t.conf.ecn_capable ~ecn_echo:false
      ~sent_at:(Engine.now t.engine)
  in
  t.hooks.stamp t pkt;
  Net.send t.net pkt;
  arm_timer t

and try_send t =
  if t.completed then ()
  else
    match t.hooks.pacing_rate t with
    | None ->
        let continue = ref true in
        while !continue do
          if t.inflight < window t && t.hooks.allow_send t then begin
            let seq = next_to_send t in
            if seq >= 0 then send_segment t seq ~retx:(seq < t.next_new)
            else continue := false
          end
          else continue := false
        done
    | Some rate -> if rate > 0. then schedule_pace t rate

and schedule_pace t _rate =
  if (not t.pace_scheduled) && not t.completed then begin
    let now = Engine.now t.engine in
    let at = Float.max now t.cc.next_pace_at in
    t.pace_scheduled <- true;
    Engine.schedule_at ~label:"pace" t.engine ~time:at (fun () ->
        t.pace_scheduled <- false;
        if not t.completed then begin
          (match t.hooks.pacing_rate t with
          | Some rate when rate > 0. ->
              if t.inflight < window t && t.hooks.allow_send t then begin
                let seq = next_to_send t in
                if seq >= 0 then begin
                  send_segment t seq ~retx:(seq < t.next_new);
                  t.cc.next_pace_at <-
                    Engine.now t.engine
                    +. (float_of_int (8 * (t.conf.mss + Packet.header_bytes))
                       /. rate);
                  schedule_pace t rate
                end
              end
              else begin
                (* Window-blocked: retry after the current pacing gap. *)
                t.cc.next_pace_at <-
                  Engine.now t.engine
                  +. (float_of_int (8 * (t.conf.mss + Packet.header_bytes)) /. rate);
                schedule_pace t rate
              end
          | _ -> ())
        end)
  end

let send_probe t =
  if (not t.probe_outstanding) && not t.completed then begin
    t.probe_outstanding <- true;
    let pkt =
      Packet.make_full ~flow:t.flow.Flow.id ~src:t.flow.Flow.src
        ~dst:t.flow.Flow.dst ~kind:Packet.Probe ~size:Packet.probe_bytes
        ~seq:t.cum_ack ~ack:(-1) ~sack:(-1) ~prio:0. ~tos:0 ~ecn_capable:false
        ~ecn_echo:false ~sent_at:(Engine.now t.engine)
    in
    t.hooks.stamp t pkt;
    Net.send t.net pkt
  end

let complete t =
  if not t.completed then begin
    t.completed <- true;
    cancel_timer t;
    Net.unregister_flow t.net ~host:t.flow.Flow.src ~flow:t.flow.Flow.id;
    let fct = Engine.now t.engine -. t.flow.Flow.start_time in
    if Delay.on t.delay then
      Delay.complete t.delay ~flow:t.flow.Flow.id ~now:(Engine.now t.engine)
        ~fct;
    if Trace.on t.trace then
      Trace.emit t.trace (Trace.Flow_finish { flow = t.flow.Flow.id; fct });
    t.on_complete t ~fct
  end

let update_rtt t sample =
  if t.cc.srtt <= 0. then begin
    t.cc.srtt <- sample;
    t.cc.rttvar <- sample /. 2.
  end
  else begin
    let alpha = 0.125 and beta = 0.25 in
    t.cc.rttvar <-
      ((1. -. beta) *. t.cc.rttvar)
      +. (beta *. Float.abs (t.cc.srtt -. sample));
    t.cc.srtt <- ((1. -. alpha) *. t.cc.srtt) +. (alpha *. sample)
  end

let mark_acked t seq newly =
  match Seg_store.get t.status seq with
  | Seg_store.Acked -> ()
  | prev ->
      if prev = Seg_store.Lost then t.lost <- t.lost - 1;
      if prev = Seg_store.Inflight then begin
        t.inflight <- t.inflight - 1;
        (* Karn's rule: a retransmitted segment's ACK is ambiguous, so it
           gives no RTT sample. *)
        let i = seq land (Array.length t.sent_at - 1) in
        if Bytes.get t.sent_retx i = '\000' then
          update_rtt t (Engine.now t.engine -. t.sent_at.(i))
      end;
      Seg_store.set t.status seq Seg_store.Acked;
      t.acked_count <- t.acked_count + 1;
      incr newly;
      (* A segment the receiver has cannot be "new" anymore. *)
      if seq >= t.next_new then t.next_new <- seq + 1

let mark_lost t seq =
  if Seg_store.get t.status seq = Seg_store.Inflight then begin
    Seg_store.set t.status seq Seg_store.Lost;
    t.inflight <- t.inflight - 1;
    t.lost <- t.lost + 1
  end

let handle_ack_like t (pkt : Packet.t) =
  if t.completed then ()
  else begin
    t.probe_outstanding <- false;
    if Delay.on t.delay then
      Delay.on_activity t.delay ~flow:t.flow.Flow.id ~now:(Engine.now t.engine);
    let newly = ref 0 in
    if pkt.Packet.sack >= 0 then mark_acked t pkt.Packet.sack newly;
    if pkt.Packet.ack > t.cum_ack then begin
      for s = t.cum_ack to pkt.Packet.ack - 1 do
        mark_acked t s newly
      done;
      t.cum_ack <- pkt.Packet.ack;
      t.dupacks <- 0;
      t.backoff <- 0;
      t.consecutive_timeouts <- 0;
      if t.in_recovery then begin
        if t.cum_ack >= t.recover_until then t.in_recovery <- false
        else
          (* NewReno partial ack: the next hole is also lost; retransmit it
             without waiting for three more duplicates. *)
          mark_lost t t.cum_ack
      end;
      reset_timer t
    end
    else if pkt.Packet.kind = Packet.Ack && pkt.Packet.sack >= t.cum_ack then begin
      t.dupacks <- t.dupacks + 1;
      if t.dupacks = 3 && t.cum_ack >= t.recover_until then begin
        mark_lost t t.cum_ack;
        t.recover_until <- t.next_new;
        t.in_recovery <- true;
        t.hooks.on_fast_retransmit t
      end
    end;
    (* A probe answered "segment missing": it was dropped, not parked. An
       expired RTO plus a confirmed hole is a timeout-grade loss signal, so
       go back N like [default_timeout_action] — marking only the probed
       segment would leave any other blackholed segment [Inflight] forever,
       pinning [inflight] above zero. *)
    if
      pkt.Packet.kind = Packet.Probe_ack
      && pkt.Packet.sack < 0
      && pkt.Packet.seq >= t.cum_ack
    then begin
      for s = t.cum_ack to t.next_new - 1 do
        mark_lost t s
      done;
      t.in_recovery <- false
    end;
    t.hooks.on_ack t ~ecn:pkt.Packet.ecn_echo ~newly_acked:!newly;
    if t.cum_ack >= t.flow.Flow.size_pkts then complete t
    else begin
      try_send t;
      if Delay.on t.delay && not t.completed then
        Delay.sync t.delay ~flow:t.flow.Flow.id ~inflight:t.inflight
          ~gated:(delay_gated t) ~now:(Engine.now t.engine)
    end
  end

let default_hooks =
  {
    stamp = (fun _ _ -> ());
    on_ack = (fun _ ~ecn:_ ~newly_acked:_ -> ());
    on_fast_retransmit = (fun _ -> ());
    on_timeout = (fun _ -> `Default);
    allow_send = (fun _ -> true);
    pacing_rate = (fun _ -> None);
    base_rto = (fun t -> t.conf.min_rto);
  }

let create net ~flow ~conf ?(hooks = default_hooks) ~on_complete () =
  (* Register with the attribution machine here, not in [start]: hosts may
     push data through the sender before calling [start] (PASE applies the
     initial arbitration assignment first), and those sends must be seen.
     The hooks cannot be probed yet (host back-references are only wired
     after [create] returns), so the initial mode is provisional; [start]
     re-syncs it. *)
  let counters = Net.counters net in
  let delay = counters.Counters.delay in
  if Delay.on delay then
    Delay.flow_start delay ~flow:flow.Flow.id ~now:flow.Flow.start_time
      ~gated:false;
  {
    net;
    engine = Net.engine net;
    trace = counters.Counters.trace;
    delay;
    flow;
    conf;
    hooks;
    status = Seg_store.create ();
    sent_at = Array.make 16 0.;
    sent_retx = Bytes.make 16 '\000';
    cc =
      {
        cwnd = Float.min conf.max_cwnd (Float.max 1. conf.init_cwnd);
        ssthresh = conf.init_ssthresh;
        srtt = conf.init_rtt;
        rttvar = conf.init_rtt /. 2.;
        next_pace_at = 0.;
      };
    next_new = 0;
    cum_ack = 0;
    acked_count = 0;
    inflight = 0;
    lost = 0;
    backoff = 0;
    consecutive_timeouts = 0;
    dupacks = 0;
    recover_until = 0;
    in_recovery = false;
    rto_timer = None;
    probe_outstanding = false;
    pace_scheduled = false;
    completed = false;
    on_complete;
  }

let start t =
  if Trace.on t.trace then
    Trace.emit t.trace
      (Trace.Flow_start
         {
           flow = t.flow.Flow.id;
           src = t.flow.Flow.src;
           dst = t.flow.Flow.dst;
           size_pkts = t.flow.Flow.size_pkts;
           deadline = Flow.absolute_deadline t.flow;
         });
  Net.register_flow t.net ~host:t.flow.Flow.src ~flow:t.flow.Flow.id (fun pkt ->
      match pkt.Packet.kind with
      | Packet.Ack | Packet.Probe_ack -> handle_ack_like t pkt
      | Packet.Data | Packet.Probe | Packet.Ctrl -> ());
  if Delay.on t.delay then
    Delay.sync t.delay ~flow:t.flow.Flow.id ~inflight:t.inflight
      ~gated:(delay_gated t) ~now:(Engine.now t.engine);
  try_send t
