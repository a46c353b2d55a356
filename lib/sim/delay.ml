(* Per-flow delay attribution.

   Like a Trace bus, the tables are a value owned by one run and reached
   through its counters; the instrumentation in the data path and the
   transports guards on a cheap [on d] so it costs one branch when
   attribution is off. While a flow is live we run a small
   mode machine over wall-to-wall sim time:

     Net          — data is in flight; time accrues to network service
     Blocked_gate — nothing in flight because the transport is gated
                    (arbitration pending, or a rate grant paces sends out);
                    time accrues to arbitration/rate-grant wait
     Blocked_loss — nothing in flight and not gated: everything we sent was
                    lost and we are waiting for the retransmission timer;
                    time accrues to RTO stall

   In parallel, the data path accumulates measured per-packet sums: queueing
   (qdisc residence, stamped via [Packet.enq_at]), serialization (link tx
   time) and propagation (link delay), for every packet of the flow that is
   actually delivered — data, ACKs and probes alike, since they share the
   flow id and the return path is part of perceived network service.

   At completion the wall-clock Net total is split into queueing /
   serialization / propagation proportionally to the measured sums (the
   measured sums themselves over-count wall time whenever transmissions
   pipeline, so only their ratio is trusted), and the queueing share is then
   recomputed as the exact float residual so that

     serialization +. propagation +. arb_wait +. rto_stall +. queueing
       = fct                                   (evaluated left to right)

   holds with float equality, not approximately. *)

type mode = Net | Blocked_gate | Blocked_loss

type state = {
  mutable mode : mode;
  mutable mode_since : float;
  mutable last_activity : float;
  mutable q_sum : float;
  mutable s_sum : float;
  mutable p_sum : float;
  mutable net : float;
  mutable arb : float;
  mutable rto : float;
  mutable timeouts : int;
}

type record = {
  flow : int;
  fct : float;
  serialization : float;
  propagation : float;
  queueing : float;
  arb_wait : float;
  rto_stall : float;
  timeouts : int;
}

type tables = {
  engine : Engine.t;
  live : (int, state) Hashtbl.t;
  finished : (int, record) Hashtbl.t;
}

type t = Off | On of tables

let off = Off

let create engine =
  On { engine; live = Hashtbl.create 256; finished = Hashtbl.create 256 }

let on = function Off -> false | On _ -> true
let now = function Off -> 0. | On d -> Engine.now d.engine

(* A flow the run never registered: every hook is a no-op for it. *)
let find d flow =
  match d with Off -> None | On d -> Hashtbl.find_opt d.live flow

let flow_start d ~flow ~now ~gated =
  match d with
  | Off -> ()
  | On d ->
      Hashtbl.replace d.live flow
        {
          mode = (if gated then Blocked_gate else Blocked_loss);
          mode_since = now;
          last_activity = now;
          q_sum = 0.;
          s_sum = 0.;
          p_sum = 0.;
          net = 0.;
          arb = 0.;
          rto = 0.;
          timeouts = 0;
        }

(* Close the current mode interval at time [t]. *)
let settle st t =
  let d = t -. st.mode_since in
  (match st.mode with
  | Net -> st.net <- st.net +. d
  | Blocked_gate -> st.arb <- st.arb +. d
  | Blocked_loss -> st.rto <- st.rto +. d);
  st.mode_since <- t

let on_send d ~flow ~now =
  match find d flow with
  | None -> ()
  | Some st ->
      if st.mode <> Net then begin
        settle st now;
        st.mode <- Net
      end;
      st.last_activity <- now

let on_activity d ~flow ~now =
  match find d flow with
  | None -> ()
  | Some st -> st.last_activity <- now

let before_timeout d ~flow ~now =
  match find d flow with
  | None -> ()
  | Some st -> (
      st.timeouts <- st.timeouts + 1;
      match st.mode with
      | Net ->
          (* The RTO fired with data nominally in flight: it was lost or
             blackholed. Network service only covers up to the last packet
             activity; the silence before the timer is the stall. *)
          let active =
            Float.max st.mode_since (Float.min st.last_activity now)
          in
          st.net <- st.net +. (active -. st.mode_since);
          st.rto <- st.rto +. (now -. active);
          st.mode_since <- now;
          st.last_activity <- now
      | Blocked_gate ->
          (* Gated when the timer fired: the grant never let us send
             anything, so what follows is loss recovery, not gating. *)
          settle st now;
          st.mode <- Blocked_loss
      | Blocked_loss -> settle st now)

let sync d ~flow ~inflight ~gated ~now =
  match find d flow with
  | None -> ()
  | Some st ->
      let m =
        if inflight > 0 then Net
        else if gated then Blocked_gate
        else Blocked_loss
      in
      if st.mode <> m then begin
        settle st now;
        st.mode <- m
      end

(* One accumulation per delivered hop: a single table lookup charges all
   three measured components. The data path calls this once at delivery
   (Link.prop_done) instead of separate queue/serialization/propagation
   hooks at dequeue and tx completion — the hot path pays one guarded call
   per hop, not three. *)
let hop d ~flow ~queue ~ser ~prop =
  match find d flow with
  | None -> ()
  | Some st ->
      st.q_sum <- st.q_sum +. queue;
      st.s_sum <- st.s_sum +. ser;
      st.p_sum <- st.p_sum +. prop

(* Largest-effort exact residual: find q such that [partial +. q = fct]
   with float equality, starting from the rounded difference and nudging by
   ulps. Both operands are non-negative, so the sum moves by at least one
   ulp of q per step and the loop terminates in a handful of iterations;
   the bound is a safety valve, not an expected path. *)
let residual ~partial ~fct =
  let q = ref (fct -. partial) in
  let budget = ref 4096 in
  while partial +. !q < fct && !budget > 0 do
    q := Float.succ !q;
    decr budget
  done;
  while partial +. !q > fct && !budget > 0 do
    q := Float.pred !q;
    decr budget
  done;
  if partial +. !q = fct then Some !q else None

let complete d ~flow ~now ~fct =
  match (d, find d flow) with
  | Off, _ | _, None -> ()
  | On d, Some st ->
      settle st now;
      Hashtbl.remove d.live flow;
      let measured = st.q_sum +. st.s_sum +. st.p_sum in
      let ser, prop =
        if measured > 0. then
          (st.net *. (st.s_sum /. measured), st.net *. (st.p_sum /. measured))
        else (st.net, 0.)
      in
      let partial = ser +. prop +. st.arb +. st.rto in
      let r =
        match residual ~partial ~fct with
        | Some queueing ->
            {
              flow;
              fct;
              serialization = ser;
              propagation = prop;
              queueing;
              arb_wait = st.arb;
              rto_stall = st.rto;
              timeouts = st.timeouts;
            }
        | None ->
            (* Unreachable in practice; keep the invariant over precision. *)
            {
              flow;
              fct;
              serialization = 0.;
              propagation = 0.;
              queueing = fct;
              arb_wait = 0.;
              rto_stall = 0.;
              timeouts = st.timeouts;
            }
      in
      Hashtbl.replace d.finished flow r

let take d ~flow =
  match d with
  | Off -> None
  | On d ->
      let r = Hashtbl.find_opt d.finished flow in
      Hashtbl.remove d.finished flow;
      r

let check_sum r =
  r.serialization +. r.propagation +. r.arb_wait +. r.rto_stall +. r.queueing
  = r.fct
