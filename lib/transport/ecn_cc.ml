type state = {
  mutable alpha : float;
  mutable acked_in_window : int;
  mutable marked_in_window : int;
  mutable window_end : int;
  mutable cut_end : int;
}

let gain = 1. /. 16.

let create_state () =
  { alpha = 0.; acked_in_window = 0; marked_in_window = 0; window_end = 0; cut_end = 0 }

let alpha st = st.alpha

let observe st t ~ecn ~weight =
  let w = Int.max 1 weight in
  st.acked_in_window <- st.acked_in_window + w;
  if ecn then st.marked_in_window <- st.marked_in_window + w;
  (* One window of data acked: fold the observed fraction into alpha. *)
  if Sender_base.cum_ack t >= st.window_end then begin
    let f =
      if st.acked_in_window = 0 then 0.
      else float_of_int st.marked_in_window /. float_of_int st.acked_in_window
    in
    st.alpha <- ((1. -. gain) *. st.alpha) +. (gain *. f);
    if Trace.on (Sender_base.trace t) then
      Trace.emit (Sender_base.trace t)
        (Trace.Alpha
           { flow = (Sender_base.flow t).Flow.id; alpha = st.alpha });
    st.acked_in_window <- 0;
    st.marked_in_window <- 0;
    st.window_end <- Sender_base.sent_new_pkts t
  end

let try_cut st t ~multiplier =
  (* Cut at most once per window of data. *)
  if Sender_base.cum_ack t >= st.cut_end then begin
    let m = Float.max 0. (Float.min 1. multiplier) in
    Sender_base.set_cwnd t (Sender_base.cwnd t *. m);
    Sender_base.set_ssthresh t (Sender_base.cwnd t);
    st.cut_end <- Sender_base.sent_new_pkts t;
    true
  end
  else false

let[@inline] increase t ~weight ~newly_acked =
  let cwnd = Sender_base.cwnd t in
  if cwnd < Sender_base.ssthresh t then
    (* Slow start: one segment per newly acked segment. *)
    Sender_base.set_cwnd t (cwnd +. float_of_int newly_acked)
  else
    Sender_base.set_cwnd t
      (cwnd +. (weight t *. float_of_int newly_acked /. cwnd))

let hooks st ~increase_weight ~cut_multiplier =
  let on_ack t ~ecn ~newly_acked =
    observe st t ~ecn ~weight:newly_acked;
    if ecn then ignore (try_cut st t ~multiplier:(cut_multiplier st t))
    else if newly_acked > 0 then increase t ~weight:increase_weight ~newly_acked
  in
  let on_fast_retransmit t =
    Sender_base.set_ssthresh t (Sender_base.cwnd t /. 2.);
    Sender_base.set_cwnd t (Sender_base.cwnd t /. 2.)
  in
  {
    Sender_base.default_hooks with
    Sender_base.on_ack;
    Sender_base.on_fast_retransmit;
  }
