type t = {
  mutable enqueued_pkts : int;
  mutable enqueued_bytes : int;
  mutable dequeued_pkts : int;
  mutable dequeued_bytes : int;
  mutable dropped_pkts : int;
  mutable dropped_bytes : int;
  mutable dropped_data_pkts : int;
  mutable ecn_marked_pkts : int;
  mutable delivered_pkts : int;
  mutable ctrl_msgs : int;
  mutable ctrl_lost : int;
  mutable stray_pkts : int;
  mutable blackholed_pkts : int;
  trace : Trace.t;
  delay : Delay.t;
}

let create ?(trace = Trace.off) ?(delay = Delay.off) () =
  {
    enqueued_pkts = 0;
    enqueued_bytes = 0;
    dequeued_pkts = 0;
    dequeued_bytes = 0;
    dropped_pkts = 0;
    dropped_bytes = 0;
    dropped_data_pkts = 0;
    ecn_marked_pkts = 0;
    delivered_pkts = 0;
    ctrl_msgs = 0;
    ctrl_lost = 0;
    stray_pkts = 0;
    blackholed_pkts = 0;
    trace;
    delay;
  }

let loss_rate t =
  let attempts = t.dropped_pkts + t.enqueued_pkts in
  if attempts = 0 then 0.
  else float_of_int t.dropped_pkts /. float_of_int attempts
