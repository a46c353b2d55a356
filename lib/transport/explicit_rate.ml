module Table = struct
  (* [order.(0 .. len-1)] holds the live entries in the policy's order: a
     new entry is appended, and a removal shifts the later entries down. *)
  type 'e t = {
    capacity_bps : float;
    index : (int, 'e) Hashtbl.t;
    mutable order : 'e array;
    mutable len : int;
  }

  let create ~capacity_bps =
    { capacity_bps; index = Hashtbl.create 32; order = [||]; len = 0 }

  let find t ~flow = Hashtbl.find_opt t.index flow

  let append t ~flow e =
    Hashtbl.replace t.index flow e;
    if t.len = Array.length t.order then begin
      let grown = Array.make (max 16 (2 * t.len)) e in
      Array.blit t.order 0 grown 0 t.len;
      t.order <- grown
    end;
    t.order.(t.len) <- e;
    t.len <- t.len + 1

  let remove t ~flow =
    match Hashtbl.find_opt t.index flow with
    | None -> ()
    | Some e ->
        Hashtbl.remove t.index flow;
        let i = ref 0 in
        while t.order.(!i) != e do
          incr i
        done;
        Array.blit t.order (!i + 1) t.order !i (t.len - !i - 1);
        t.len <- t.len - 1

  let flows t = t.len

  let clear t =
    Hashtbl.reset t.index;
    t.order <- [||];
    t.len <- 0
end

type 'e host = {
  sender : Sender_base.t;
  agents : 'e Table.t array;
  grants : float array;
  rtt : float;
  nic_bps : float;
  policy : 'e policy;
  rate : float ref;  (* currently applied rate *)
  stopped : bool ref;
  mutable tick_timer : Engine.timer option;  (* per-RTT refresh loop *)
}

and 'e policy = {
  apply_label : string;
  tick_label : string;
  request : 'e host -> unit;
  grant : 'e host -> 'e Table.t -> float;
  unpause_rtt : bool;
}

let conf ~init_rtt =
  {
    Sender_base.default_conf with
    Sender_base.init_cwnd = 1000.;
    max_cwnd = 1000.;
    min_rto = 0.010;
    init_rtt;
    ecn_capable = false;
  }

let flow_id h = (Sender_base.flow h.sender).Flow.id

let mss_bits h = float_of_int (8 * (Sender_base.conf h.sender).Sender_base.mss)

let live h = (not !(h.stopped)) && not (Sender_base.completed h.sender)

let refresh h =
  if live h then begin
    let flow = flow_id h in
    h.policy.request h;
    (* One rate-request header processed per link, one response. *)
    let c = Net.counters (Sender_base.net h.sender) in
    c.Counters.ctrl_msgs <- c.Counters.ctrl_msgs + (2 * Array.length h.agents);
    Array.iteri (fun j a -> h.grants.(j) <- h.policy.grant h a) h.agents;
    let alloc = Array.fold_left Float.min h.nic_bps h.grants in
    (* A rate change rides back in the returning header: one one-way delay.
       Where the policy pauses flows, unpausing costs a full extra RTT on
       top (explicit pause/unpause signalling, the 1-2 RTT flow-switching
       overhead of §2.1). *)
    let delay =
      if h.policy.unpause_rtt && !(h.rate) = 0. && alloc > 0. then 1.5 *. h.rtt
      else h.rtt /. 2.
    in
    Engine.schedule ~label:h.policy.apply_label
      (Sender_base.engine h.sender)
      ~delay
      (fun () ->
        if live h then begin
          h.rate := alloc;
          let trace = Sender_base.trace h.sender in
          if Trace.on trace then
            Trace.emit trace (Trace.Rate { flow; rate_bps = alloc });
          Sender_base.try_send h.sender
        end)
  end

(* The per-RTT refresh loop rides one reschedulable engine timer per flow
   instead of allocating a closure every round. *)
let rec tick h =
  if live h then begin
    refresh h;
    let tm =
      match h.tick_timer with
      | Some tm -> tm
      | None ->
          let tm =
            Engine.timer ~label:h.policy.tick_label
              (Sender_base.engine h.sender)
              (fun () -> tick h)
          in
          h.tick_timer <- Some tm;
          tm
    in
    Engine.timer_schedule (Sender_base.engine h.sender) tm ~delay:h.rtt
  end

let start policy net ~flow ~agents ~rtt ~on_complete =
  let stopped = ref false in
  let rate = ref 0. in
  let nic_bps =
    match
      Net.route net ~flow:flow.Flow.id ~src:flow.Flow.src ~dst:flow.Flow.dst ()
    with
    | a :: b :: _ -> (
        match Net.link_from net a b with
        | Some l -> Link.rate_bps l
        | None -> 1e9)
    | _ -> 1e9
  in
  let hooks =
    {
      Sender_base.default_hooks with
      Sender_base.pacing_rate = (fun _ -> Some !rate);
    }
  in
  let engine = Net.engine net in
  let agents = Array.of_list agents in
  let on_complete sender ~fct =
    stopped := true;
    (* Termination header propagates one-way before the agents release. *)
    Engine.schedule engine ~delay:(rtt /. 2.) (fun () ->
        Array.iter (fun a -> Table.remove a ~flow:flow.Flow.id) agents);
    on_complete sender ~fct
  in
  let sender =
    Sender_base.create net ~flow ~conf:(conf ~init_rtt:rtt) ~hooks
      ~on_complete ()
  in
  let h =
    {
      sender;
      agents;
      grants = Array.make (Array.length agents) nic_bps;
      rtt;
      nic_bps;
      policy;
      rate;
      stopped;
      tick_timer = None;
    }
  in
  Sender_base.start h.sender;
  tick h
