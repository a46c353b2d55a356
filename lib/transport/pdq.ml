let es_rtts = 1.

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

  (* [order.(0 .. len-1)] holds the live entries in criticality order
     ([compare_entries]); [update] restores it in place. *)
  type t = {
    capacity_bps : float;
    index : (int, entry) Hashtbl.t;
    mutable order : entry array;
    mutable len : int;
  }

  let create ~capacity_bps =
    { capacity_bps; index = Hashtbl.create 32; order = [||]; len = 0 }

  (* Criticality order: earliest deadline first, then shortest remaining,
     then flow id for determinism (PDQ's EDF+SJF tie-breaking). Flow ids
     are unique, so this is a total order. *)
  let compare_entries a b =
    match (a.deadline, b.deadline) with
    | Some da, Some db when da <> db -> compare da db
    | Some _, None -> -1
    | None, Some _ -> 1
    | _ ->
        let c = compare a.remaining_pkts b.remaining_pkts in
        if c <> 0 then c else compare a.flow b.flow

  (* Insertion sort: linear when one entry is out of place, which is all an
     [update] can leave behind. *)
  let restore_order t =
    let a = t.order in
    for i = 1 to t.len - 1 do
      let x = a.(i) in
      if compare_entries a.(i - 1) x > 0 then begin
        let j = ref (i - 1) in
        while !j >= 0 && compare_entries a.(!j) x > 0 do
          a.(!j + 1) <- a.(!j);
          decr j
        done;
        a.(!j + 1) <- x
      end
    done

  let update t ~flow ~remaining_pkts ~nic_bps ~usable_bps ~deadline =
    (match Hashtbl.find_opt t.index flow with
    | Some e ->
        e.remaining_pkts <- remaining_pkts;
        e.nic_bps <- nic_bps;
        e.usable_bps <- usable_bps
    | None ->
        let e = { flow; remaining_pkts; nic_bps; usable_bps; deadline } in
        Hashtbl.replace t.index flow e;
        if t.len = Array.length t.order then begin
          let grown = Array.make (max 16 (2 * t.len)) e in
          Array.blit t.order 0 grown 0 t.len;
          t.order <- grown
        end;
        t.order.(t.len) <- e;
        t.len <- t.len + 1);
    restore_order t

  let remove t ~flow =
    if Hashtbl.mem t.index flow then begin
      Hashtbl.remove t.index flow;
      let i = ref 0 in
      while t.order.(!i).flow <> flow do
        incr i
      done;
      Array.blit t.order (!i + 1) t.order !i (t.len - !i - 1);
      t.len <- t.len - 1
    end

  let flows t = t.len

  (* Switch crash / link outage: flow state at this switch is lost; hosts
     repopulate it through their per-RTT refresh headers. *)
  let clear t =
    Hashtbl.reset t.index;
    t.order <- [||];
    t.len <- 0

  (* The rate this link would grant [flow]: walk flows in criticality
     order; each higher-priority flow consumes only what it can use
     (suppressed demand), and a flow about to finish cedes its slot to the
     next in line (Early Start). *)
  let allocation t ~flow ~rtt ~mss_bits =
    let avail = ref t.capacity_bps in
    let grant = ref 0. in
    let i = ref 0 in
    while !i < t.len do
      let e = t.order.(!i) in
      let g = Float.min e.nic_bps !avail in
      if e.flow = flow then begin
        grant := g;
        i := t.len
      end
      else begin
        let consumed = Float.min g e.usable_bps in
        let finish_time =
          if consumed > 0. then
            float_of_int e.remaining_pkts *. mss_bits /. consumed
          else infinity
        in
        let consumed = if finish_time < es_rtts *. rtt then 0. else consumed in
        avail := Float.max 0. (!avail -. consumed);
        incr i
      end
    done;
    !grant
end

type host = {
  sender : Sender_base.t;
  arbiters : Arbiter.t array;
  last_grants : float array;  (* most recent grant per path link *)
  rtt : float;
  nic_bps : float;
  rate : float ref;  (* currently applied rate *)
  stopped : bool ref;
  mutable tick_timer : Engine.timer option;  (* per-RTT refresh loop *)
}

let conf ?(init_rtt = 0.0003) () =
  {
    Sender_base.default_conf with
    Sender_base.init_cwnd = 1000.;
    max_cwnd = 1000.;
    min_rto = 0.010;
    init_rtt;
    ecn_capable = false;
  }

let sender h = h.sender

let mss_bits h = float_of_int (8 * (Sender_base.conf h.sender).Sender_base.mss)

let counters h = Net.counters (Sender_base.net h.sender)

(* What this flow could use on link [j], namely the minimum of the other
   links' last grants (its bottleneck elsewhere). *)
let usable_elsewhere h j =
  let m = ref h.nic_bps in
  Array.iteri (fun k g -> if k <> j then m := Float.min !m g) h.last_grants;
  !m

let refresh h =
  if (not !(h.stopped)) && not (Sender_base.completed h.sender) then begin
    let flow = (Sender_base.flow h.sender).Flow.id in
    let deadline = Flow.absolute_deadline (Sender_base.flow h.sender) in
    let remaining = Sender_base.remaining_pkts h.sender in
    Array.iteri
      (fun j a ->
        Arbiter.update a ~flow ~remaining_pkts:remaining ~nic_bps:h.nic_bps
          ~usable_bps:(usable_elsewhere h j) ~deadline;
        (* One rate-request header processed per link, one response. *)
        let c = counters h in
        c.Counters.ctrl_msgs <- c.Counters.ctrl_msgs + 2)
      h.arbiters;
    Array.iteri
      (fun j a ->
        h.last_grants.(j) <-
          Arbiter.allocation a ~flow ~rtt:h.rtt ~mss_bits:(mss_bits h))
      h.arbiters;
    let alloc = Array.fold_left Float.min h.nic_bps h.last_grants in
    (* A rate change rides back in the returning header: one one-way delay.
       Unpausing costs a full extra RTT on top (explicit pause/unpause
       signalling, the 1-2 RTT flow-switching overhead of §2.1). *)
    let delay =
      if !(h.rate) = 0. && alloc > 0. then 1.5 *. h.rtt else h.rtt /. 2.
    in
    Engine.schedule ~label:"pdq-apply"
      (Sender_base.engine h.sender)
      ~delay
      (fun () ->
        if (not !(h.stopped)) && not (Sender_base.completed h.sender) then begin
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
  if (not !(h.stopped)) && not (Sender_base.completed h.sender) then begin
    refresh h;
    let tm =
      match h.tick_timer with
      | Some tm -> tm
      | None ->
          let tm =
            Engine.timer ~label:"pdq-tick"
              (Sender_base.engine h.sender)
              (fun () -> tick h)
          in
          h.tick_timer <- Some tm;
          tm
    in
    Engine.timer_schedule (Sender_base.engine h.sender) tm ~delay:h.rtt
  end

let create net ~flow ~arbiters ~rtt ?conf:(c = conf ()) ~on_complete () =
  let stopped = ref false in
  let rate = ref 0. in
  let nic_bps =
    match Net.route net ~flow:flow.Flow.id ~src:flow.Flow.src ~dst:flow.Flow.dst () with
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
  let arbiters = Array.of_list arbiters in
  let on_complete sender ~fct =
    stopped := true;
    (* Termination header propagates one-way before arbiters release. *)
    Engine.schedule engine ~delay:(rtt /. 2.) (fun () ->
        Array.iter (fun a -> Arbiter.remove a ~flow:flow.Flow.id) arbiters);
    on_complete sender ~fct
  in
  let sender = Sender_base.create net ~flow ~conf:c ~hooks ~on_complete () in
  {
    sender;
    arbiters;
    last_grants = Array.make (Array.length arbiters) nic_bps;
    rtt;
    nic_bps;
    rate;
    stopped;
    tick_timer = None;
  }

let start h =
  Sender_base.start h.sender;
  tick h
