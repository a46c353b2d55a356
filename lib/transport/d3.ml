module Router = struct
  type entry = { flow : int; mutable request_bps : float }

  (* [order.(0 .. len-1)] holds the live entries in arrival order, so FCFS
     needs no sort: a new flow is appended and a removal shifts the later
     entries down. *)
  type t = {
    capacity_bps : float;
    index : (int, entry) Hashtbl.t;
    mutable order : entry array;
    mutable len : int;
  }

  let create ~capacity_bps =
    { capacity_bps; index = Hashtbl.create 32; order = [||]; len = 0 }

  let update t ~flow ~request_bps =
    match Hashtbl.find_opt t.index flow with
    | Some e -> e.request_bps <- Float.max 0. request_bps
    | None ->
        let e = { flow; request_bps = Float.max 0. request_bps } in
        Hashtbl.replace t.index flow e;
        if t.len = Array.length t.order then begin
          let grown = Array.make (max 16 (2 * t.len)) e in
          Array.blit t.order 0 grown 0 t.len;
          t.order <- grown
        end;
        t.order.(t.len) <- e;
        t.len <- t.len + 1

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

  (* Router crash / link outage: reservations at this router are lost and
     rebuilt from the hosts' per-RTT rate requests, re-registering in the
     order the requests arrive. *)
  let clear t =
    Hashtbl.reset t.index;
    t.order <- [||];
    t.len <- 0

  (* FCFS greedy satisfaction of reservations, then an equal share of what
     is left: one pass over the arrival-ordered entries. *)
  let allocation t ~flow =
    let n = t.len in
    if n = 0 then 0.
    else begin
      let avail = ref t.capacity_bps in
      let granted = ref 0. in
      let found = ref false in
      for i = 0 to n - 1 do
        let e = t.order.(i) in
        let g = Float.min e.request_bps !avail in
        if e.flow = flow then begin
          granted := g;
          found := true
        end;
        avail := !avail -. g
      done;
      let fair = Float.max 0. !avail /. float_of_int n in
      if !found then !granted +. fair else 0.
    end
end

type host = {
  sender : Sender_base.t;
  routers : Router.t list;
  rtt : float;
  nic_bps : float;
  rate : float ref;
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

(* The rate that finishes the flow exactly at its deadline. *)
let desired_rate h =
  match Flow.absolute_deadline (Sender_base.flow h.sender) with
  | None -> 0.
  | Some abs_deadline ->
      let now = Engine.now (Sender_base.engine h.sender) in
      let left = abs_deadline -. now in
      let remaining_bits =
        float_of_int (Sender_base.remaining_pkts h.sender) *. mss_bits h
      in
      if left <= 0. then h.nic_bps else Float.min h.nic_bps (remaining_bits /. left)

let refresh h =
  if (not !(h.stopped)) && not (Sender_base.completed h.sender) then begin
    let flow = (Sender_base.flow h.sender).Flow.id in
    let request = desired_rate h in
    List.iter
      (fun r ->
        Router.update r ~flow ~request_bps:request;
        let c = counters h in
        c.Counters.ctrl_msgs <- c.Counters.ctrl_msgs + 2)
      h.routers;
    let alloc =
      List.fold_left
        (fun acc r -> Float.min acc (Router.allocation r ~flow))
        h.nic_bps h.routers
    in
    (* Rate returns in the header one one-way delay later. *)
    Engine.schedule ~label:"d3-apply"
      (Sender_base.engine h.sender)
      ~delay:(h.rtt /. 2.)
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
            Engine.timer ~label:"d3-tick"
              (Sender_base.engine h.sender)
              (fun () -> tick h)
          in
          h.tick_timer <- Some tm;
          tm
    in
    Engine.timer_schedule (Sender_base.engine h.sender) tm ~delay:h.rtt
  end

let create net ~flow ~routers ~rtt ?conf:(c = conf ()) ~on_complete () =
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
  let on_complete sender ~fct =
    stopped := true;
    Engine.schedule engine ~delay:(rtt /. 2.) (fun () ->
        List.iter (fun r -> Router.remove r ~flow:flow.Flow.id) routers);
    on_complete sender ~fct
  in
  let sender = Sender_base.create net ~flow ~conf:c ~hooks ~on_complete () in
  { sender; routers; rtt; nic_bps; rate; stopped; tick_timer = None }

let start h =
  Sender_base.start h.sender;
  tick h
