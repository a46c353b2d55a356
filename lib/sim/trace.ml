(* Structured tracing: a per-run event bus with typed events and pluggable
   sinks. A bus with no sink is off; every instrumentation site guards on
   [on bus] before constructing its event, so an untraced run pays one field
   read per site and allocates nothing. *)

module Kind = struct
  type t =
    | Enqueue
    | Dequeue
    | Drop
    | Mark
    | Tx
    | Rx
    | Stray
    | Flow_start
    | Flow_finish
    | Flow_timeout
    | Cwnd
    | Rate
    | Queue_assign
    | Arb
    | Arb_alloc
    | Delegate
    | Ctrl
    | Alpha
    | Link_state
    | Blackhole

  let name = function
    | Enqueue -> "enqueue"
    | Dequeue -> "dequeue"
    | Drop -> "drop"
    | Mark -> "mark"
    | Tx -> "tx"
    | Rx -> "rx"
    | Stray -> "stray"
    | Flow_start -> "flow-start"
    | Flow_finish -> "flow-finish"
    | Flow_timeout -> "flow-timeout"
    | Cwnd -> "cwnd"
    | Rate -> "rate"
    | Queue_assign -> "queue-assign"
    | Arb -> "arb"
    | Arb_alloc -> "arb-alloc"
    | Delegate -> "delegate"
    | Ctrl -> "ctrl"
    | Alpha -> "alpha"
    | Link_state -> "link-state"
    | Blackhole -> "blackhole"

  let all =
    [
      Enqueue; Dequeue; Drop; Mark; Tx; Rx; Stray; Flow_start; Flow_finish;
      Flow_timeout; Cwnd; Rate; Queue_assign; Arb; Arb_alloc; Delegate; Ctrl;
      Alpha; Link_state; Blackhole;
    ]

  let count = List.length all

  (* Position in [all]: the kind mask's index. *)
  let index k =
    let rec go i = function
      | k' :: rest -> if k' = k then i else go (i + 1) rest
      | [] -> invalid_arg "Trace.Kind.index"
    in
    go 0 all

  let of_name s = List.find_opt (fun k -> name k = s) all
end

(* Attachment point of a queue discipline: the directed link draining it.
   Mutable because the discipline is built before the topology wires it to
   an endpoint pair ([Net.connect] fills it in). *)
type loc = { mutable from_node : int; mutable to_node : int }

let unattached_loc () = { from_node = -1; to_node = -1 }

type event =
  | Enqueue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Dequeue of { pkt : Packet.t; link : int * int; qpkts : int }
  | Drop of { pkt : Packet.t; link : int * int; qpkts : int }
  | Mark of { pkt : Packet.t; link : int * int; qpkts : int }
  | Tx of { pkt : Packet.t; link : int * int }
  | Rx of { pkt : Packet.t; node : int }
  | Stray of { pkt : Packet.t; node : int }
  | Flow_start of {
      flow : int;
      src : int;
      dst : int;
      size_pkts : int;
      deadline : float option;
    }
  | Flow_finish of { flow : int; fct : float }
  | Flow_timeout of { flow : int; backoff : int }
  | Cwnd of { flow : int; cwnd : float; ssthresh : float }
  | Rate of { flow : int; rate_bps : float }
  | Queue_assign of { flow : int; queue : int; rref_bps : float }
  | Arb of { link : int * int; delegate : int; flows : int; top_flows : int }
  | Arb_alloc of {
      link : int * int;
      delegate : int;
      flow : int;
      queue : int;
      rref_bps : float;
    }
  | Delegate of { parent : int * int; tor : int; share_bps : float }
  | Ctrl of { flow : int; msgs : int }
  | Alpha of { flow : int; alpha : float }
  | Link_state of { link : int * int; up : bool }
  | Blackhole of { pkt : Packet.t; link : int * int }

let kind_of : event -> Kind.t = function
  | Enqueue _ -> Kind.Enqueue
  | Dequeue _ -> Kind.Dequeue
  | Drop _ -> Kind.Drop
  | Mark _ -> Kind.Mark
  | Tx _ -> Kind.Tx
  | Rx _ -> Kind.Rx
  | Stray _ -> Kind.Stray
  | Flow_start _ -> Kind.Flow_start
  | Flow_finish _ -> Kind.Flow_finish
  | Flow_timeout _ -> Kind.Flow_timeout
  | Cwnd _ -> Kind.Cwnd
  | Rate _ -> Kind.Rate
  | Queue_assign _ -> Kind.Queue_assign
  | Arb _ -> Kind.Arb
  | Arb_alloc _ -> Kind.Arb_alloc
  | Delegate _ -> Kind.Delegate
  | Ctrl _ -> Kind.Ctrl
  | Alpha _ -> Kind.Alpha
  | Link_state _ -> Kind.Link_state
  | Blackhole _ -> Kind.Blackhole

(* Flow id the event concerns, or [-1] for flowless events ([Arb],
   [Delegate], [Link_state]). *)
let flow_of = function
  | Enqueue { pkt; _ }
  | Dequeue { pkt; _ }
  | Drop { pkt; _ }
  | Mark { pkt; _ }
  | Tx { pkt; _ }
  | Rx { pkt; _ }
  | Stray { pkt; _ }
  | Blackhole { pkt; _ } ->
      pkt.Packet.flow
  | Flow_start { flow; _ }
  | Flow_finish { flow; _ }
  | Flow_timeout { flow; _ }
  | Cwnd { flow; _ }
  | Rate { flow; _ }
  | Queue_assign { flow; _ }
  | Arb_alloc { flow; _ }
  | Ctrl { flow; _ }
  | Alpha { flow; _ } ->
      flow
  | Arb _ | Delegate _ | Link_state _ -> -1

let link_of = function
  | Enqueue { link; _ }
  | Dequeue { link; _ }
  | Drop { link; _ }
  | Mark { link; _ }
  | Tx { link; _ }
  | Arb { link; _ }
  | Arb_alloc { link; _ }
  | Link_state { link; _ }
  | Blackhole { link; _ } ->
      Some link
  | Delegate { parent; _ } -> Some parent
  | Rx _ | Stray _ | Flow_start _ | Flow_finish _ | Flow_timeout _ | Cwnd _
  | Rate _ | Queue_assign _ | Ctrl _ | Alpha _ ->
      None

(* ---- serialization ------------------------------------------------------ *)

let pkt_fields (p : Packet.t) =
  Printf.sprintf
    {|"pkt":%d,"flow":%d,"ptype":"%s","src":%d,"dst":%d,"seq":%d,"size":%d,"tos":%d,"prio":%s,"ce":%b|}
    p.Packet.id p.Packet.flow
    (Packet.kind_str p.Packet.kind)
    p.Packet.src p.Packet.dst p.Packet.seq p.Packet.size p.Packet.tos
    (Json.float p.Packet.prio)
    p.Packet.ecn_ce

let to_json ~time ev =
  let head = Printf.sprintf {|{"t":%s,"kind":"%s",|} (Json.float time)
      (Kind.name (kind_of ev))
  in
  let body =
    match ev with
    | Enqueue { pkt; link = a, b; qpkts }
    | Dequeue { pkt; link = a, b; qpkts }
    | Drop { pkt; link = a, b; qpkts }
    | Mark { pkt; link = a, b; qpkts } ->
        Printf.sprintf {|%s,"link":[%d,%d],"qpkts":%d|} (pkt_fields pkt) a b
          qpkts
    | Tx { pkt; link = a, b } ->
        Printf.sprintf {|%s,"link":[%d,%d]|} (pkt_fields pkt) a b
    | Rx { pkt; node } | Stray { pkt; node } ->
        Printf.sprintf {|%s,"node":%d|} (pkt_fields pkt) node
    | Flow_start { flow; src; dst; size_pkts; deadline } ->
        Printf.sprintf
          {|"flow":%d,"src":%d,"dst":%d,"size_pkts":%d,"deadline":%s|} flow src
          dst size_pkts (Json.opt_float deadline)
    | Flow_finish { flow; fct } ->
        Printf.sprintf {|"flow":%d,"fct":%s|} flow (Json.float fct)
    | Flow_timeout { flow; backoff } ->
        Printf.sprintf {|"flow":%d,"backoff":%d|} flow backoff
    | Cwnd { flow; cwnd; ssthresh } ->
        Printf.sprintf {|"flow":%d,"cwnd":%s,"ssthresh":%s|} flow
          (Json.float cwnd) (Json.float ssthresh)
    | Rate { flow; rate_bps } ->
        Printf.sprintf {|"flow":%d,"rate_bps":%s|} flow (Json.float rate_bps)
    | Queue_assign { flow; queue; rref_bps } ->
        Printf.sprintf {|"flow":%d,"queue":%d,"rref_bps":%s|} flow queue
          (Json.float rref_bps)
    | Arb { link = a, b; delegate; flows; top_flows } ->
        Printf.sprintf
          {|"link":[%d,%d],"delegate":%d,"flows":%d,"top_flows":%d|} a b
          delegate flows top_flows
    | Arb_alloc { link = a, b; delegate; flow; queue; rref_bps } ->
        Printf.sprintf
          {|"link":[%d,%d],"delegate":%d,"flow":%d,"queue":%d,"rref_bps":%s|} a
          b delegate flow queue (Json.float rref_bps)
    | Delegate { parent = a, b; tor; share_bps } ->
        Printf.sprintf {|"parent":[%d,%d],"tor":%d,"share_bps":%s|} a b tor
          (Json.float share_bps)
    | Ctrl { flow; msgs } -> Printf.sprintf {|"flow":%d,"msgs":%d|} flow msgs
    | Alpha { flow; alpha } ->
        Printf.sprintf {|"flow":%d,"alpha":%s|} flow (Json.float alpha)
    | Link_state { link = a, b; up } ->
        Printf.sprintf {|"link":[%d,%d],"up":%b|} a b up
    | Blackhole { pkt; link = a, b } ->
        Printf.sprintf {|%s,"link":[%d,%d]|} (pkt_fields pkt) a b
  in
  head ^ body ^ "}"

(* ns-2-style one-liners: packet events lead with the classic op character
   (+ enqueue, - dequeue, d drop, m mark, t tx, r receive, ? stray); control
   events lead with the kind name. *)
let to_text ~time ev =
  let pkt_line op (p : Packet.t) rest =
    Printf.sprintf "%s %.9f %s flow=%d seq=%d size=%d tos=%d prio=%g%s" op time
      (Packet.kind_str p.Packet.kind)
      p.Packet.flow p.Packet.seq p.Packet.size p.Packet.tos p.Packet.prio rest
  in
  match ev with
  | Enqueue { pkt; link = a, b; qpkts } ->
      pkt_line "+" pkt (Printf.sprintf " %d>%d q=%d" a b qpkts)
  | Dequeue { pkt; link = a, b; qpkts } ->
      pkt_line "-" pkt (Printf.sprintf " %d>%d q=%d" a b qpkts)
  | Drop { pkt; link = a, b; qpkts } ->
      pkt_line "d" pkt (Printf.sprintf " %d>%d q=%d" a b qpkts)
  | Mark { pkt; link = a, b; qpkts } ->
      pkt_line "m" pkt (Printf.sprintf " %d>%d q=%d" a b qpkts)
  | Tx { pkt; link = a, b } -> pkt_line "t" pkt (Printf.sprintf " %d>%d" a b)
  | Rx { pkt; node } -> pkt_line "r" pkt (Printf.sprintf " @%d" node)
  | Stray { pkt; node } -> pkt_line "?" pkt (Printf.sprintf " @%d" node)
  | Flow_start { flow; src; dst; size_pkts; deadline } ->
      Printf.sprintf "flow-start %.9f flow=%d %d>%d size=%d deadline=%s" time
        flow src dst size_pkts
        (match deadline with None -> "-" | Some d -> Printf.sprintf "%g" d)
  | Flow_finish { flow; fct } ->
      Printf.sprintf "flow-finish %.9f flow=%d fct=%.9f" time flow fct
  | Flow_timeout { flow; backoff } ->
      Printf.sprintf "flow-timeout %.9f flow=%d backoff=%d" time flow backoff
  | Cwnd { flow; cwnd; ssthresh } ->
      Printf.sprintf "cwnd %.9f flow=%d cwnd=%g ssthresh=%g" time flow cwnd
        ssthresh
  | Rate { flow; rate_bps } ->
      Printf.sprintf "rate %.9f flow=%d rate=%g" time flow rate_bps
  | Queue_assign { flow; queue; rref_bps } ->
      Printf.sprintf "queue-assign %.9f flow=%d queue=%d rref=%g" time flow
        queue rref_bps
  | Arb { link = a, b; delegate; flows; top_flows } ->
      Printf.sprintf "arb %.9f %d>%d delegate=%d flows=%d top=%d" time a b
        delegate flows top_flows
  | Arb_alloc { link = a, b; delegate; flow; queue; rref_bps } ->
      Printf.sprintf "arb-alloc %.9f %d>%d delegate=%d flow=%d queue=%d rref=%g"
        time a b delegate flow queue rref_bps
  | Delegate { parent = a, b; tor; share_bps } ->
      Printf.sprintf "delegate %.9f %d>%d tor=%d share=%g" time a b tor
        share_bps
  | Ctrl { flow; msgs } ->
      Printf.sprintf "ctrl %.9f flow=%d msgs=%d" time flow msgs
  | Alpha { flow; alpha } ->
      Printf.sprintf "alpha %.9f flow=%d alpha=%g" time flow alpha
  | Link_state { link = a, b; up } ->
      Printf.sprintf "link-state %.9f %d>%d up=%b" time a b up
  | Blackhole { pkt; link = a, b } ->
      pkt_line "b" pkt (Printf.sprintf " %d>%d" a b)

(* ---- sinks -------------------------------------------------------------- *)

type sink = { emit : float -> event -> unit; close : unit -> unit }

let jsonl_sink oc =
  {
    emit =
      (fun time ev ->
        output_string oc (to_json ~time ev);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

let text_sink oc =
  {
    emit =
      (fun time ev ->
        output_string oc (to_text ~time ev);
        output_char oc '\n');
    close = (fun () -> flush oc);
  }

type ring = {
  capacity : int;
  items : (float * event) option array;
  mutable next : int;  (* write cursor *)
  mutable stored : int;  (* total ever written *)
}

let ring_sink ~capacity =
  if capacity <= 0 then
    invalid_arg "Trace.ring_sink: capacity must be positive";
  let r =
    { capacity; items = Array.make capacity None; next = 0; stored = 0 }
  in
  let emit time ev =
    r.items.(r.next) <- Some (time, ev);
    r.next <- (r.next + 1) mod r.capacity;
    r.stored <- r.stored + 1
  in
  (r, { emit; close = (fun () -> ()) })

let ring_length r = min r.stored r.capacity
let ring_seen r = r.stored
let ring_dropped r = max 0 (r.stored - r.capacity)

(* Oldest first. *)
let ring_contents r =
  let n = ring_length r in
  let start = if r.stored <= r.capacity then 0 else r.next in
  List.init n (fun i ->
      match r.items.((start + i) mod r.capacity) with
      | Some e -> e
      | None -> assert false)

(* ---- the bus ------------------------------------------------------------ *)

(* The bus belongs to one run: the run's counters carry it to every emitting
   layer. The emitted count lives in its own record so that [with_clock]
   copies share it with the caller's original. *)
type tally = { mutable emitted : int }

type t = {
  on : bool;
  sinks : sink list;
  kind_mask : bool array;
  flows : int list;  (* [] passes all *)
  links : (int * int) list;  (* [] passes all *)
  clock : unit -> float;
  tally : tally;
}

(* Never written: [emit] returns before touching the tally of a bus that
   is off. *)
let off =
  {
    on = false;
    sinks = [];
    kind_mask = [||];
    flows = [];
    links = [];
    clock = (fun () -> 0.);
    tally = { emitted = 0 };
  }

let create ?kinds ?(flows = []) ?(links = []) sinks =
  let kind_mask =
    match kinds with
    | None -> Array.make Kind.count true
    | Some ks ->
        let m = Array.make Kind.count false in
        List.iter (fun k -> m.(Kind.index k) <- true) ks;
        m
  in
  { on = sinks <> []; sinks; kind_mask; flows; links; clock = off.clock;
    tally = { emitted = 0 } }

let with_clock t clock = if t.on then { t with clock } else t
let on t = t.on
let emitted t = t.tally.emitted

let emit t ev =
  if t.on then begin
    let pass =
      t.kind_mask.(Kind.index (kind_of ev))
      && (match t.flows with
         | [] -> true
         | fs ->
             let f = flow_of ev in
             f >= 0 && List.mem f fs)
      &&
      match t.links with
      | [] -> true
      | ls -> ( match link_of ev with Some l -> List.mem l ls | None -> false)
    in
    if pass then begin
      t.tally.emitted <- t.tally.emitted + 1;
      let time = t.clock () in
      List.iter (fun s -> s.emit time ev) t.sinks
    end
  end
