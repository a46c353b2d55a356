type contact = {
  arbs : Arbitrator.t array;
  msgs : int;  (* control messages this contact costs per round *)
  latency : float;  (* delay before the source can apply the response *)
}

type flow_state = {
  flow : Flow.t;
  contacts : contact array;
  by_latency : int array;
      (* contact indices in response order: by latency, equal latencies
         later contact first *)
  ents : Arbitrator.entry array array;
      (* the flow's entry in each contact's arbitrators, refreshed and read
         in place each round; a handle is live exactly while the flow is
         registered with that arbitrator *)
  criterion : unit -> float;
  demand : unit -> float;
  apply : queue:int -> rref_bps:float -> unit;
  unreachable : (bool -> unit) option;
      (* notified when remote arbitration becomes (un)reachable *)
  mutable last_queue : int;
  mutable contacted : bool array;  (* per-contact: consulted this round *)
  mutable pruned : bool;  (* some contact was skipped this round *)
  mutable remote_tried : bool;  (* attempted a msgs>0 contact this round *)
  mutable remote_heard : bool;  (* ... and at least one answered *)
  mutable is_unreachable : bool;
  mutable first_round : bool;
      (* a new flow applies partial decisions as responses arrive instead of
         waiting for the farthest arbitrator (§3.1.2: "a flow starts as soon
         as it receives arbitration information from the child arbitrator") *)
}

(* A parent link whose capacity is delegated to per-ToR virtual links. *)
type group = {
  parent : int * int;
  rate_bps : float;  (* the parent link's rate *)
  mutable members : (int * Arbitrator.t) array;  (* (tor, arb), newest first *)
}

type t = {
  engine : Engine.t;
  counters : Counters.t;
  cfg : Config.t;
  topo : Topology.t;
  base_rate_bps : float;
  n_nodes : int;
  all_arbs : Arbitrator.t Id_reg.t;
      (* real and virtual arbitrators by [real_key] / [virtual_key] *)
  groups : group Id_reg.t;  (* delegated parent links by [real_key] *)
  mutable weights : float array;  (* rebalance scratch *)
  flows : flow_state Id_reg.t;  (* registered flows by id *)
  rng : Rng.t;  (* drives control-plane loss injection only *)
  crashed : bool array;  (* per node: arbitration soft state dropped *)
  mutable ctrl_loss_override : float option;
      (* fault-plane loss window; supersedes [cfg.ctrl_loss_prob] while set *)
  mutable last_restart : float;  (* nan until a node restarts *)
  mutable restarted_node : int;  (* -1 when no recovery is being timed *)
  mutable first_grant_s : float;  (* nan until the restarted node regrants *)
  mutable level_of : int array;
  mutable rounds : int;
  mutable running : bool;
  mutable next_rebalance : float;
  mutable tick_timer : Engine.timer option;  (* the arb-round loop *)
}

(* Registry keys. Real arbitrators key on (a, b) and virtual ones on
   (a, b, tor), both lexicographically, and every virtual key exceeds every
   real one. Phase B walks the registry backwards: virtuals, then reals,
   each in descending key order. That order fixes the order of the
   arbitrators' trace events. *)
let real_key t a b = (a * t.n_nodes) + b
let virtual_key t a b tor = (t.n_nodes * t.n_nodes) + (real_key t a b * t.n_nodes) + tor

let node_levels (topo : Topology.t) =
  let n = Net.node_count topo.Topology.net in
  let lv = Array.make n 0 in
  Array.iter (fun h -> lv.(h) <- 0) topo.Topology.hosts;
  Array.iter (fun s -> lv.(s) <- 1) topo.Topology.tors;
  Array.iter (fun s -> lv.(s) <- 2) topo.Topology.aggs;
  Array.iter (fun s -> lv.(s) <- 3) topo.Topology.cores;
  lv

let dummy_flow =
  {
    flow = Flow.make ~id:(-1) ~src:0 ~dst:0 ~size_pkts:1 ~start_time:0. ();
    contacts = [||];
    by_latency = [||];
    ents = [||];
    criterion = (fun () -> 0.);
    demand = (fun () -> 0.);
    apply = (fun ~queue:_ ~rref_bps:_ -> ());
    unreachable = None;
    last_queue = 0;
    contacted = [||];
    pruned = false;
    remote_tried = false;
    remote_heard = false;
    is_unreachable = false;
    first_round = false;
  }

let create engine counters cfg topo ~base_rate_bps =
  {
    engine;
    counters;
    cfg;
    topo;
    base_rate_bps;
    n_nodes = Net.node_count topo.Topology.net;
    all_arbs = Id_reg.create ~dummy:(Arbitrator.create ~capacity_bps:1. ()) ();
    groups = Id_reg.create ~dummy:{ parent = (-1, -1); rate_bps = 0.; members = [||] } ();
    weights = [||];
    flows = Id_reg.create ~dummy:dummy_flow ();
    rng = Rng.create 0x9a5e;
    crashed = Array.make (Net.node_count topo.Topology.net) false;
    ctrl_loss_override = None;
    last_restart = Float.nan;
    restarted_node = -1;
    first_grant_s = Float.nan;
    level_of = node_levels topo;
    rounds = 0;
    running = false;
    next_rebalance = 0.;
    tick_timer = None;
  }

let overbook = 1.6

let rounds t = t.rounds
let arbitrator_count t = Id_reg.length t.all_arbs

let find_arb t key =
  let i = Id_reg.index t.all_arbs key in
  if i < 0 then None else Some (Id_reg.get t.all_arbs i)

let link_rate t a b ~what =
  match Net.link_from t.topo.Topology.net a b with
  | Some l -> Link.rate_bps l
  | None -> invalid_arg ("Hierarchy: no such " ^ what)

let real_arb t a b =
  let key = real_key t a b in
  match find_arb t key with
  | Some arb -> arb
  | None ->
      let arb =
        Arbitrator.create ~link:(a, b) ~owner:a
          ~trace:t.counters.Counters.trace
          ~capacity_bps:(link_rate t a b ~what:"link") ()
      in
      Id_reg.add t.all_arbs key arb;
      arb

let arbitrator_of_link t a b = find_arb t (real_key t a b)

(* Virtual link: the slice of parent link (a, b) delegated to [tor]'s
   arbitrator. Created with an equal share of the parent capacity. *)
let virtual_arb t (a, b) tor =
  let key = virtual_key t a b tor in
  match find_arb t key with
  | Some arb -> arb
  | None ->
      let gkey = real_key t a b in
      let group =
        match Id_reg.index t.groups gkey with
        | i when i >= 0 -> Id_reg.get t.groups i
        | _ ->
            let g =
              { parent = (a, b); rate_bps = link_rate t a b ~what:"parent link"; members = [||] }
            in
            Id_reg.add t.groups gkey g;
            g
      in
      let members = 1 + Array.length group.members in
      let arb =
        Arbitrator.create ~link:(a, b) ~owner:tor
          ~trace:t.counters.Counters.trace ~capacity_bps:
            (Float.min group.rate_bps
               (group.rate_bps /. float_of_int members *. overbook))
          ()
      in
      Id_reg.add t.all_arbs key arb;
      group.members <- Array.append [| (tor, arb) |] group.members;
      arb

(* Rebalance delegated capacities: each child's share is proportional to
   the aggregate demand it currently sees, so children carrying
   high-priority traffic get more of the parent link (§3.1.2). *)
let rebalance t =
  for gi = 0 to Id_reg.length t.groups - 1 do
    let g = Id_reg.get t.groups gi in
    let n = Array.length g.members in
    if Array.length t.weights < n then t.weights <- Array.make (2 * n) 0.;
    let total = ref 0. in
    for j = 0 to n - 1 do
      let w = 1e6 +. Arbitrator.total_demand (snd g.members.(j)) in
      t.weights.(j) <- w;
      total := !total +. w
    done;
    if !total > 0. then
      for j = 0 to n - 1 do
        let tor, arb = g.members.(j) in
        (* Virtual links overbook: reference rates are not binding and the
           self-adjusting endpoints absorb transient over-admission (§2.2),
           so a burst at one child need not wait for the next rebalance.
           Every child also keeps at least its equal share - demand
           weighting only grants extra, so a quiet child is never starved
           by a heavy sibling. *)
        let frac = Float.max (1. /. float_of_int n) (t.weights.(j) /. !total) in
        let share = g.rate_bps *. frac *. overbook in
        let share = Float.min g.rate_bps share in
        Arbitrator.set_capacity arb share;
        let trace = t.counters.Counters.trace in
        if Trace.on trace then
          Trace.emit trace
            (Trace.Delegate { parent = g.parent; tor; share_bps = share });
        (* Aggregate report from child to parent and response. *)
        t.counters.Counters.ctrl_msgs <- t.counters.Counters.ctrl_msgs + 2
      done
  done

(* Build the ordered contact list for a path. See the .mli for the cost
   model. The list runs: source-local, source half ascending, then
   destination-local, destination half ascending — pruning walks it in that
   order and stops contacting once the flow leaves the top queues. *)
let build_contacts t ~(flow : Flow.t) =
  let net = t.topo.Topology.net in
  let path = Array.of_list (Net.route net ~flow:flow.Flow.id ~src:flow.Flow.src ~dst:flow.Flow.dst ()) in
  let n = Array.length path in
  let delay = t.topo.Topology.link_delay_s in
  let proc = Config.ctrl_proc_delay in
  let one_way = float_of_int (n - 1) *. delay in
  let lv i = t.level_of.(path.(i)) in
  let src_side = ref [] and dst_side = ref [] and src_local = ref [] and dst_local = ref [] in
  for i = 0 to n - 2 do
    let a = path.(i) and b = path.(i + 1) in
    let ascending = lv (i + 1) > lv i in
    if i = 0 then src_local := [ real_arb t a b ]
    else if i + 1 = n - 1 then dst_local := [ real_arb t a b ]
    else if ascending then begin
      (* Source half. Arbitrator at the lower node [a], height i above src. *)
      let is_core_link = lv (i + 1) = 3 in
      if t.cfg.Config.delegation && (not t.cfg.Config.local_only) && is_core_link
      then begin
        (* Delegated to the source's ToR-level contact (height 1). *)
        let tor = path.(1) in
        let arb = virtual_arb t (a, b) tor in
        src_side := (1, arb) :: !src_side
      end
      else src_side := (i, real_arb t a b) :: !src_side
    end
    else begin
      (* Destination half. Arbitrator at the lower node [b], height
         (n - 1 - (i + 1)) above dst. *)
      let h = n - 1 - (i + 1) in
      let is_core_link = lv i = 3 in
      if t.cfg.Config.delegation && (not t.cfg.Config.local_only) && is_core_link
      then begin
        let tor = path.(n - 2) in
        let arb = virtual_arb t (a, b) tor in
        dst_side := (1, arb) :: !dst_side
      end
      else dst_side := (h, real_arb t a b) :: !dst_side
    end
  done;
  (* Merge same-height contacts (e.g. a delegated virtual link rides the
     ToR contact for free), then order by latency; equal latencies (zero
     link delay) keep descending height. *)
  let merge side ~extra_latency =
    let heights = List.rev (List.sort_uniq Int.compare (List.map fst side)) in
    List.map
      (fun h ->
        {
          arbs =
            Array.of_list
              (List.rev (List.filter_map (fun (h', a) -> if h' = h then Some a else None) side));
          msgs = 2;
          latency = extra_latency +. (2. *. float_of_int h *. delay) +. proc;
        })
      heights
    |> List.stable_sort (fun a b -> Float.compare a.latency b.latency)
  in
  let local arbs ~latency =
    match arbs with [] -> [] | l -> [ { arbs = Array.of_list l; msgs = 0; latency } ]
  in
  let contacts =
    local !src_local ~latency:proc
    @ merge !src_side ~extra_latency:0.
    @ local !dst_local ~latency:(one_way +. proc)
    @ merge !dst_side ~extra_latency:one_way
  in
  let contacts =
    if t.cfg.Config.local_only then List.filter (fun c -> c.msgs = 0) contacts
    else contacts
  in
  Array.of_list contacts

(* Response order: by latency, equal latencies later contact first. *)
let latency_order contacts =
  let idx = Array.init (Array.length contacts) Fun.id in
  Array.stable_sort
    (fun i j ->
      match Float.compare contacts.(i).latency contacts.(j).latency with
      | 0 -> Int.compare j i
      | c -> c)
    idx;
  idx

(* ---- fault plane hooks -------------------------------------------------- *)

let arb_alive t arb =
  let o = Arbitrator.owner arb in
  o < 0 || not t.crashed.(o)

(* A crashed node loses every arbitrator it runs: the real arbitrators of
   its outgoing links and any virtual (delegated) arbitrators it owns. The
   objects survive — emptied — so flow contact lists stay valid; while the
   node is down, refreshes are not accepted and no allocations are served. *)
let fail_node t node =
  if node >= 0 && node < Array.length t.crashed && not t.crashed.(node) then begin
    t.crashed.(node) <- true;
    for i = 0 to Id_reg.length t.all_arbs - 1 do
      let arb = Id_reg.get t.all_arbs i in
      if Arbitrator.owner arb = node then Arbitrator.clear arb
    done
  end

let recover_node t node =
  if node >= 0 && node < Array.length t.crashed && t.crashed.(node) then begin
    t.crashed.(node) <- false;
    (* Time-to-first-grant is measured for the first recovery only. *)
    if Float.is_nan t.first_grant_s && t.restarted_node < 0 then begin
      t.restarted_node <- node;
      t.last_restart <- Engine.now t.engine
    end
  end

let set_ctrl_loss_override t p = t.ctrl_loss_override <- p

let recovery_s t =
  if Float.is_nan t.first_grant_s then None else Some t.first_grant_s

let ctrl_loss_prob t =
  match t.ctrl_loss_override with
  | Some p -> p
  | None -> t.cfg.Config.ctrl_loss_prob

(* Phase A for one flow: refresh arbitrator state along its contact chain.
   Pruning decisions use the previous round's queue assignments, matching
   the one-round information lag of real messages. Loops, not iterators:
   a capturing closure would be allocated per flow per round. *)
let refresh t fs ~now =
  let criterion = fs.criterion () in
  let demand = fs.demand () in
  let flow = fs.flow.Flow.id in
  fs.pruned <- false;
  fs.remote_tried <- false;
  fs.remote_heard <- false;
  let q_acc = ref 0 in
  for i = 0 to Array.length fs.contacts - 1 do
    let ct = fs.contacts.(i) in
    let arbs = ct.arbs and ents = fs.ents.(i) in
    if t.cfg.Config.early_pruning && !q_acc >= Config.prune_top_k then begin
      fs.contacted.(i) <- false;
      fs.pruned <- true;
      (* Stop holding state upstream: emulate soft-state expiry. *)
      for j = 0 to Array.length arbs - 1 do
        if Arbitrator.live ents.(j) then Arbitrator.remove arbs.(j) ~flow
      done
    end
    else begin
      t.counters.Counters.ctrl_msgs <- t.counters.Counters.ctrl_msgs + ct.msgs;
      let trace = t.counters.Counters.trace in
      if ct.msgs > 0 && Trace.on trace then
        Trace.emit trace (Trace.Ctrl { flow; msgs = ct.msgs });
      if ct.msgs > 0 then fs.remote_tried <- true;
      let any_live = ref false in
      for j = 0 to Array.length arbs - 1 do
        if arb_alive t arbs.(j) then any_live := true
      done;
      if not !any_live then begin
        (* Every arbitrator behind this contact is crashed: the request is
           sent but never answered. Previously established soft state was
           dropped with the crash. *)
        fs.contacted.(i) <- false;
        if ct.msgs > 0 then
          t.counters.Counters.ctrl_lost <- t.counters.Counters.ctrl_lost + ct.msgs
      end
      else begin
        (* Failure injection: a lost request or response simply means this
           contact contributes nothing this round; the soft state it
           previously established survives until expiry. *)
        let p = ctrl_loss_prob t in
        if ct.msgs > 0 && p > 0. && Rng.float t.rng 1.0 < p then begin
          fs.contacted.(i) <- false;
          t.counters.Counters.ctrl_lost <- t.counters.Counters.ctrl_lost + ct.msgs
        end
        else begin
          fs.contacted.(i) <- true;
          if ct.msgs > 0 then fs.remote_heard <- true;
          for j = 0 to Array.length arbs - 1 do
            let arb = arbs.(j) in
            if arb_alive t arb then begin
              let e = ents.(j) in
              if Arbitrator.live e then
                Arbitrator.refresh e ~criterion ~demand_bps:demand ~now
              else
                ents.(j) <- Arbitrator.enter arb ~flow ~criterion ~demand_bps:demand ~now;
              q_acc := Int.max !q_acc (Arbitrator.queue ents.(j))
            end
          done
        end
      end
    end
  done;
  (* Remote arbitration reachability: a flow that tried remote contacts and
     heard from none falls back to unguided (DCTCP) rate control until a
     response gets through again. *)
  let unreach = fs.remote_tried && not fs.remote_heard in
  if unreach <> fs.is_unreachable then begin
    fs.is_unreachable <- unreach;
    match fs.unreachable with Some cb -> cb unreach | None -> ()
  end

let schedule_apply t ~flow ~delay ~queue ~rref ~final =
  let rref = if rref = infinity then t.base_rate_bps else rref in
  Engine.schedule ~label:"arb-apply" t.engine ~delay (fun () ->
      let i = Id_reg.index t.flows flow in
      if i >= 0 then begin
        let fs = Id_reg.get t.flows i in
        if final then fs.last_queue <- queue;
        fs.apply ~queue ~rref_bps:rref
      end)

(* A pruned flow has no fresh upstream info: it keeps (at least) its
   previous queue. Fully-arbitrated flows take the fresh decision, so they
   can be promoted when higher-priority flows drain. *)
let finalize t fs q =
  let q = if fs.pruned then Int.max q fs.last_queue else q in
  Int.min q (t.cfg.Config.num_queues - 1)

(* Phase C for one flow: combine the decisions of the contacts that
   answered — the lowest queue and the smallest reference rate among their
   arbitrators — and deliver them after control latency, in response
   order. A new flow applies each cumulative decision as its response
   arrives; later rounds apply once, at the farthest contact's latency. *)
let deliver t fs =
  let flow = fs.flow.Flow.id in
  let order = fs.by_latency in
  let last = ref (-1) in
  for k = 0 to Array.length order - 1 do
    if fs.contacted.(order.(k)) then last := k
  done;
  if !last >= 0 then begin
    (* Progressive refinement: only the last response is sticky. *)
    let progressive = fs.first_round in
    fs.first_round <- false;
    let cq = ref 0 and cr = ref infinity and lat = ref 0. in
    for k = 0 to !last do
      let i = order.(k) in
      if fs.contacted.(i) then begin
        let ct = fs.contacts.(i) and ents = fs.ents.(i) in
        for j = 0 to Array.length ents - 1 do
          cq := Int.max !cq (Arbitrator.queue ents.(j));
          cr := Float.min !cr (Arbitrator.rref_bps ents.(j))
        done;
        lat := Float.max !lat ct.latency;
        if progressive then
          schedule_apply t ~flow ~delay:ct.latency ~queue:(finalize t fs !cq)
            ~rref:!cr ~final:(k = !last)
      end
    done;
    if not progressive then
      schedule_apply t ~flow ~delay:!lat ~queue:(finalize t fs !cq) ~rref:!cr
        ~final:true
  end

(* One arbitration round: refresh (phase A), re-arbitrate (phase B), combine
   and deliver (phase C). Phases A and C walk flows in id order: that fixes
   the RNG draw sequence for control-loss injection, the ctrl_msgs
   accounting order and, since apply callbacks are scheduled in phase C,
   the engine's FIFO tie-break for same-time events. *)
let round t =
  t.rounds <- t.rounds + 1;
  let now = Engine.now t.engine in
  for i = 0 to Id_reg.length t.flows - 1 do
    refresh t (Id_reg.get t.flows i) ~now
  done;
  (* Phase B: expire soft state that stopped being refreshed, then every
     arbitrator re-runs Algorithm 1 over its flow set. *)
  let max_age =
    float_of_int t.cfg.Config.state_expiry_rounds *. t.cfg.Config.arb_period
  in
  for i = Id_reg.length t.all_arbs - 1 downto 0 do
    let arb = Id_reg.get t.all_arbs i in
    if arb_alive t arb then begin
      Arbitrator.expire arb ~now ~max_age;
      Arbitrator.arbitrate arb ~num_queues:t.cfg.Config.num_queues
        ~base_rate_bps:t.base_rate_bps
    end
  done;
  (* Recovery metric: first round after the (first) restart in which the
     restarted node serves an allocation again. *)
  if t.restarted_node >= 0 && Float.is_nan t.first_grant_s then begin
    let regranted = ref false in
    for i = 0 to Id_reg.length t.all_arbs - 1 do
      let arb = Id_reg.get t.all_arbs i in
      if Arbitrator.owner arb = t.restarted_node && Arbitrator.allocations arb > 0
      then regranted := true
    done;
    if !regranted then t.first_grant_s <- now -. t.last_restart
  end;
  for i = 0 to Id_reg.length t.flows - 1 do
    deliver t (Id_reg.get t.flows i)
  done

(* The arbitration round loop rides one reschedulable engine timer instead
   of allocating a closure per period; the rebalance deadline lives on [t]
   rather than being threaded through each closure. *)
let rec tick t =
  if t.running then begin
    round t;
    if t.cfg.Config.delegation && Engine.now t.engine >= t.next_rebalance
    then begin
      rebalance t;
      t.next_rebalance <- Engine.now t.engine +. t.cfg.Config.delegation_period
    end;
    let tm =
      match t.tick_timer with
      | Some tm -> tm
      | None ->
          let tm = Engine.timer ~label:"arb-round" t.engine (fun () -> tick t) in
          t.tick_timer <- Some tm;
          tm
    in
    Engine.timer_schedule t.engine tm ~delay:t.cfg.Config.arb_period
  end

let start t =
  if not t.running then begin
    t.running <- true;
    t.next_rebalance <- Engine.now t.engine +. t.cfg.Config.delegation_period;
    tick t
  end

let stop t = t.running <- false

let add_flow t ~flow ~criterion ~demand ?unreachable ~apply () =
  let contacts = build_contacts t ~flow in
  let fs =
    {
      flow;
      contacts;
      by_latency = latency_order contacts;
      ents = Array.map (fun ct -> Array.map (fun _ -> Arbitrator.no_entry) ct.arbs) contacts;
      criterion;
      demand;
      apply;
      unreachable;
      last_queue = 0;
      contacted = Array.make (Array.length contacts) false;
      pruned = false;
      remote_tried = false;
      remote_heard = false;
      is_unreachable = false;
      first_round = true;
    }
  in
  Id_reg.add t.flows flow.Flow.id fs;
  (* Immediate local decision so the flow starts without waiting (§3.1.2):
     consult only the source-local contact synchronously. *)
  match Array.length contacts with
  | 0 -> apply ~queue:0 ~rref_bps:t.base_rate_bps
  | _ ->
      let now = Engine.now t.engine in
      let q = ref 0 and rref = ref infinity in
      Array.iteri
        (fun j arb ->
          if arb_alive t arb then begin
            let e =
              Arbitrator.enter arb ~flow:flow.Flow.id ~criterion:(criterion ())
                ~demand_bps:(demand ()) ~now
            in
            fs.ents.(0).(j) <- e;
            Arbitrator.arbitrate arb ~num_queues:t.cfg.Config.num_queues
              ~base_rate_bps:t.base_rate_bps;
            q := Int.max !q (Arbitrator.queue e);
            rref := Float.min !rref (Arbitrator.rref_bps e)
          end)
        contacts.(0).arbs;
      fs.last_queue <- !q;
      let rref = if !rref = infinity then t.base_rate_bps else !rref in
      apply ~queue:!q ~rref_bps:rref

let remove_flow t ~flow_id =
  let i = Id_reg.index t.flows flow_id in
  if i >= 0 then begin
    Array.iter
      (fun ct -> Array.iter (fun arb -> Arbitrator.remove arb ~flow:flow_id) ct.arbs)
      (Id_reg.get t.flows i).contacts;
    Id_reg.remove_at t.flows i
  end
