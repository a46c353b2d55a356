(* Max-min fair fluid tier. See the .mli for the model; here the load-bearing
   details are determinism (id-ordered traversal everywhere a float sum or a
   callback order could leak) and zero allocation churn on the steady path
   (the water-fill and the id-ordered flow registry reuse their arrays). *)

type entry = {
  idx : int;  (* dense link number, the water-fill's view of the link *)
  key : int * int;  (* directed (from, to) *)
  link : Link.t;
  mutable n_fluid : int;
  mutable n_pkt : int;
  mutable pushed : bool;  (* the link holds a nonzero push from a pass *)
}

(* An all-float record is stored flat: settling and reallocating a flow
   writes unboxed floats, with no allocation and no write barrier. *)
type fstate = {
  mutable remaining : float;  (* bytes; [infinity] = long-lived *)
  mutable rate : float;  (* bps, last allocation *)
  mutable last : float;  (* sim time [remaining] was settled at *)
}

type fflow = {
  id : int;
  path : entry array;
  links : int array;  (* [path] as dense link numbers *)
  st : fstate;
  mutable live : bool;  (* still in the fluid tier *)
  on_demote : remaining_bytes:float -> rate_bps:float -> unit;
}

type stats = {
  admitted : int;
  demotions : int;
  fault_demotions : int;
  recomputes : int;
  bytes_advanced : float;
  live : int;
}

type t = {
  engine : Engine.t;
  net : Net.t;
  demote_bytes : float;
  standing_of : float -> float;
      (* link rate (bps) -> standing-queue latency (s) a fluid flow's
         congestion control maintains at a bottleneck of that rate *)
  min_interval : float;
      (* floor between water-filling passes: churn (admissions, demotions,
         packet-flow registration) marks the tier dirty and the recompute
         fires no sooner than [last_alloc + min_interval]. Real congestion
         control re-converges over RTTs, so an RTT-scale floor trades no
         modelled fidelity and keeps allocation cost independent of the
         churn rate. 0 = recompute at every control event. *)
  flows : fflow Id_reg.t;  (* live flows by id *)
  entries : (int * int, entry) Hashtbl.t;
  mutable links : entry array;  (* by [idx] *)
  mutable n_links : int;
  wf : Water_fill.t;
  mutable caps : float array;  (* per-pass inputs of [wf] *)
  mutable paths : int array array;
  mutable due : fflow array;  (* demotion scratch *)
  pkt_paths : (int, entry array) Hashtbl.t;
  boundaries : fflow Eheap.t;
      (* per-flow demotion times under the current allocation; rebuilt at
         each water-filling pass (rates change every boundary), drained by
         the boundary timer. Seq keys are flow ids: the pop order is the
         unique (time, id) order, independent of insertion order. Entries
         for flows demoted out-of-band (faults) are dropped lazily on pop. *)
  mutable dirty : bool;
  mutable last_alloc : float;  (* sim time of the last water-filling pass *)
  mutable recompute_tm : Engine.timer option;
  mutable boundary_tm : Engine.timer option;
  mutable admitted : int;
  mutable demotions : int;
  mutable fault_demotions : int;
  mutable recomputes : int;
  mutable bytes_advanced : float;
}

let dummy_fflow =
  {
    id = -1;
    path = [||];
    links = [||];
    st = { remaining = 0.; rate = 0.; last = 0. };
    live = false;
    on_demote = (fun ~remaining_bytes:_ ~rate_bps:_ -> ());
  }

(* Demote when remaining <= boundary + slack: the boundary timer inverts
   remaining = rate * dt / 8, so settling at its firing time can land a few
   ulps to either side of the boundary. Half a byte absorbs that without
   ever being observable at packet granularity. *)
let due t f = f.st.remaining <= t.demote_bytes +. 0.5

let settle_flow t f now =
  if f.st.rate > 0. && now > f.st.last then begin
    let adv = f.st.rate *. (now -. f.st.last) /. 8. in
    t.bytes_advanced <- t.bytes_advanced +. adv;
    if f.st.remaining < infinity then
      f.st.remaining <- Float.max 0. (f.st.remaining -. adv)
  end;
  f.st.last <- now

let settle_all t now =
  for i = 0 to Id_reg.length t.flows - 1 do
    settle_flow t (Id_reg.get t.flows i) now
  done

let mark_dirty t =
  if not t.dirty then begin
    t.dirty <- true;
    match t.recompute_tm with
    | Some tm ->
        let now = Engine.now t.engine in
        Engine.timer_schedule_at t.engine tm
          ~time:(Float.max now (t.last_alloc +. t.min_interval))
    | None -> ()
  end

let demote t f ~fault =
  Id_reg.remove t.flows f.id;
  f.live <- false;
  Array.iter (fun e -> e.n_fluid <- e.n_fluid - 1) f.path;
  t.demotions <- t.demotions + 1;
  if fault then t.fault_demotions <- t.fault_demotions + 1;
  f.on_demote ~remaining_bytes:f.st.remaining ~rate_bps:f.st.rate

(* Collect first, then demote in id order: a demotion's callback may
   re-enter the tier. *)
let demote_due t =
  let n = ref 0 in
  for i = 0 to Id_reg.length t.flows - 1 do
    let f = Id_reg.get t.flows i in
    if due t f then begin
      if !n = Array.length t.due then begin
        let d = Array.make (Int.max 8 (2 * !n)) dummy_fflow in
        Array.blit t.due 0 d 0 !n;
        t.due <- d
      end;
      t.due.(!n) <- f;
      incr n
    end
  done;
  for i = 0 to !n - 1 do
    let f = t.due.(i) in
    t.due.(i) <- dummy_fflow;
    demote t f ~fault:false
  done

(* One water-filling pass over the live flows ({!Water_fill}): each link
   offers the fluid tier its fluid/packet share of its rate (nothing while
   down). Rates go back to the flows; per-link totals are pushed to the
   links, and links that lost their fluid load are reset. Only links that
   actually constrained (froze) a flow hold a standing queue; transit links
   a flow merely crosses stay clean. *)
let allocate t =
  let nl = t.n_links and nf = Id_reg.length t.flows in
  if Array.length t.caps < nl then t.caps <- Array.make (2 * nl) 0.;
  if Array.length t.paths < nf then t.paths <- Array.make (2 * nf) [||];
  for l = 0 to nl - 1 do
    let e = t.links.(l) in
    t.caps.(l) <-
      (if e.n_fluid > 0 && Link.is_up e.link then
         let share = float_of_int e.n_fluid /. float_of_int (e.n_fluid + e.n_pkt) in
         Link.rate_bps e.link *. share
       else 0.)
  done;
  for i = 0 to nf - 1 do
    t.paths.(i) <- (Id_reg.get t.flows i).links
  done;
  Water_fill.run t.wf ~caps:t.caps ~n_links:nl ~paths:t.paths ~n_flows:nf;
  for i = 0 to nf - 1 do
    (Id_reg.get t.flows i).st.rate <- Water_fill.rate t.wf i
  done;
  for l = 0 to nl - 1 do
    let e = t.links.(l) in
    let bps = Water_fill.link_bps t.wf l in
    if bps > 0. then begin
      Link.set_fluid_bps e.link bps;
      Link.set_standing_s e.link
        (if Water_fill.bottleneck t.wf l then t.standing_of (Link.rate_bps e.link)
         else 0.);
      e.pushed <- true
    end
    else if e.pushed then begin
      Link.set_fluid_bps e.link 0.;
      Link.set_standing_s e.link 0.;
      e.pushed <- false
    end
  done

let boundary_time t f =
  f.st.last +. ((f.st.remaining -. t.demote_bytes) *. 8. /. f.st.rate)

(* Rebuild the boundary schedule from scratch: rates just changed, so every
   previously computed demotion time is void. O(live), once per pass. *)
let rebuild_boundaries t =
  Eheap.clear t.boundaries;
  for i = 0 to Id_reg.length t.flows - 1 do
    let f = Id_reg.get t.flows i in
    if f.st.rate > 0. && f.st.remaining < infinity then
      Eheap.add t.boundaries ~time:(boundary_time t f) ~seq:f.id f
  done

let arm_boundary t now =
  match t.boundary_tm with
  | None -> ()
  | Some tm -> (
      match Eheap.peek_time t.boundaries with
      | Some next ->
          Engine.timer_schedule_at t.engine tm ~time:(Float.max now next)
      | None -> Engine.timer_cancel t.engine tm)

(* The allocation handler: settle, demote whatever is due, then reallocate
   and rebuild the boundary schedule. Demotion side effects (the demoted
   flow re-registers as a packet flow) may re-mark dirty; the extra pass —
   rate-limited by [min_interval] — is idempotent. *)
let do_recompute t =
  t.dirty <- false;
  t.recomputes <- t.recomputes + 1;
  let now = Engine.now t.engine in
  settle_all t now;
  demote_due t;
  allocate t;
  t.last_alloc <- now;
  rebuild_boundaries t;
  arm_boundary t now

(* The boundary handler: demotions must land on time (the demoted flow's
   packet tail starts here), but the water-filling pass they trigger may
   lag by [min_interval] — the freed share stays allocated to the departed
   flow until then, exactly as a real sender's competitors only claim freed
   bandwidth over the next RTTs. Draining the heap keeps the per-demotion
   cost at O(path + log live) instead of O(live x links). *)
let on_boundary t =
  let now = Engine.now t.engine in
  let demoted = ref false in
  let rec drain () =
    match Eheap.peek_time t.boundaries with
    | Some tm when tm <= now ->
        let f = Eheap.pop_min t.boundaries in
        if f.live then begin
          settle_flow t f now;
          if due t f then begin
            demote t f ~fault:false;
            demoted := true
          end
          else
            (* Settled a few ulps short of the boundary: try again at the
               recomputed crossing (strictly later — remaining is more
               than half a byte above the boundary, and the rate is
               unchanged). *)
            Eheap.add t.boundaries ~time:(boundary_time t f) ~seq:f.id f
        end;
        drain ()
    | _ -> ()
  in
  drain ();
  if !demoted then mark_dirty t;
  arm_boundary t now

let create engine net ~demote_bytes ?(standing_of = fun _ -> 0.)
    ?(min_interval = 0.) () =
  if demote_bytes < 0. then invalid_arg "Fluid.create: negative boundary";
  if min_interval < 0. then invalid_arg "Fluid.create: negative interval";
  let t =
    {
      engine;
      net;
      demote_bytes;
      standing_of;
      min_interval;
      flows = Id_reg.create ~dummy:dummy_fflow ();
      entries = Hashtbl.create 512;
      links = [||];
      n_links = 0;
      wf = Water_fill.create ();
      caps = [||];
      paths = [||];
      due = [||];
      pkt_paths = Hashtbl.create 512;
      boundaries = Eheap.create ~dummy:dummy_fflow ();
      dirty = false;
      last_alloc = neg_infinity;
      recompute_tm = None;
      boundary_tm = None;
      admitted = 0;
      demotions = 0;
      fault_demotions = 0;
      recomputes = 0;
      bytes_advanced = 0.;
    }
  in
  t.recompute_tm <-
    Some (Engine.timer ~label:"fluid-recompute" engine (fun () -> do_recompute t));
  t.boundary_tm <-
    Some (Engine.timer ~label:"fluid-boundary" engine (fun () -> on_boundary t));
  t

let entry_of t a b =
  let key = (a, b) in
  match Hashtbl.find_opt t.entries key with
  | Some e -> e
  | None ->
      let link =
        match Net.link_from t.net a b with
        | Some l -> l
        | None -> invalid_arg "Fluid: path hop without a link"
      in
      let e = { idx = t.n_links; key; link; n_fluid = 0; n_pkt = 0; pushed = false } in
      Hashtbl.replace t.entries key e;
      if t.n_links = Array.length t.links then begin
        let links = Array.make (Int.max 64 (2 * t.n_links)) e in
        Array.blit t.links 0 links 0 t.n_links;
        t.links <- links
      end;
      t.links.(t.n_links) <- e;
      t.n_links <- t.n_links + 1;
      e

let entries_of_route t ~id ~src ~dst =
  let nodes = Net.route t.net ~flow:id ~src ~dst () in
  let rec hops = function
    | a :: (b :: _ as rest) -> entry_of t a b :: hops rest
    | _ -> []
  in
  Array.of_list (hops nodes)

(* Admission slack: one full-size frame above the boundary. Heavy-tailed
   empirical CDFs (web-search, hadoop) put a dense band of flows barely
   above any byte threshold; a fluid phase shorter than one packet's worth
   of bytes advances nothing measurable yet still costs an allocation pass
   and a boundary-timer churn per flow, so such flows demote instantly. *)
let admit_slack_bytes = 1500.

let admit t ~id ~src ~dst ~bytes ~on_demote =
  if not (bytes > 0.) then invalid_arg "Fluid.admit: bytes must be positive";
  t.admitted <- t.admitted + 1;
  if bytes <= t.demote_bytes +. admit_slack_bytes then begin
    (* At (or within a frame of) the boundary: goes straight to the packet
       tier, with the same observable behaviour as never having been
       classified fluid. *)
    t.demotions <- t.demotions + 1;
    on_demote ~remaining_bytes:bytes ~rate_bps:0.
  end
  else begin
    let path = entries_of_route t ~id ~src ~dst in
    Array.iter (fun e -> e.n_fluid <- e.n_fluid + 1) path;
    let f =
      {
        id;
        path;
        links = Array.map (fun e -> e.idx) path;
        st = { remaining = bytes; rate = 0.; last = Engine.now t.engine };
        live = true;
        on_demote;
      }
    in
    (let i = Id_reg.index t.flows id in
     if i >= 0 then (Id_reg.get t.flows i).live <- false);
    Id_reg.add t.flows id f;
    mark_dirty t
  end

let register_packet t ~id ~src ~dst =
  let path = entries_of_route t ~id ~src ~dst in
  Hashtbl.replace t.pkt_paths id path;
  let shared = ref false in
  Array.iter
    (fun e ->
      e.n_pkt <- e.n_pkt + 1;
      if e.n_fluid > 0 then shared := true)
    path;
  if !shared then mark_dirty t

let unregister_packet t ~id =
  match Hashtbl.find_opt t.pkt_paths id with
  | None -> ()
  | Some path ->
      Hashtbl.remove t.pkt_paths id;
      let shared = ref false in
      Array.iter
        (fun e ->
          e.n_pkt <- e.n_pkt - 1;
          if e.n_fluid > 0 then shared := true)
        path;
      if !shared then mark_dirty t

let on_link_change t a b ~up =
  if not up then begin
    let crosses f =
      Array.exists
        (fun e ->
          let ea, eb = e.key in
          (ea = a && eb = b) || (ea = b && eb = a))
        f.path
    in
    let hit = ref [] in
    for i = Id_reg.length t.flows - 1 downto 0 do
      let f = Id_reg.get t.flows i in
      if crosses f then hit := f :: !hit
    done;
    List.iter (fun f -> demote t f ~fault:true) !hit
  end;
  mark_dirty t

let flush t = settle_all t (Engine.now t.engine)

let stats t =
  {
    admitted = t.admitted;
    demotions = t.demotions;
    fault_demotions = t.fault_demotions;
    recomputes = t.recomputes;
    bytes_advanced = t.bytes_advanced;
    live = Id_reg.length t.flows;
  }
