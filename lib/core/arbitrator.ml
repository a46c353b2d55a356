(* Entries live in two arrays: [by_id], sorted by flow id, for lookup and
   for id-ordered sums; and [order], the (criterion, flow) priority order
   of the last pass with entries added since appended. A pass re-sorts
   [order] (see [sort_order]) and runs Algorithm 1 over it in place.
   Removed entries are flagged [gone] and dropped from [order] at the next
   pass. *)

(* An all-float record is stored flat, so refreshing an entry or caching
   its rate writes unboxed floats: no allocation and no write barrier. *)
type state = {
  mutable criterion : float;
  mutable demand_bps : float;
  mutable refreshed : float;
  mutable rref_bps : float;  (* result of the last pass *)
}

type entry = {
  flow : int;
  st : state;
  mutable queue : int;  (* result of the last pass; -1 until one saw it *)
  mutable gone : bool;
}

type t = {
  mutable capacity_bps : float;
  by_id : entry Id_reg.t;
  mutable order : entry array;
  mutable n_order : int;
  mutable n_sorted : int;  (* entries the last pass saw *)
  (* Algorithm 1 scratch, in [order] positions *)
  mutable demands : float array;
  mutable queues : int array;
  mutable rrefs : float array;
  mutable top_counts : int array;  (* per-queue flow counts from last pass *)
  link : int * int;  (* the (real or virtual) link arbitrated, for tracing *)
  owner : int;  (* node id of the arbitrating delegate, -1 if anonymous *)
  trace : Trace.t;
}

let dummy =
  {
    flow = -1;
    st = { criterion = 0.; demand_bps = 0.; refreshed = 0.; rref_bps = 0. };
    queue = -1;
    gone = true;
  }

let create ?(link = (-1, -1)) ?(owner = -1) ?(trace = Trace.off) ~capacity_bps
    () =
  if capacity_bps <= 0. then invalid_arg "Arbitrator.create: capacity";
  {
    capacity_bps;
    by_id = Id_reg.create ~dummy ();
    order = [||];
    n_order = 0;
    n_sorted = 0;
    demands = [||];
    queues = [||];
    rrefs = [||];
    top_counts = [||];
    link;
    owner;
    trace;
  }

let capacity_bps t = t.capacity_bps
let set_capacity t c = if c > 0. then t.capacity_bps <- c

let no_entry = dummy
let live e = not e.gone

let refresh e ~criterion ~demand_bps ~now =
  let st = e.st in
  st.criterion <- criterion;
  st.demand_bps <- demand_bps;
  st.refreshed <- now

let enter t ~flow ~criterion ~demand_bps ~now =
  let i = Id_reg.index t.by_id flow in
  if i >= 0 then begin
    let e = Id_reg.get t.by_id i in
    refresh e ~criterion ~demand_bps ~now;
    e
  end
  else begin
    let e =
      {
        flow;
        st = { criterion; demand_bps; refreshed = now; rref_bps = 0. };
        queue = -1;
        gone = false;
      }
    in
    Id_reg.add t.by_id flow e;
    if t.n_order = Array.length t.order then begin
      let order = Array.make (Int.max 8 (2 * t.n_order)) dummy in
      Array.blit t.order 0 order 0 t.n_order;
      t.order <- order
    end;
    t.order.(t.n_order) <- e;
    t.n_order <- t.n_order + 1;
    e
  end

let upsert t ~flow ~criterion ~demand_bps ~now =
  ignore (enter t ~flow ~criterion ~demand_bps ~now)

let drop e =
  e.gone <- true;
  e.queue <- -1

let remove_at t i =
  drop (Id_reg.get t.by_id i);
  Id_reg.remove_at t.by_id i

let remove t ~flow =
  let i = Id_reg.index t.by_id flow in
  if i >= 0 then remove_at t i

let flows t = Id_reg.length t.by_id
let mem t ~flow = Id_reg.index t.by_id flow >= 0
let owner t = t.owner

let allocations t =
  let n = ref 0 in
  for i = 0 to Id_reg.length t.by_id - 1 do
    if (Id_reg.get t.by_id i).queue >= 0 then incr n
  done;
  !n

(* Crash: all soft state vanishes — flow entries and cached allocations.
   Hosts rebuild it through their periodic re-requests. *)
let clear t =
  for i = 0 to Id_reg.length t.by_id - 1 do
    drop (Id_reg.get t.by_id i)
  done;
  Id_reg.clear t.by_id;
  Array.fill t.order 0 t.n_order dummy;
  t.n_order <- 0;
  t.n_sorted <- 0;
  Array.fill t.top_counts 0 (Array.length t.top_counts) 0

let expire t ~now ~max_age =
  for i = Id_reg.length t.by_id - 1 downto 0 do
    if now -. (Id_reg.get t.by_id i).st.refreshed > max_age then remove_at t i
  done

let priority a b =
  match Float.compare a.st.criterion b.st.criterion with
  | 0 -> Int.compare a.flow b.flow
  | c -> c

(* Drop removed entries from [order], then sort it by (criterion, flow):
   by insertion when few entries arrived since the last pass, since the
   rest is nearly sorted; by merge sort when many did, as in a new
   arbitrator, where insertion would be quadratic. *)
let sort_order t =
  let insertion = t.n_order - t.n_sorted <= 16 in
  let m = ref 0 in
  for i = 0 to t.n_order - 1 do
    let e = t.order.(i) in
    if not e.gone then begin
      let j = ref !m in
      if insertion then
        while !j > 0 && priority e t.order.(!j - 1) < 0 do
          t.order.(!j) <- t.order.(!j - 1);
          decr j
        done;
      t.order.(!j) <- e;
      incr m
    end
  done;
  Array.fill t.order !m (t.n_order - !m) dummy;
  t.n_order <- !m;
  t.n_sorted <- !m;
  if not insertion then begin
    let live = Array.sub t.order 0 !m in
    Array.stable_sort priority live;
    Array.blit live 0 t.order 0 !m
  end

let ensure_scratch t n =
  if Array.length t.demands < n then begin
    let cap = Int.max 8 (2 * n) in
    t.demands <- Array.make cap 0.;
    t.queues <- Array.make cap 0;
    t.rrefs <- Array.make cap 0.
  end

let emit_arb t ~top_flows =
  if Trace.on t.trace then
    Trace.emit t.trace
      (Trace.Arb { link = t.link; delegate = t.owner; flows = flows t; top_flows })

let arbitrate t ~num_queues ~base_rate_bps =
  let n = flows t in
  if n = 0 && t.n_sorted = 0 then begin
    (* No entries now or at the last pass (or [clear]), which left every
       result empty. *)
    emit_arb t ~top_flows:0
  end
  else begin
    sort_order t;
    ensure_scratch t n;
    for i = 0 to n - 1 do
      t.demands.(i) <- t.order.(i).st.demand_bps
    done;
    Arbitration.assign_sorted ~capacity_bps:t.capacity_bps ~num_queues
      ~base_rate_bps ~demands:t.demands ~queues:t.queues ~rrefs:t.rrefs n;
    if Array.length t.top_counts <> num_queues then
      t.top_counts <- Array.make num_queues 0
    else Array.fill t.top_counts 0 num_queues 0;
    for i = 0 to n - 1 do
      let e = t.order.(i) and q = t.queues.(i) and r = t.rrefs.(i) in
      e.queue <- q;
      e.st.rref_bps <- r;
      t.top_counts.(q) <- t.top_counts.(q) + 1;
      if Trace.on t.trace then
        Trace.emit t.trace
          (Trace.Arb_alloc
             { link = t.link; delegate = t.owner; flow = e.flow; queue = q; rref_bps = r })
    done;
    emit_arb t ~top_flows:t.top_counts.(0)
  end

let queue e = e.queue
let rref_bps e = if e.queue < 0 then infinity else e.st.rref_bps

let cached t ~flow =
  let i = Id_reg.index t.by_id flow in
  if i < 0 then None
  else
    let e = Id_reg.get t.by_id i in
    if e.queue < 0 then None else Some (e.queue, e.st.rref_bps)

let total_demand t =
  let acc = ref 0. in
  for i = 0 to Id_reg.length t.by_id - 1 do
    acc := !acc +. (Id_reg.get t.by_id i).st.demand_bps
  done;
  !acc

let in_top_queues t ~k =
  let n = Array.length t.top_counts in
  let acc = ref 0 in
  for i = 0 to Int.min k n - 1 do
    acc := !acc + t.top_counts.(i)
  done;
  !acc
