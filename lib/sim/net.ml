type node_kind = Host | Switch

(* Flow handlers are keyed by [(host, flow)] packed into one int, the host
   in the low [node_bits] bits: one int hash per delivery, no tuple. *)
let node_bits = 24

module Handlers = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lxor (k lsr node_bits)
end)

let handler_key ~host ~flow = (flow lsl node_bits) lor host

type t = {
  engine : Engine.t;
  counters : Counters.t;
  trace : Trace.t;  (* [counters.trace], one load closer to the hot path *)
  mutable kinds : node_kind array;
  mutable n : int;
  adjacency : (int, (int * Link.t) list ref) Hashtbl.t;
      (* node -> outgoing (neighbour, link) *)
  directed : (int * int, Link.t) Hashtbl.t;
  handlers : (Packet.t -> unit) Handlers.t;
  mutable next_links : Link.t array array array;
      (* next_links.(node).(dst) = links to the equal-cost next hops, in
         neighbour-id order; [||] if unreachable. Identical arrays are
         shared within a node. *)
  mutable finalized : bool;
}

let create engine counters =
  {
    engine;
    counters;
    trace = counters.Counters.trace;
    kinds = Array.make 16 Host;
    n = 0;
    adjacency = Hashtbl.create 64;
    directed = Hashtbl.create 64;
    handlers = Handlers.create 256;
    next_links = [||];
    finalized = false;
  }

let engine t = t.engine
let counters t = t.counters

let add_node t kind =
  if t.finalized then invalid_arg "Net: cannot add nodes after finalize";
  if t.n = 1 lsl node_bits then invalid_arg "Net: too many nodes";
  if t.n = Array.length t.kinds then begin
    let narr = Array.make (2 * t.n) Host in
    Array.blit t.kinds 0 narr 0 t.n;
    t.kinds <- narr
  end;
  t.kinds.(t.n) <- kind;
  let id = t.n in
  t.n <- t.n + 1;
  Hashtbl.replace t.adjacency id (ref []);
  id

let add_host t = add_node t Host
let add_switch t = add_node t Switch
let node_kind t i = t.kinds.(i)
let node_count t = t.n

(* Per-flow ECMP: among equal-cost next hops, a flow always picks the same
   one (SplitMix64 finalizer of the flow id as the hash). *)
let flow_hash flow =
  let z = Int64.of_int (flow + 0x9E3779B9) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land max_int

(* The far end of a link, as recorded on its queue when [connect] made it. *)
let link_dst link = (Link.qdisc link).Queue_disc.loc.Trace.to_node

(* [links] is a non-empty equal-cost set at [node]. Salt with the switch
   id: per-hop hashes must be independent or multi-stage fabrics use only a
   correlated subset of their paths. *)
let pick links ~flow node =
  let n = Array.length links in
  if n = 1 then links.(0)
  else links.(flow_hash ((flow * 0x3779) lxor (node * 0x9e41)) mod n)

let stray t pkt node =
  t.counters.Counters.stray_pkts <- t.counters.Counters.stray_pkts + 1;
  if Trace.on t.trace then Trace.emit t.trace (Trace.Stray { pkt; node })

(* Delivery needs routing, which needs links, which deliver: the links'
   [deliver] closures call back into [deliver], which routes through the
   table built at [finalize]. *)
let rec deliver t pkt node =
  if node = pkt.Packet.dst then begin
    t.counters.Counters.delivered_pkts <- t.counters.Counters.delivered_pkts + 1;
    if Trace.on t.trace then Trace.emit t.trace (Trace.Rx { pkt; node });
    (match
       Handlers.find t.handlers (handler_key ~host:node ~flow:pkt.Packet.flow)
     with
    | f -> f pkt
    | exception Not_found -> stray t pkt node);
    (* The packet is done: handlers read it synchronously and never retain
       it (see Packet.free). Recycling is off under tracing because sinks
       may keep references past delivery. *)
    if not (Trace.on t.trace) then Packet.free pkt
  end
  else forward t pkt node

and forward t pkt node =
  let links = t.next_links.(node).(pkt.Packet.dst) in
  if Array.length links = 0 then begin
    stray t pkt node;
    if not (Trace.on t.trace) then Packet.free pkt
  end
  else Link.send (pick links ~flow:pkt.Packet.flow node) pkt

let connect t a b ~rate_bps ~delay_s ~qdisc =
  if t.finalized then invalid_arg "Net: cannot connect after finalize";
  let mk from to_ =
    let disc = qdisc () in
    disc.Queue_disc.loc.Trace.from_node <- from;
    disc.Queue_disc.loc.Trace.to_node <- to_;
    let link =
      Link.create t.engine ~qdisc:disc ~rate_bps ~delay_s ~counters:t.counters
        ~deliver:(fun pkt -> deliver t pkt to_)
        ()
    in
    Hashtbl.replace t.directed (from, to_) link;
    let adj = Hashtbl.find t.adjacency from in
    adj := (to_, link) :: !adj
  in
  mk a b;
  mk b a

let finalize t =
  if t.finalized then invalid_arg "Net.finalize: already finalized";
  t.finalized <- true;
  let n = t.n in
  (* Neighbours sorted by id (for determinism), with the link to each. *)
  let nbrs =
    Array.init n (fun i ->
        let adj = !(Hashtbl.find t.adjacency i) in
        Array.of_list (List.sort Int.compare (List.map fst adj)))
  in
  let nbr_links =
    Array.mapi (fun v -> Array.map (fun u -> Hashtbl.find t.directed (v, u))) nbrs
  in
  (* Equal-cost sets are subsets of a node's neighbours, so a bitmask over
     the sorted neighbour array names one; each distinct set is built once
     per node and shared by every destination that uses it. Nodes with more
     neighbours than an int has bits get a fresh array per destination. *)
  let shared = Array.init n (fun _ -> Hashtbl.create 8) in
  let next_set v dist =
    let ns = nbrs.(v) in
    let on_path j = dist.(ns.(j)) = dist.(v) - 1 in
    let build () =
      let links = ref [] in
      for j = Array.length ns - 1 downto 0 do
        if on_path j then links := nbr_links.(v).(j) :: !links
      done;
      Array.of_list !links
    in
    if Array.length ns >= Sys.int_size then build ()
    else begin
      let mask = ref 0 in
      for j = 0 to Array.length ns - 1 do
        if on_path j then mask := !mask lor (1 lsl j)
      done;
      match Hashtbl.find_opt shared.(v) !mask with
      | Some links -> links
      | None ->
          let links = build () in
          Hashtbl.replace shared.(v) !mask links;
          links
    end
  in
  t.next_links <- Array.init n (fun _ -> Array.make n [||]);
  (* BFS from each destination over the (symmetric) adjacency; every node
     keeps ALL neighbours on shortest paths toward dst (equal-cost
     multipath). *)
  let dist = Array.make n max_int in
  let queue = Array.make n 0 in
  for dst = 0 to n - 1 do
    Array.fill dist 0 n max_int;
    dist.(dst) <- 0;
    queue.(0) <- dst;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Array.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            queue.(!tail) <- v;
            incr tail
          end)
        nbrs.(u)
    done;
    for v = 0 to n - 1 do
      if v <> dst && dist.(v) < max_int then
        t.next_links.(v).(dst) <- next_set v dist
    done
  done

let send t pkt =
  let src = pkt.Packet.src in
  if src = pkt.Packet.dst then deliver t pkt src else forward t pkt src

let register_flow t ~host ~flow f =
  Handlers.replace t.handlers (handler_key ~host ~flow) f

let unregister_flow t ~host ~flow =
  Handlers.remove t.handlers (handler_key ~host ~flow)

let route t ?(flow = 0) ~src ~dst () =
  let rec go node acc =
    if node = dst then List.rev (node :: acc)
    else
      let links = t.next_links.(node).(dst) in
      if Array.length links = 0 then invalid_arg "Net.route: no path"
      else go (link_dst (pick links ~flow node)) (node :: acc)
  in
  go src []

let path_count t ~src ~dst =
  (* Number of distinct shortest paths (product of fanouts is an upper
     bound; count exactly by DP over the DAG). *)
  let memo = Hashtbl.create 16 in
  let rec count node =
    if node = dst then 1
    else
      match Hashtbl.find_opt memo node with
      | Some c -> c
      | None ->
          let c =
            Array.fold_left
              (fun acc l -> acc + count (link_dst l))
              0
              t.next_links.(node).(dst)
          in
          Hashtbl.replace memo node c;
          c
  in
  count src

let link_from t a b = Hashtbl.find_opt t.directed (a, b)

let links t =
  List.map (fun ((a, b), l) -> (a, b, l)) (Det_tbl.to_list t.directed)
