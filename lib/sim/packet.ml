type kind = Data | Ack | Probe | Probe_ack | Ctrl

type t = {
  mutable id : int;
  mutable flow : int;
  mutable src : int;
  mutable dst : int;
  mutable kind : kind;
  mutable size : int;
  mutable seq : int;
  mutable ack : int;
  mutable sack : int;
  mutable prio : float;
  mutable tos : int;
  mutable ecn_capable : bool;
  mutable ecn_ce : bool;
  mutable ecn_echo : bool;
  mutable sent_at : float;
  mutable enq_at : float;  (* scratch: qdisc arrival time (Delay attribution) *)
}

let header_bytes = 40
let ack_bytes = 40
let probe_bytes = 40

(* lint: allow no-global-state — packet ids; per-run once the benchmark freeze lifts (ROADMAP item 7) *)
let next_id = ref 0

(* Free list of dead packets. [make] always reinitializes every field (with
   a fresh id), so reuse is invisible to simulation results; callers must
   only [free] packets the data path will never touch again, and must not
   free at all while the run's trace bus is on (a sink may retain live
   packets; see Trace). *)
(* lint: allow no-global-state — packet free list; per-run once the benchmark freeze lifts (ROADMAP item 7) *)
let pool : t array ref = ref [||]
let pool_len = ref 0 (* lint: allow no-global-state — the free list's length, as above *)
let pool_cap = 4096

let reset_ids () =
  next_id := 0;
  pool := [||];
  pool_len := 0

let dummy () =
  {
    id = -1;
    flow = -1;
    src = -1;
    dst = -1;
    kind = Ctrl;
    size = 0;
    seq = -1;
    ack = -1;
    sack = -1;
    prio = 0.;
    tos = 0;
    ecn_capable = false;
    ecn_ce = false;
    ecn_echo = false;
    sent_at = 0.;
    enq_at = 0.;
  }

(* Sentinels (id < 0: [dummy ()] and the rings' and queues' empty
   markers) never enter the pool: [make] would hand one out as a live
   packet, and a queue would then report itself empty while holding it. *)
let free pkt =
  if pkt.id >= 0 && !pool_len < pool_cap then begin
    if !pool_len = Array.length !pool then begin
      let ncap = max 64 (min pool_cap (2 * Array.length !pool)) in
      let np = Array.make ncap pkt in
      Array.blit !pool 0 np 0 !pool_len;
      pool := np
    end;
    !pool.(!pool_len) <- pkt;
    incr pool_len
  end

let make_full ~flow ~src ~dst ~kind ~size ~seq ~ack ~sack ~prio ~tos
    ~ecn_capable ~ecn_echo ~sent_at =
  let id = !next_id in
  incr next_id;
  if !pool_len > 0 then begin
    decr pool_len;
    let p = !pool.(!pool_len) in
    p.id <- id;
    p.flow <- flow;
    p.src <- src;
    p.dst <- dst;
    p.kind <- kind;
    p.size <- size;
    p.seq <- seq;
    p.ack <- ack;
    p.sack <- sack;
    p.prio <- prio;
    p.tos <- tos;
    p.ecn_capable <- ecn_capable;
    p.ecn_ce <- false;
    p.ecn_echo <- ecn_echo;
    p.sent_at <- sent_at;
    p.enq_at <- 0.;
    p
  end
  else
    {
      id;
      flow;
      src;
      dst;
      kind;
      size;
      seq;
      ack;
      sack;
      prio;
      tos;
      ecn_capable;
      ecn_ce = false;
      ecn_echo;
      sent_at;
      enq_at = 0.;
    }

let make ~flow ~src ~dst ~kind ~size ~seq ?(ack = -1) ?(sack = -1) ?(prio = 0.)
    ?(tos = 0) ?(ecn_capable = true) ?(ecn_echo = false) ~sent_at () =
  make_full ~flow ~src ~dst ~kind ~size ~seq ~ack ~sack ~prio ~tos ~ecn_capable
    ~ecn_echo ~sent_at

let kind_str = function
  | Data -> "data"
  | Ack -> "ack"
  | Probe -> "probe"
  | Probe_ack -> "probe-ack"
  | Ctrl -> "ctrl"
