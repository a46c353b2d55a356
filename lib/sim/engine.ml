(* Event records are mutable and pooled: a fired one-shot event goes back on
   a free list and its closure reference is dropped immediately (closures
   capture packets and flow state; see Eheap on retention). Timer events are
   owned by their [timer] handle for the life of the simulation and are
   never pooled.

   Staleness protocol: a heap slot is live iff the event it holds has
   [live = true] AND the slot's seq equals the event's [key_seq]. Timer
   rescheduling pushes a fresh slot with a fresh seq and bumps [key_seq];
   the superseded slot goes stale in place, no heap surgery needed. The
   engine counts dead slots and compacts the heap when they outnumber live
   ones ([maybe_compact]).

   FIFO lanes: a lane is a ring of [(time, seq, closure)] entries pushed in
   increasing key order, so its head is its minimum and a push or pop is
   O(1). [run] pops the smaller of the heap top and [best], the non-empty
   lane with the smallest head. Lane entries take their seq from the same
   counter as heap slots, so the pop order is the one a single heap would
   give. A push whose time is below its lane's newest entry goes to the
   heap instead. Lane entries are never cancelled: they hold a bare closure,
   not an event record. Everything that sizes the queue ([note_depth],
   [maybe_compact], [pending]) counts heap slots plus lane entries. *)

type event = {
  mutable fn : unit -> unit;
  mutable live : bool;
  mutable key_seq : int;  (* seq of the one heap slot that may fire this *)
  mutable gen : int;  (* bumped on pool reuse; guards stale cancel handles *)
  recyclable : bool;  (* timers are permanent, one-shots return to the pool *)
  mutable ctr : int ref option;
}

type timer = { tev : event; tlabel : string option }

type lane = {
  delay : float;  (* [delay_lane]'s key; nan, which equals nothing, if none *)
  mutable ltimes : float array;
  mutable lseqs : int array;
  mutable lfns : (unit -> unit) array;  (* [ignore_fn] in free slots *)
  mutable lctrs : int ref option array;  (* [None] in free slots *)
  mutable head : int;
  mutable llen : int;
}

(* A float-only record is stored flat, so setting the clock writes an
   unboxed float: in [t] itself, a mixed record, each store would allocate
   a box. *)
type clock = { mutable now : float }

type t = {
  heap : event Eheap.t;
  clock : clock;
  mutable seq : int;
  mutable processed : int;
  mutable dead : int;  (* cancelled/superseded slots still in the heap *)
  mutable lanes : lane array;  (* every lane, in creation order *)
  mutable best : lane;  (* non-empty lane with the smallest head, or [idle] *)
  idle : lane;  (* the empty lane [best] names when every lane is empty *)
  mutable laned : int;  (* entries across all lanes *)
  mutable stopped : bool;
  mutable pool : event array;
  mutable pool_len : int;
  mutable profiling : bool;
  site_counts : (string, int ref) Hashtbl.t;
  mutable peak_heap : int;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_collections : int;
}

type cancel = unit -> unit

type profile = {
  executed : int;
  peak_heap : int;
  wall_s : float;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
  sites : (string * int) list;
}

let ignore_fn = ignore

let dummy_event () =
  {
    fn = ignore_fn;
    live = false;
    key_seq = min_int;
    gen = 0;
    recyclable = false;
    ctr = None;
  }

let empty_lane delay =
  {
    delay;
    ltimes = [||];
    lseqs = [||];
    lfns = [||];
    lctrs = [||];
    head = 0;
    llen = 0;
  }

let create () =
  let idle = empty_lane nan in
  {
    heap = Eheap.create ~dummy:(dummy_event ()) ();
    clock = { now = 0. };
    seq = 0;
    processed = 0;
    dead = 0;
    lanes = [||];
    best = idle;
    idle;
    laned = 0;
    stopped = false;
    pool = [||];
    pool_len = 0;
    profiling = false;
    site_counts = Hashtbl.create 16;
    peak_heap = 0;
    wall_s = 0.;
    minor_words = 0.;
    promoted_words = 0.;
    major_collections = 0;
  }

let[@inline] now t = t.clock.now
let set_profiling t flag = t.profiling <- flag

let profile t =
  {
    executed = t.processed;
    peak_heap = t.peak_heap;
    wall_s = t.wall_s;
    minor_words = t.minor_words;
    promoted_words = t.promoted_words;
    major_collections = t.major_collections;
    sites =
      Det_tbl.fold (fun label c acc -> (label, !c) :: acc) t.site_counts []
      |> List.rev;
  }

(* Profiling resolves the label to its counter at schedule time; execution
   then pays a single [incr]. Label strings are only consulted when
   profiling is on, so the default path allocates nothing extra. *)
let site_ctr t label =
  if not t.profiling then None
  else
    match label with
    | None -> None
    | Some l -> (
        match Hashtbl.find_opt t.site_counts l with
        | Some c -> Some c
        | None ->
            let c = ref 0 in
            Hashtbl.replace t.site_counts l c;
            Some c)

let note_depth t =
  let d = Eheap.size t.heap + t.laned in
  if d > t.peak_heap then t.peak_heap <- d

let pool_cap = 1024

let recycle t e =
  e.fn <- ignore_fn;
  e.ctr <- None;
  e.live <- false;
  if t.pool_len < pool_cap then begin
    if t.pool_len = Array.length t.pool then begin
      let ncap = max 64 (min pool_cap (2 * Array.length t.pool)) in
      let np = Array.make ncap e in
      Array.blit t.pool 0 np 0 t.pool_len;
      t.pool <- np
    end;
    t.pool.(t.pool_len) <- e;
    t.pool_len <- t.pool_len + 1
  end

let alloc_event t fn ctr =
  if t.pool_len > 0 then begin
    t.pool_len <- t.pool_len - 1;
    let e = t.pool.(t.pool_len) in
    e.fn <- fn;
    e.live <- true;
    e.gen <- e.gen + 1;
    e.ctr <- ctr;
    e
  end
  else { fn; live = true; key_seq = 0; gen = 0; recyclable = true; ctr }

(* Compact when dead slots outnumber live ones (and there are enough of
   them to matter). The trigger and the sweep are pure functions of
   simulation state, so compaction never perturbs results. *)
let maybe_compact t =
  let n = Eheap.size t.heap + t.laned in
  if t.dead > 64 && 2 * t.dead > n then begin
    Eheap.compact t.heap ~keep:(fun ~seq e -> e.live && e.key_seq = seq);
    t.dead <- 0
  end

let[@inline] push t ~time fn ctr =
  let e = alloc_event t fn ctr in
  e.key_seq <- t.seq;
  Eheap.add t.heap ~time ~seq:t.seq e;
  t.seq <- t.seq + 1;
  note_depth t;
  e

(* The checks are written [not (x >= bound)] so that a NaN time or delay,
   for which every comparison is false, is rejected too. *)
let[@inline never] bad_time fn time now =
  invalid_arg
    (Printf.sprintf "Engine.%s: time %g is in the past or nan (now %g)" fn time
       now)

let[@inline never] bad_delay fn delay =
  invalid_arg (Printf.sprintf "Engine.%s: delay %g is negative or nan" fn delay)

let[@inline] schedule_at ?label t ~time fn =
  if not (time >= t.clock.now) then bad_time "schedule_at" time t.clock.now;
  ignore (push t ~time fn (site_ctr t label))

let[@inline] schedule ?label t ~delay fn =
  if not (delay >= 0.) then bad_delay "schedule" delay;
  schedule_at ?label t ~time:(t.clock.now +. delay) fn

let schedule_cancellable ?label t ~delay fn =
  if not (delay >= 0.) then bad_delay "schedule_cancellable" delay;
  let e = push t ~time:(t.clock.now +. delay) fn (site_ctr t label) in
  let g = e.gen in
  fun () ->
    if e.gen = g && e.live then begin
      e.live <- false;
      t.dead <- t.dead + 1;
      maybe_compact t
    end

(* ---- FIFO lanes ---- *)

let add_lane t delay =
  let l = empty_lane delay in
  t.lanes <- Array.append t.lanes [| l |];
  l

let lane t = add_lane t nan

let delay_lane t ~delay =
  if not (delay >= 0.) then bad_delay "delay_lane" delay;
  match Array.find_opt (fun l -> l.delay = delay) t.lanes with
  | Some l -> l
  | None -> add_lane t delay

(* [a]'s head comes before [b]'s. Both are non-empty. *)
let[@inline] head_before a b =
  let ta = a.ltimes.(a.head) and tb = b.ltimes.(b.head) in
  ta < tb || (ta = tb && a.lseqs.(a.head) < b.lseqs.(b.head))

let rescan t =
  let best = ref t.idle in
  let lanes = t.lanes in
  for i = 0 to Array.length lanes - 1 do
    let l = lanes.(i) in
    if l.llen > 0 && (!best.llen = 0 || head_before l !best) then best := l
  done;
  t.best <- !best

(* Double the ring, unrolling its entries to the front. *)
let grow l =
  let cap = Array.length l.ltimes in
  let ncap = if cap = 0 then 64 else 2 * cap in
  let times = Array.make ncap 0. in
  let seqs = Array.make ncap 0 in
  let fns = Array.make ncap ignore_fn in
  let ctrs = Array.make ncap None in
  for k = 0 to l.llen - 1 do
    let i = (l.head + k) land (cap - 1) in
    times.(k) <- l.ltimes.(i);
    seqs.(k) <- l.lseqs.(i);
    fns.(k) <- l.lfns.(i);
    ctrs.(k) <- l.lctrs.(i)
  done;
  l.ltimes <- times;
  l.lseqs <- seqs;
  l.lfns <- fns;
  l.lctrs <- ctrs;
  l.head <- 0

(* An empty lane takes any [time >= now]: its entries have all fired, at
   times no later than [now]. *)
let[@inline] lane_push ?label t l ~time fn =
  let n = l.llen in
  let mask = Array.length l.ltimes - 1 in
  if n = 0 || time >= l.ltimes.((l.head + n - 1) land mask) then begin
    if n = mask + 1 then grow l;
    let i = (l.head + n) land (Array.length l.ltimes - 1) in
    l.ltimes.(i) <- time;
    l.lseqs.(i) <- t.seq;
    l.lfns.(i) <- fn;
    if t.profiling then l.lctrs.(i) <- site_ctr t label;
    (* The new entry has the largest seq yet, so it becomes the head of
       heads only when its lane was empty and its time is strictly
       smallest. *)
    if n = 0 then begin
      let b = t.best in
      if b.llen = 0 || time < b.ltimes.(b.head) then t.best <- l
    end;
    l.llen <- n + 1;
    t.seq <- t.seq + 1;
    t.laned <- t.laned + 1;
    note_depth t
  end
  else ignore (push t ~time fn (site_ctr t label))

let[@inline] lane_schedule_at ?label t l ~time fn =
  if not (time >= t.clock.now) then
    bad_time "lane_schedule_at" time t.clock.now;
  lane_push ?label t l ~time fn

let[@inline] lane_schedule ?label t l ~delay fn =
  if not (delay >= 0.) then bad_delay "lane_schedule" delay;
  lane_push ?label t l ~time:(t.clock.now +. delay) fn

let timer ?label _t fn =
  {
    tev =
      {
        fn;
        live = false;
        key_seq = min_int;
        gen = 0;
        recyclable = false;
        ctr = None;
      };
    tlabel = label;
  }

let[@inline] timer_schedule_at t tm ~time =
  if not (time >= t.clock.now) then
    bad_time "timer_schedule_at" time t.clock.now;
  let e = tm.tev in
  if e.live then t.dead <- t.dead + 1 (* the superseded slot goes stale *);
  e.live <- true;
  e.key_seq <- t.seq;
  e.ctr <- site_ctr t tm.tlabel;
  Eheap.add t.heap ~time ~seq:t.seq e;
  t.seq <- t.seq + 1;
  note_depth t;
  maybe_compact t

let[@inline] timer_schedule t tm ~delay =
  if not (delay >= 0.) then bad_delay "timer_schedule" delay;
  timer_schedule_at t tm ~time:(t.clock.now +. delay)

let timer_cancel t tm =
  let e = tm.tev in
  if e.live then begin
    e.live <- false;
    t.dead <- t.dead + 1;
    maybe_compact t
  end

let timer_pending tm = tm.tev.live

let run ?until ?max_events t =
  t.stopped <- false;
  let wall_start =
    (* lint: allow no-wallclock — profiling only; never feeds back into the
       simulation or its results. *)
    if t.profiling then Sys.time () else 0.
  in
  let gc_start = if t.profiling then Some (Gc.quick_stat ()) else None in
  let horizon = match until with None -> infinity | Some h -> h in
  let budget = ref (match max_events with None -> max_int | Some n -> n) in
  let continue = ref true in
  let exhausted = ref false in
  (* The horizon check peeks instead of popping-and-reinserting: the future
     event keeps its original seq, so FIFO tie-order is stable across chunked
     [run ~until] calls. *)
  while !continue && not t.stopped do
    let l = t.best in
    let heap = t.heap in
    if
      l.llen > 0
      && (Eheap.is_empty heap
         ||
         let lt = l.ltimes.(l.head) and ht = Eheap.min_time heap in
         lt < ht || (lt = ht && l.lseqs.(l.head) < Eheap.min_seq heap))
    then begin
      let h = l.head in
      let time = l.ltimes.(h) in
      if time > horizon then begin
        exhausted := true;
        continue := false
      end
      else begin
        let fn = l.lfns.(h) in
        l.lfns.(h) <- ignore_fn;
        (match l.lctrs.(h) with
        | None -> ()
        | Some c ->
            incr c;
            l.lctrs.(h) <- None);
        l.head <- (h + 1) land (Array.length l.ltimes - 1);
        l.llen <- l.llen - 1;
        t.laned <- t.laned - 1;
        rescan t;
        decr budget;
        t.clock.now <- time;
        t.processed <- t.processed + 1;
        fn ();
        if !budget <= 0 then continue := false
      end
    end
    else if Eheap.is_empty heap then begin
      exhausted := true;
      continue := false
    end
    else begin
      let time = Eheap.min_time heap in
      if time > horizon then begin
        exhausted := true;
        continue := false
      end
      else begin
        let seq = Eheap.min_seq heap in
        let e = Eheap.pop_min heap in
        (* Every pop counts against the budget, live or dead: draining dead
           slots is work, and an all-dead heap must still terminate. *)
        decr budget;
        if e.live && e.key_seq = seq then begin
          e.live <- false;
          t.clock.now <- time;
          t.processed <- t.processed + 1;
          (match e.ctr with Some c -> incr c | None -> ());
          let fn = e.fn in
          if e.recyclable then recycle t e;
          fn ()
        end
        else begin
          t.dead <- t.dead - 1;
          if e.recyclable then recycle t e
        end;
        if !budget <= 0 then continue := false
      end
    end
  done;
  if t.profiling then begin
    (* lint: allow no-wallclock — profiling only; never feeds back into the
       simulation or its results. *)
    t.wall_s <- t.wall_s +. (Sys.time () -. wall_start);
    match gc_start with
    | None -> ()
    | Some gc0 ->
        let gc1 = Gc.quick_stat () in
        t.minor_words <-
          t.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
        t.promoted_words <-
          t.promoted_words +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
        t.major_collections <-
          t.major_collections
          + (gc1.Gc.major_collections - gc0.Gc.major_collections)
  end;
  (* A run that reached its horizon (rather than being stopped or running out
     of event budget) has simulated the whole [0, until] window: advance the
     clock so [now] reports the horizon, not the last event time. *)
  match until with
  | Some horizon when !exhausted && (not t.stopped) && horizon > t.clock.now ->
      t.clock.now <- horizon
  | _ -> ()

let stop t = t.stopped <- true
let events_processed t = t.processed
let pending t = Eheap.size t.heap + t.laned
