(* Discrete-event engine: scheduling semantics, cancellation, stop/until. *)

let test_time_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~delay:0.5 (fun () -> seen := (Engine.now e, 'b') :: !seen);
  Engine.schedule e ~delay:0.1 (fun () -> seen := (Engine.now e, 'a') :: !seen);
  Engine.run e;
  Alcotest.(check (list (pair (float 1e-12) char)))
    "events in time order" [ (0.1, 'a'); (0.5, 'b') ] (List.rev !seen)

let test_fifo_same_time () =
  let e = Engine.create () in
  let seen = ref [] in
  for i = 0 to 4 do
    Engine.schedule e ~delay:1.0 (fun () -> seen := i :: !seen)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "FIFO" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

let test_nested_scheduling () =
  let e = Engine.create () in
  let trace = ref [] in
  Engine.schedule e ~delay:1.0 (fun () ->
      trace := "outer" :: !trace;
      Engine.schedule e ~delay:1.0 (fun () -> trace := "inner" :: !trace));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !trace);
  Alcotest.(check (float 1e-12)) "final time" 2.0 (Engine.now e)

let test_cancellation () =
  let e = Engine.create () in
  let fired = ref false in
  let cancel = Engine.schedule_cancellable e ~delay:1.0 (fun () -> fired := true) in
  cancel ();
  Engine.run e;
  Alcotest.(check bool) "cancelled event does not fire" false !fired;
  Alcotest.(check int) "not counted" 0 (Engine.events_processed e)

let test_cancel_idempotent () =
  let e = Engine.create () in
  let cancel = Engine.schedule_cancellable e ~delay:1.0 ignore in
  cancel ();
  cancel ();
  Engine.run e

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  (* Run can resume afterwards. *)
  Engine.run e;
  Alcotest.(check int) "resumed" 10 !count

let test_until () =
  let e = Engine.create () in
  let count = ref 0 in
  List.iter
    (fun t -> Engine.schedule e ~delay:t (fun () -> incr count))
    [ 0.1; 0.2; 0.9; 1.5 ];
  Engine.run ~until:1.0 e;
  Alcotest.(check int) "3 events before horizon" 3 !count;
  Alcotest.(check bool) "future event still pending" true (Engine.pending e > 0);
  Engine.run e;
  Alcotest.(check int) "rest runs later" 4 !count

(* Regression: [run ~until] used to stop at the last processed event without
   advancing the clock to the horizon, understating censored-flow FCTs and
   inflating per-second rates computed against [now]. *)
let test_until_advances_clock () =
  let e = Engine.create () in
  List.iter (fun t -> Engine.schedule e ~delay:t ignore) [ 0.1; 0.2; 1.5 ];
  Engine.run ~until:1.0 e;
  Alcotest.(check (float 1e-12)) "clock at horizon" 1.0 (Engine.now e);
  (* Also when the queue drains before the horizon. *)
  let e2 = Engine.create () in
  Engine.schedule e2 ~delay:0.1 ignore;
  Engine.run ~until:1.0 e2;
  Alcotest.(check (float 1e-12)) "clock at horizon after drain" 1.0 (Engine.now e2)

let test_stop_beats_horizon_clamp () =
  (* [stop] means the run did not cover the window: keep the event-time clock. *)
  let e = Engine.create () in
  Engine.schedule e ~delay:0.1 (fun () -> Engine.stop e);
  Engine.schedule e ~delay:0.2 ignore;
  Engine.run ~until:1.0 e;
  Alcotest.(check (float 1e-12)) "clock stays at stop time" 0.1 (Engine.now e)

(* Regression: a future event cut off by [~until] used to be popped and
   re-inserted with a fresh seq, so chunked [run ~until] calls broke FIFO
   ordering of simultaneous events. *)
let test_fifo_ties_across_chunked_runs () =
  let e = Engine.create () in
  let seen = ref [] in
  for i = 0 to 4 do
    Engine.schedule e ~delay:1.7 (fun () -> seen := i :: !seen)
  done;
  Engine.run ~until:1.0 e;
  Alcotest.(check (list int)) "nothing before horizon" [] (List.rev !seen);
  Engine.run ~until:1.5 e;
  Engine.run ~until:2.0 e;
  Alcotest.(check (list int))
    "FIFO preserved across chunks" [ 0; 1; 2; 3; 4 ] (List.rev !seen)

let test_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 100 do
    Engine.schedule e ~delay:1.0 (fun () -> incr count)
  done;
  Engine.run ~max_events:10 e;
  Alcotest.(check int) "budget respected" 10 !count

(* The budget counts every pop, live or dead: a heap full of cancelled
   events must still make [run ~max_events] terminate. *)
let test_max_events_counts_dead_pops () =
  let e = Engine.create () in
  for i = 1 to 20 do
    let cancel =
      Engine.schedule_cancellable e
        ~delay:(0.01 *. float_of_int i)
        (fun () -> Alcotest.fail "cancelled event fired")
    in
    cancel ()
  done;
  let fired = ref false in
  Engine.schedule e ~delay:1.0 (fun () -> fired := true);
  Engine.run ~max_events:10 e;
  Alcotest.(check int) "dead pops consumed the budget" 0
    (Engine.events_processed e);
  Alcotest.(check bool) "live event still pending" true (Engine.pending e > 0);
  Engine.run e;
  Alcotest.(check bool) "live event fires later" true !fired

(* Mass cancellation must not leave the heap full of corpses: once dead
   slots outnumber live ones the engine compacts in place. *)
let test_lazy_compaction () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () -> incr count)
  done;
  let cancels =
    List.init 200 (fun _ -> Engine.schedule_cancellable e ~delay:0.5 ignore)
  in
  Alcotest.(check int) "all queued" 210 (Engine.pending e);
  List.iter (fun c -> c ()) cancels;
  Alcotest.(check bool)
    (Printf.sprintf "compaction reclaimed dead slots (pending %d)"
       (Engine.pending e))
    true
    (Engine.pending e <= 74);
  Engine.run e;
  Alcotest.(check int) "live events unaffected" 10 !count;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* Fired one-shots go back on the free list; a stale cancel handle must
   not be able to kill the unrelated event that reuses the record. *)
let test_stale_cancel_handle_is_inert () =
  let e = Engine.create () in
  let cancel = Engine.schedule_cancellable e ~delay:0.1 ignore in
  Engine.run e;
  let fired = ref false in
  Engine.schedule e ~delay:0.1 (fun () -> fired := true);
  cancel ();
  Engine.run e;
  Alcotest.(check bool) "recycled event unaffected by stale handle" true !fired

(* Cancelled closures capture packets and flow state: draining the dead
   slot must drop the closure, not park it in the event pool. *)
let test_cancelled_closure_released () =
  let e = Engine.create () in
  let w : bytes Weak.t = Weak.create 1 in
  let cancel =
    let big = Bytes.create 4096 in
    Weak.set w 0 (Some big);
    Engine.schedule_cancellable e ~delay:1.0 (fun () ->
        ignore (Bytes.length big))
  in
  cancel ();
  Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "cancelled closure collected" false (Weak.check w 0);
  (* Used after the collection, so the engine and its pool stay live. *)
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* ---- timers ----------------------------------------------------------- *)

let test_timer_fire_and_rearm () =
  let e = Engine.create () in
  let fires = ref [] in
  let tm = Engine.timer e (fun () -> fires := Engine.now e :: !fires) in
  Alcotest.(check bool) "fresh timer not pending" false (Engine.timer_pending tm);
  Engine.timer_schedule e tm ~delay:0.5;
  Alcotest.(check bool) "armed" true (Engine.timer_pending tm);
  Engine.run e;
  Alcotest.(check bool) "fired, no longer pending" false
    (Engine.timer_pending tm);
  Engine.timer_schedule e tm ~delay:0.25;
  Engine.run e;
  Alcotest.(check (list (float 1e-12)))
    "same timer fires at both times" [ 0.5; 0.75 ] (List.rev !fires)

let test_timer_reschedule_supersedes () =
  let e = Engine.create () in
  let fires = ref [] in
  let tm = Engine.timer e (fun () -> fires := Engine.now e :: !fires) in
  Engine.timer_schedule e tm ~delay:1.0;
  Engine.timer_schedule e tm ~delay:0.5;
  Engine.run e;
  Alcotest.(check (list (float 1e-12)))
    "only the latest schedule fires" [ 0.5 ]
    (List.rev !fires);
  Alcotest.(check int) "stale slot not counted as processed" 1
    (Engine.events_processed e);
  Alcotest.(check int) "heap fully drained" 0 (Engine.pending e)

let test_timer_cancel_and_rearm () =
  let e = Engine.create () in
  let count = ref 0 in
  let tm = Engine.timer e (fun () -> incr count) in
  Engine.timer_schedule e tm ~delay:1.0;
  Engine.timer_cancel e tm;
  Engine.timer_cancel e tm;
  Alcotest.(check bool) "cancelled" false (Engine.timer_pending tm);
  Engine.run e;
  Alcotest.(check int) "cancelled timer does not fire" 0 !count;
  Engine.timer_schedule e tm ~delay:1.0;
  Engine.run e;
  Alcotest.(check int) "re-armed after cancel" 1 !count

(* The RTO pattern: the handler re-arms its own timer. *)
let test_timer_rearm_in_handler () =
  let e = Engine.create () in
  let count = ref 0 in
  let tm_ref = ref None in
  let tm =
    Engine.timer e (fun () ->
        incr count;
        if !count < 3 then
          Engine.timer_schedule e (Option.get !tm_ref) ~delay:1.0)
  in
  tm_ref := Some tm;
  Engine.timer_schedule e tm ~delay:1.0;
  Engine.run e;
  Alcotest.(check int) "timer chain ran" 3 !count;
  Alcotest.(check (float 1e-12)) "one RTT apart" 3.0 (Engine.now e)

(* Rescheduling consumes a fresh seq: a superseded-then-re-armed timer
   is FIFO-ordered by its latest schedule point, not its first. *)
let test_timer_reschedule_fifo_order () =
  let e = Engine.create () in
  let seen = ref [] in
  let tm = Engine.timer e (fun () -> seen := 'T' :: !seen) in
  Engine.timer_schedule e tm ~delay:2.0;
  Engine.schedule e ~delay:1.0 (fun () -> seen := 'A' :: !seen);
  Engine.timer_schedule e tm ~delay:1.0;
  Engine.run e;
  Alcotest.(check (list char))
    "tie broken by latest schedule order" [ 'A'; 'T' ] (List.rev !seen)

let test_past_scheduling_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:1.0 (fun () ->
      Alcotest.check_raises "no time travel"
        (Invalid_argument "Engine.schedule: delay -0.5 is negative or nan")
        (fun () ->
          Engine.schedule e ~delay:(-0.5) ignore));
  Engine.run e

(* NaN compares false with everything, so a [time < now] guard let a NaN
   key into the heap, where it broke every later comparison. Each entry
   point must reject it and leave the engine untouched. *)
let nan_entry_points =
  let nan = Float.nan in
  [
    ( "schedule",
      "Engine.schedule: delay nan is negative or nan",
      fun e -> Engine.schedule e ~delay:nan ignore );
    ( "schedule_at",
      "Engine.schedule_at: time nan is in the past or nan (now 0)",
      fun e -> Engine.schedule_at e ~time:nan ignore );
    ( "schedule_cancellable",
      "Engine.schedule_cancellable: delay nan is negative or nan",
      fun e ->
        let (_ : Engine.cancel) =
          Engine.schedule_cancellable e ~delay:nan ignore
        in
        () );
    ( "timer_schedule",
      "Engine.timer_schedule: delay nan is negative or nan",
      fun e -> Engine.timer_schedule e (Engine.timer e ignore) ~delay:nan );
    ( "timer_schedule_at",
      "Engine.timer_schedule_at: time nan is in the past or nan (now 0)",
      fun e -> Engine.timer_schedule_at e (Engine.timer e ignore) ~time:nan );
    ( "lane_schedule",
      "Engine.lane_schedule: delay nan is negative or nan",
      fun e -> Engine.lane_schedule e (Engine.lane e) ~delay:nan ignore );
    ( "lane_schedule_at",
      "Engine.lane_schedule_at: time nan is in the past or nan (now 0)",
      fun e -> Engine.lane_schedule_at e (Engine.lane e) ~time:nan ignore );
    ( "delay_lane",
      "Engine.delay_lane: delay nan is negative or nan",
      fun e -> ignore (Engine.delay_lane e ~delay:nan) );
  ]

let nan_case (name, msg, f) =
  Alcotest.test_case ("nan rejected by " ^ name) `Quick (fun () ->
      let e = Engine.create () in
      Alcotest.check_raises name (Invalid_argument msg) (fun () -> f e);
      Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
      Engine.run e;
      Alcotest.(check int) "nothing fired" 0 (Engine.events_processed e))

(* ---- FIFO lanes -------------------------------------------------------- *)

(* A lane entry that breaks the lane's order falls back to the heap and
   still fires in [(time, seq)] order, ties with heap events included. *)
let test_lane_order () =
  let e = Engine.create () in
  let seen = ref [] in
  let log c () = seen := c :: !seen in
  let l = Engine.lane e in
  Engine.lane_schedule_at e l ~time:2.0 (log 'a');
  Engine.schedule_at e ~time:1.0 (log 'b');
  Engine.lane_schedule_at e l ~time:1.0 (log 'c') (* out of order: heap *);
  Engine.lane_schedule_at e l ~time:2.0 (log 'd');
  Engine.schedule_at e ~time:2.0 (log 'e');
  Alcotest.(check int) "all pending" 5 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (list char))
    "(time, seq) order" [ 'b'; 'c'; 'a'; 'd'; 'e' ] (List.rev !seen);
  Alcotest.(check int) "peak counts lane entries" 5
    (Engine.profile e).Engine.peak_heap

let test_delay_lane_shared () =
  let e = Engine.create () in
  Alcotest.(check bool) "equal delays share a lane" true
    (Engine.delay_lane e ~delay:0.5 == Engine.delay_lane e ~delay:0.5);
  Alcotest.(check bool) "distinct delays do not" false
    (Engine.delay_lane e ~delay:0.5 == Engine.delay_lane e ~delay:0.25)

(* Lane closures capture packets and flows, like heap ones: the ring must
   drop a fired entry's closure, not keep it until the slot is reused. *)
let test_lane_closure_released () =
  let e = Engine.create () in
  let w : bytes Weak.t = Weak.create 1 in
  let l = Engine.delay_lane e ~delay:1.0 in
  (let big = Bytes.create 4096 in
   Weak.set w 0 (Some big);
   Engine.lane_schedule e l ~delay:1.0 (fun () -> ignore (Bytes.length big)));
  Engine.run e;
  Gc.full_major ();
  Alcotest.(check bool) "fired lane closure collected" false (Weak.check w 0);
  (* Used after the collection, so the engine and its lane stay live. *)
  Alcotest.(check int) "fired" 1 (Engine.events_processed e)

(* ---- differential model ----------------------------------------------- *)

(* Random programs run on the engine and on a reference model that keeps
   every pending event in one list sorted by [(time, seq)], with the
   engine's dead-slot accounting and compaction rule. Times come from a
   grid of quarters, so exact ties between lanes and the heap are common;
   lane 2 is the [now +. x] lane, whose pushes go out of order and must
   fall back to the heap. *)

type push =
  | Sched of float
  | Sched_at of float  (* at [now +. x] *)
  | Cancellable of float
  | Lane of int * float  (* constant-delay lane [i], or another delay *)
  | Lane_at of float  (* the [now +. x] lane *)
  | Arm of int * float
  | Arm_at of int * float

type op =
  | Push of push * push option  (* the event pushes the second when fired *)
  | Cancel of int
  | Disarm of int
  | Mass_cancel of int
  | Burst of push * int  (* the push, [n] times *)
  | Run of float * int option

let lane_delays = [| 0.25; 0.5 |]
let n_timers = 3

(* What the program needs of an engine; [observe] is
   [(now, events_processed, pending, peak_heap)]. *)
type sys = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> unit;
  schedule_at : time:float -> (unit -> unit) -> unit;
  cancellable : delay:float -> (unit -> unit) -> unit -> unit;
  lane : int -> delay:float -> (unit -> unit) -> unit;
  lane_at : time:float -> (unit -> unit) -> unit;
  arm : int -> delay:float -> unit;
  arm_at : int -> time:float -> unit;
  disarm : int -> unit;
  run : until:float option -> max_events:int option -> unit;
  observe : unit -> float * int * int * int;
}

let engine_sys fire_timer =
  let e = Engine.create () in
  let lanes = Array.map (fun d -> Engine.delay_lane e ~delay:d) lane_delays in
  let at_lane = Engine.lane e in
  let timers = Array.init n_timers (fun i -> Engine.timer e (fire_timer i)) in
  {
    now = (fun () -> Engine.now e);
    schedule = (fun ~delay f -> Engine.schedule e ~delay f);
    schedule_at = (fun ~time f -> Engine.schedule_at e ~time f);
    cancellable = (fun ~delay f -> Engine.schedule_cancellable e ~delay f);
    lane = (fun i ~delay f -> Engine.lane_schedule e lanes.(i) ~delay f);
    lane_at = (fun ~time f -> Engine.lane_schedule_at e at_lane ~time f);
    arm = (fun i ~delay -> Engine.timer_schedule e timers.(i) ~delay);
    arm_at = (fun i ~time -> Engine.timer_schedule_at e timers.(i) ~time);
    disarm = (fun i -> Engine.timer_cancel e timers.(i));
    run = (fun ~until ~max_events -> Engine.run ?until ?max_events e);
    observe =
      (fun () ->
        ( Engine.now e,
          Engine.events_processed e,
          Engine.pending e,
          (Engine.profile e).Engine.peak_heap ));
  }

type mev = { fn : unit -> unit; mutable live : bool; mutable key_seq : int }

let model_sys fire_timer =
  let slots = ref [] (* sorted [(time, seq, ev)] *) in
  let now = ref 0. and seq = ref 0 and processed = ref 0 in
  let dead = ref 0 and peak = ref 0 in
  let slot_live (_, s, ev) = ev.live && ev.key_seq = s in
  let add time ev =
    let s = !seq in
    incr seq;
    ev.key_seq <- s;
    let rec go = function
      | [] -> [ (time, s, ev) ]
      | ((t', _, _) as hd) :: tl ->
          (* A new seq is the largest yet: it goes after equal times. *)
          if time < t' then (time, s, ev) :: hd :: tl else hd :: go tl
    in
    slots := go !slots;
    peak := max !peak (List.length !slots)
  in
  let maybe_compact () =
    if !dead > 64 && 2 * !dead > List.length !slots then begin
      slots := List.filter slot_live !slots;
      dead := 0
    end
  in
  let kill ev =
    if ev.live then begin
      ev.live <- false;
      incr dead;
      maybe_compact ()
    end
  in
  let one_shot time f = add time { fn = f; live = true; key_seq = 0 } in
  let timers =
    Array.init n_timers (fun i ->
        { fn = fire_timer i; live = false; key_seq = min_int })
  in
  let arm_at i time =
    let ev = timers.(i) in
    if ev.live then incr dead;
    ev.live <- true;
    add time ev;
    maybe_compact ()
  in
  let run ~until ~max_events =
    let horizon = Option.value until ~default:infinity in
    let budget = ref (Option.value max_events ~default:max_int) in
    let continue = ref true and exhausted = ref false in
    while !continue do
      match !slots with
      | [] ->
          exhausted := true;
          continue := false
      | (time, _, ev) :: rest ->
          if time > horizon then begin
            exhausted := true;
            continue := false
          end
          else begin
            let live = slot_live (List.hd !slots) in
            slots := rest;
            decr budget;
            if live then begin
              ev.live <- false;
              now := time;
              incr processed;
              ev.fn ()
            end
            else decr dead;
            if !budget <= 0 then continue := false
          end
    done;
    match until with
    | Some h when !exhausted && h > !now -> now := h
    | _ -> ()
  in
  {
    now = (fun () -> !now);
    schedule = (fun ~delay f -> one_shot (!now +. delay) f);
    schedule_at = (fun ~time f -> one_shot time f);
    cancellable =
      (fun ~delay f ->
        let ev = { fn = f; live = true; key_seq = 0 } in
        add (!now +. delay) ev;
        fun () -> kill ev);
    lane = (fun _ ~delay f -> one_shot (!now +. delay) f);
    lane_at = (fun ~time f -> one_shot time f);
    arm = (fun i ~delay -> arm_at i (!now +. delay));
    arm_at = (fun i ~time -> arm_at i time);
    disarm = (fun i -> kill timers.(i));
    run;
    observe = (fun () -> (!now, !processed, List.length !slots, !peak));
  }

(* The firing log (event ids; timer [i] logs [-1 - i]) and one observation
   after each [Run], ending with a run that drains everything. *)
let interpret make prog =
  let log = ref [] and obs = ref [] in
  let sys = make (fun i () -> log := (-1 - i) :: !log) in
  let next = ref 0 in
  let handles = ref [||] in
  let rec push p follow =
    let id = !next in
    incr next;
    let fire () =
      log := id :: !log;
      Option.iter (fun q -> push q None) follow
    in
    let now = sys.now () in
    match p with
    | Sched d -> sys.schedule ~delay:d fire
    | Sched_at x -> sys.schedule_at ~time:(now +. x) fire
    | Cancellable d ->
        handles := Array.append !handles [| sys.cancellable ~delay:d fire |]
    | Lane (i, d) -> sys.lane i ~delay:d fire
    | Lane_at x -> sys.lane_at ~time:(now +. x) fire
    | Arm (i, d) -> sys.arm i ~delay:d
    | Arm_at (i, x) -> sys.arm_at i ~time:(now +. x)
  in
  let observe () = obs := sys.observe () :: !obs in
  List.iter
    (function
      | Push (p, follow) -> push p follow
      | Cancel k ->
          let h = !handles in
          if Array.length h > 0 then h.(k mod Array.length h) ()
      | Disarm i -> sys.disarm i
      | Mass_cancel n ->
          for _ = 1 to n do
            sys.cancellable ~delay:0.5 ignore ()
          done
      | Burst (p, n) ->
          for _ = 1 to n do
            push p None
          done
      | Run (dt, max_events) ->
          sys.run ~until:(Some (sys.now () +. dt)) ~max_events;
          observe ())
    prog;
  sys.run ~until:None ~max_events:None;
  observe ();
  (List.rev !log, List.rev !obs)

let op_gen =
  let open QCheck.Gen in
  let grid = oneofl [ 0.; 0.25; 0.5; 0.75; 1.0 ] in
  let timer = int_bound (n_timers - 1) in
  let lane =
    int_bound (Array.length lane_delays - 1) >>= fun i ->
    frequency
      [
        (3, return (Lane (i, lane_delays.(i))));
        (1, map (fun d -> Lane (i, d)) grid);
      ]
  in
  let push =
    frequency
      [
        (2, map (fun d -> Sched d) grid);
        (2, map (fun x -> Sched_at x) grid);
        (2, map (fun d -> Cancellable d) grid);
        (4, lane);
        (3, map (fun x -> Lane_at x) grid);
        (1, map2 (fun i d -> Arm (i, d)) timer grid);
        (1, map2 (fun i x -> Arm_at (i, x)) timer grid);
      ]
  in
  frequency
    [
      (8, map2 (fun p f -> Push (p, f)) push (opt ~ratio:0.3 push));
      (2, map (fun k -> Cancel k) nat);
      (1, map (fun i -> Disarm i) timer);
      (1, map (fun n -> Mass_cancel n) (int_range 0 150));
      (1, map2 (fun p n -> Burst (p, n)) push (int_range 0 100));
      ( 3,
        map2
          (fun dt n -> Run (dt, n))
          grid
          (opt ~ratio:0.5 (int_range 1 6)) );
    ]

let show_push = function
  | Sched d -> Printf.sprintf "Sched %g" d
  | Sched_at x -> Printf.sprintf "Sched_at +%g" x
  | Cancellable d -> Printf.sprintf "Cancellable %g" d
  | Lane (i, d) -> Printf.sprintf "Lane %d %g" i d
  | Lane_at x -> Printf.sprintf "Lane_at +%g" x
  | Arm (i, d) -> Printf.sprintf "Arm %d %g" i d
  | Arm_at (i, x) -> Printf.sprintf "Arm_at %d +%g" i x

let show_op = function
  | Push (p, None) -> show_push p
  | Push (p, Some q) -> Printf.sprintf "%s then %s" (show_push p) (show_push q)
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Disarm i -> Printf.sprintf "Disarm %d" i
  | Mass_cancel n -> Printf.sprintf "Mass_cancel %d" n
  | Burst (p, n) -> Printf.sprintf "%d x %s" n (show_push p)
  | Run (dt, n) ->
      Printf.sprintf "Run +%g%s" dt
        (match n with None -> "" | Some n -> Printf.sprintf " max %d" n)

let prop_engine_matches_model =
  QCheck.Test.make ~name:"Engine with lanes matches a sorted-list model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       QCheck.Gen.(list_size (int_range 0 150) op_gen))
    (fun prog -> interpret engine_sys prog = interpret model_sys prog)

let test_events_processed () =
  let e = Engine.create () in
  for _ = 1 to 7 do
    Engine.schedule e ~delay:0.1 ignore
  done;
  Engine.run e;
  Alcotest.(check int) "count" 7 (Engine.events_processed e)

let suite =
  [
    Alcotest.test_case "time advances" `Quick test_time_advances;
    Alcotest.test_case "FIFO same time" `Quick test_fifo_same_time;
    Alcotest.test_case "nested scheduling" `Quick test_nested_scheduling;
    Alcotest.test_case "cancellation" `Quick test_cancellation;
    Alcotest.test_case "cancel idempotent" `Quick test_cancel_idempotent;
    Alcotest.test_case "stop and resume" `Quick test_stop;
    Alcotest.test_case "until horizon" `Quick test_until;
    Alcotest.test_case "until advances clock" `Quick test_until_advances_clock;
    Alcotest.test_case "stop beats horizon clamp" `Quick test_stop_beats_horizon_clamp;
    Alcotest.test_case "FIFO ties across chunked runs" `Quick
      test_fifo_ties_across_chunked_runs;
    Alcotest.test_case "max events" `Quick test_max_events;
    Alcotest.test_case "max events counts dead pops" `Quick
      test_max_events_counts_dead_pops;
    Alcotest.test_case "lazy compaction" `Quick test_lazy_compaction;
    Alcotest.test_case "stale cancel handle is inert" `Quick
      test_stale_cancel_handle_is_inert;
    Alcotest.test_case "cancelled closure released" `Quick
      test_cancelled_closure_released;
    Alcotest.test_case "timer fire and re-arm" `Quick test_timer_fire_and_rearm;
    Alcotest.test_case "timer reschedule supersedes" `Quick
      test_timer_reschedule_supersedes;
    Alcotest.test_case "timer cancel and re-arm" `Quick
      test_timer_cancel_and_rearm;
    Alcotest.test_case "timer re-arm in handler" `Quick
      test_timer_rearm_in_handler;
    Alcotest.test_case "timer reschedule FIFO order" `Quick
      test_timer_reschedule_fifo_order;
    Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "lane order" `Quick test_lane_order;
    Alcotest.test_case "delay lane shared" `Quick test_delay_lane_shared;
    Alcotest.test_case "lane closure released" `Quick
      test_lane_closure_released;
  ]
  @ List.map nan_case nan_entry_points
  @ [ Qseed.to_alcotest prop_engine_matches_model ]
