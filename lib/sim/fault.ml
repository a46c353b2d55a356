(* Deterministic fault injection: a declarative schedule of link outages,
   node crashes and control-plane loss windows, armed as ordinary engine
   events. The plane owns no randomness — control-plane loss only adjusts a
   probability that the arbitration layer samples from its own seeded
   stream — so a fault schedule replays byte-identically under the engine
   determinism contract. *)

type node_ref =
  | Host of int
  | Tor of int
  | Agg of int
  | Core of int
  | Node of int  (* raw node id, for hand-built topologies *)

type event =
  | Link_down of { a : node_ref; b : node_ref; at : float; up_at : float option }
  | Link_flap of {
      a : node_ref;
      b : node_ref;
      at : float;
      down_s : float;  (* hold time down, per flap *)
      up_s : float;  (* hold time up between flaps *)
      count : int;
    }
  | Crash of { node : node_ref; at : float; restart_at : float option }
  | Ctrl_loss of { at : float; until_s : float; prob : float }

type stats = {
  mutable transitions : int;  (* directed-link state changes applied *)
  mutable link_down_events : int;  (* undirected pairs taken down *)
  mutable crash_events : int;
  mutable downtime_s : float;  (* summed per undirected pair *)
}

type t = {
  topo : Topology.t;
  events : event list;
  on_crash : int -> unit;
  on_restart : int -> unit;
  on_ctrl_loss : float option -> unit;
  on_link : int -> int -> up:bool -> unit;
  crashed : (int, unit) Hashtbl.t;
  down_since : (int * int, float) Hashtbl.t;  (* normalized pair -> time *)
  stats : stats;
}

let node_ref_to_string = function
  | Host i -> Printf.sprintf "host%d" i
  | Tor i -> Printf.sprintf "tor%d" i
  | Agg i -> Printf.sprintf "agg%d" i
  | Core i -> Printf.sprintf "core%d" i
  | Node i -> Printf.sprintf "node%d" i

(* Canonical, locale-independent rendering: doubles as the cache-key
   contribution ([spec_key]), so it must round-trip floats exactly. *)
let event_to_string = function
  | Link_down { a; b; at; up_at } ->
      Printf.sprintf "down:a=%s,b=%s,at=%.17g%s" (node_ref_to_string a)
        (node_ref_to_string b) at
        (match up_at with
        | None -> ""
        | Some u -> Printf.sprintf ",up=%.17g" u)
  | Link_flap { a; b; at; down_s; up_s; count } ->
      Printf.sprintf "flap:a=%s,b=%s,at=%.17g,down=%.17g,up=%.17g,count=%d"
        (node_ref_to_string a) (node_ref_to_string b) at down_s up_s count
  | Crash { node; at; restart_at } ->
      Printf.sprintf "crash:node=%s,at=%.17g%s" (node_ref_to_string node) at
        (match restart_at with
        | None -> ""
        | Some r -> Printf.sprintf ",restart=%.17g" r)
  | Ctrl_loss { at; until_s; prob } ->
      Printf.sprintf "ctrl:at=%.17g,until=%.17g,p=%.17g" at until_s prob

let spec_key events = String.concat ";" (List.map event_to_string events)

let resolve topo r =
  let pick name (arr : int array) i =
    if i < 0 || i >= Array.length arr then
      invalid_arg
        (Printf.sprintf "Fault: no such node %s%d (have %d)" name i
           (Array.length arr))
    else arr.(i)
  in
  match r with
  | Host i -> pick "host" topo.Topology.hosts i
  | Tor i -> pick "tor" topo.Topology.tors i
  | Agg i -> pick "agg" topo.Topology.aggs i
  | Core i -> pick "core" topo.Topology.cores i
  | Node i ->
      if i < 0 || i >= Net.node_count topo.Topology.net then
        invalid_arg (Printf.sprintf "Fault: no such node node%d" i)
      else i

let validate topo ev =
  let non_neg what v =
    if v < 0. || Float.is_nan v then
      invalid_arg (Printf.sprintf "Fault: %s must be non-negative" what)
  in
  let positive what v =
    if v <= 0. || Float.is_nan v then
      invalid_arg (Printf.sprintf "Fault: %s must be positive" what)
  in
  let check_link a b =
    let na = resolve topo a and nb = resolve topo b in
    match Net.link_from topo.Topology.net na nb with
    | Some _ -> ()
    | None ->
        invalid_arg
          (Printf.sprintf "Fault: %s and %s are not adjacent"
             (node_ref_to_string a) (node_ref_to_string b))
  in
  match ev with
  | Link_down { a; b; at; up_at } ->
      check_link a b;
      non_neg "at" at;
      Option.iter
        (fun u ->
          if u <= at then invalid_arg "Fault: link up time must follow down")
        up_at
  | Link_flap { a; b; at; down_s; up_s; count } ->
      check_link a b;
      non_neg "at" at;
      positive "down hold" down_s;
      positive "up hold" up_s;
      if count < 1 then invalid_arg "Fault: flap count must be >= 1"
  | Crash { node; at; restart_at } ->
      ignore (resolve topo node);
      non_neg "at" at;
      Option.iter
        (fun r ->
          if r <= at then invalid_arg "Fault: restart time must follow crash")
        restart_at
  | Ctrl_loss { at; until_s; prob } ->
      non_neg "at" at;
      positive "until" until_s;
      if prob < 0. || prob > 1. || Float.is_nan prob then
        invalid_arg "Fault: loss probability must be in [0, 1]"

let create topo ?(on_crash = ignore) ?(on_restart = ignore)
    ?(on_ctrl_loss = ignore) ?(on_link = fun _ _ ~up:_ -> ()) events =
  List.iter (validate topo) events;
  {
    topo;
    events;
    on_crash;
    on_restart;
    on_ctrl_loss;
    on_link;
    crashed = Hashtbl.create 8;
    down_since = Hashtbl.create 8;
    stats = { transitions = 0; link_down_events = 0; crash_events = 0;
              downtime_s = 0. };
  }

let engine t = Net.engine t.topo.Topology.net

let set_direction t a b up =
  match Net.link_from t.topo.Topology.net a b with
  | None -> ()
  | Some l ->
      if Link.is_up l <> up then begin
        Link.set_up l up;
        t.stats.transitions <- t.stats.transitions + 1;
        if Trace.on () then Trace.emit (Trace.Link_state { link = (a, b); up })
      end

let set_link t a b up =
  let pair = (min a b, max a b) in
  let now = Engine.now (engine t) in
  (if up then (
     match Hashtbl.find_opt t.down_since pair with
     | Some since ->
         t.stats.downtime_s <- t.stats.downtime_s +. (now -. since);
         Hashtbl.remove t.down_since pair
     | None -> ())
   else if not (Hashtbl.mem t.down_since pair) then begin
     Hashtbl.replace t.down_since pair now;
     t.stats.link_down_events <- t.stats.link_down_events + 1
   end);
  set_direction t a b up;
  set_direction t b a up;
  t.on_link a b ~up

let crash t node =
  if not (Hashtbl.mem t.crashed node) then begin
    Hashtbl.replace t.crashed node ();
    t.stats.crash_events <- t.stats.crash_events + 1;
    t.on_crash node
  end

let restart t node =
  if Hashtbl.mem t.crashed node then begin
    Hashtbl.remove t.crashed node;
    t.on_restart node
  end

let arm t =
  let e = engine t in
  let at time f =
    Engine.schedule_at ~label:"fault" e ~time:(Float.max time (Engine.now e)) f
  in
  List.iter
    (fun ev ->
      match ev with
      | Link_down { a; b; at = t0; up_at } ->
          let na = resolve t.topo a and nb = resolve t.topo b in
          at t0 (fun () -> set_link t na nb false);
          Option.iter (fun u -> at u (fun () -> set_link t na nb true)) up_at
      | Link_flap { a; b; at = t0; down_s; up_s; count } ->
          let na = resolve t.topo a and nb = resolve t.topo b in
          for i = 0 to count - 1 do
            let base = t0 +. (float_of_int i *. (down_s +. up_s)) in
            at base (fun () -> set_link t na nb false);
            at (base +. down_s) (fun () -> set_link t na nb true)
          done
      | Crash { node; at = t0; restart_at } ->
          let n = resolve t.topo node in
          at t0 (fun () -> crash t n);
          Option.iter (fun r -> at r (fun () -> restart t n)) restart_at
      | Ctrl_loss { at = t0; until_s; prob } ->
          at t0 (fun () -> t.on_ctrl_loss (Some prob));
          at (t0 +. until_s) (fun () -> t.on_ctrl_loss None))
    t.events

(* Close open downtime intervals at the current virtual time so the metric
   covers crashes that never healed. Sorted traversal: float accumulation
   order must not depend on hash layout. *)
let finish t =
  let now = Engine.now (engine t) in
  Det_tbl.iter
    (fun _pair since -> t.stats.downtime_s <- t.stats.downtime_s +. (now -. since))
    t.down_since;
  Hashtbl.reset t.down_since

let stats t = t.stats
let count events = List.length events

(* ---- textual schedules -------------------------------------------------- *)

(* Grammar (semicolon-separated events, comma-separated key=value fields):
     down:a=<node>,b=<node>,at=<s>[,up=<s>]
     flap:a=<node>,b=<node>,at=<s>,down=<s>,up=<s>,count=<n>
     crash:node=<node>,at=<s>[,restart=<s>]
     ctrl:at=<s>,until=<s>,p=<prob>
   where <node> is host<i>, tor<i>, agg<i>, core<i> or node<i>. *)

let parse_node_ref s =
  let tagged tag mk =
    let n = String.length tag in
    if String.length s > n && String.sub s 0 n = tag then
      match int_of_string_opt (String.sub s n (String.length s - n)) with
      | Some i when i >= 0 -> Some (mk i)
      | Some _ | None -> None
    else None
  in
  let first_some l = List.find_map (fun f -> f ()) l in
  first_some
    [
      (fun () -> tagged "host" (fun i -> Host i));
      (fun () -> tagged "tor" (fun i -> Tor i));
      (fun () -> tagged "agg" (fun i -> Agg i));
      (fun () -> tagged "core" (fun i -> Core i));
      (fun () -> tagged "node" (fun i -> Node i));
    ]

let parse_fields s =
  List.fold_left
    (fun acc item ->
      match (acc, String.trim item) with
      | Error _, _ | Ok _, "" -> acc
      | Ok fields, item -> (
          match String.index_opt item '=' with
          | None -> Error item
          | Some i ->
              let k = String.sub item 0 i in
              let v = String.sub item (i + 1) (String.length item - i - 1) in
              Ok ((k, v) :: fields)))
    (Ok [])
    (String.split_on_char ',' s)
  |> Result.map List.rev

(* A repeated key takes its last value. *)
let field fields k = List.assoc_opt k (List.rev fields)

let float_field fields k =
  match field fields k with
  | None -> Error (Printf.sprintf "missing field %S" k)
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "field %S: bad number %S" k v))

let opt_float_field fields k =
  match field fields k with
  | None -> Ok None
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "field %S: bad number %S" k v))

let int_field fields k =
  match field fields k with
  | None -> Error (Printf.sprintf "missing field %S" k)
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "field %S: bad integer %S" k v))

let node_field fields k =
  match field fields k with
  | None -> Error (Printf.sprintf "missing field %S" k)
  | Some v -> (
      match parse_node_ref v with
      | Some r -> Ok r
      | None -> Error (Printf.sprintf "field %S: bad node ref %S" k v))

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_event s =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "expected <kind>:<fields>, got %S" s)
  | Some i -> (
      let kind = String.sub s 0 i in
      let* fields =
        parse_fields (String.sub s (i + 1) (String.length s - i - 1))
        |> Result.map_error (Printf.sprintf "expected key=value, got %S")
      in
      match kind with
      | "down" ->
          let* a = node_field fields "a" in
          let* b = node_field fields "b" in
          let* at = float_field fields "at" in
          let* up_at = opt_float_field fields "up" in
          Ok (Link_down { a; b; at; up_at })
      | "flap" ->
          let* a = node_field fields "a" in
          let* b = node_field fields "b" in
          let* at = float_field fields "at" in
          let* down_s = float_field fields "down" in
          let* up_s = float_field fields "up" in
          let* count = int_field fields "count" in
          Ok (Link_flap { a; b; at; down_s; up_s; count })
      | "crash" ->
          let* node = node_field fields "node" in
          let* at = float_field fields "at" in
          let* restart_at = opt_float_field fields "restart" in
          Ok (Crash { node; at; restart_at })
      | "ctrl" ->
          let* at = float_field fields "at" in
          let* until_s = float_field fields "until" in
          let* prob = float_field fields "p" in
          Ok (Ctrl_loss { at; until_s; prob })
      | _ -> Error (Printf.sprintf "unknown fault kind %S" kind))

let parse s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty fault schedule"
  else
    List.fold_left
      (fun acc p ->
        match acc with
        | Error _ -> acc
        | Ok evs -> (
            match parse_event p with
            | Ok ev -> Ok (ev :: evs)
            | Error e -> Error e))
      (Ok []) parts
    |> Result.map List.rev
