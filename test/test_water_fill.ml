(* The fluid tier's water-fill ([Water_fill]) against the list-based pass
   it replaced, kept here as the oracle (verbatim but for the monotone
   step-share clamp both now apply), on random flow sets over
   a k=4 fat-tree with random packet-tier counts and one downed link; and
   the max-min certificate on its result. *)

(* ---- oracle: the former [Fluid.allocate], on test-local records -------- *)

type entry = {
  rate_bps : float;  (* the link's rate *)
  up : bool;
  mutable n_fluid : int;
  mutable n_pkt : int;
  mutable rem : float;
  mutable cnt : int;
  mutable bott : bool;
  mutable bott_any : bool;
  mutable fluid_bps : float;
}

type fflow = { path : entry array; mutable rate : float; mutable frozen : bool }

(* [fls] in flow order, [entries] in link order. *)
let allocate fls entries =
  List.iter
    (fun f ->
      f.frozen <- false;
      f.rate <- 0.)
    fls;
  let parts =
    List.filter_map
      (fun e ->
        if e.n_fluid > 0 then begin
          let share =
            float_of_int e.n_fluid /. float_of_int (e.n_fluid + e.n_pkt)
          in
          e.rem <- (if e.up then e.rate_bps *. share else 0.);
          e.cnt <- e.n_fluid;
          e.bott <- false;
          e.bott_any <- false;
          e.fluid_bps <- 0.;
          Some e
        end
        else None)
      entries
  in
  let unfrozen = ref (List.length fls) in
  let prev = ref 0. in
  while !unfrozen > 0 do
    let key =
      List.fold_left
        (fun acc e ->
          if e.cnt > 0 then Float.min acc (e.rem /. float_of_int e.cnt) else acc)
        infinity parts
    in
    if key = infinity then begin
      List.iter (fun f -> f.frozen <- true) fls;
      unfrozen := 0
    end
    else begin
      (* Monotone step shares, as in [Water_fill.run]; ties on the raw
         key. *)
      let s = Float.max !prev (Float.max 0. key) in
      prev := s;
      List.iter
        (fun e ->
          if e.cnt > 0 && e.rem /. float_of_int e.cnt = key then begin
            e.bott <- true;
            e.bott_any <- true
          end)
        parts;
      List.iter
        (fun f ->
          if (not f.frozen) && Array.exists (fun e -> e.bott) f.path then begin
            f.frozen <- true;
            f.rate <- s;
            decr unfrozen;
            Array.iter
              (fun e ->
                e.rem <- Float.max 0. (e.rem -. s);
                e.cnt <- e.cnt - 1)
              f.path
          end)
        fls;
      List.iter (fun e -> e.bott <- false) parts
    end
  done;
  List.iter
    (fun f -> Array.iter (fun e -> e.fluid_bps <- e.fluid_bps +. f.rate) f.path)
    fls

(* ---- random instances on a k=4 fat-tree --------------------------------- *)

let fabric =
  lazy
    (let e = Engine.create () in
     let c = Counters.create () in
     let topo =
       Topology.fat_tree e c ~k:4 ~rate_bps:1e9 ~link_delay_s:10e-6
         ~qdisc:(fun ~rate_bps:_ -> Queue_disc.droptail c ~limit_pkts:100)
     in
     let net = topo.Topology.net in
     let links = Array.of_list (Net.links net) in
     let index = Hashtbl.create 64 in
     Array.iteri (fun i (a, b, _) -> Hashtbl.replace index (a, b) i) links;
     (net, topo.Topology.hosts, links, index))

type instance = {
  paths : int array array;  (* per flow, link indices *)
  n_pkt : int array;  (* per link *)
  down : int;  (* the downed link *)
}

let gen_instance =
  let open QCheck.Gen in
  let net, hosts, links, index = Lazy.force fabric in
  let nh = Array.length hosts and nl = Array.length links in
  let flow =
    map
      (fun (src, d) ->
        let dst = (src + 1 + d) mod nh in
        (src, dst))
      (pair (int_bound (nh - 1)) (int_bound (nh - 2)))
  in
  map
    (fun ((flows, n_pkt), down) ->
      let paths =
        Array.of_list
          (List.mapi
             (fun id (src, dst) ->
               let rec hops = function
                 | a :: (b :: _ as rest) -> Hashtbl.find index (a, b) :: hops rest
                 | _ -> []
               in
               Array.of_list (hops (Net.route net ~flow:id ~src:hosts.(src) ~dst:hosts.(dst) ())))
             flows)
      in
      { paths; n_pkt = Array.of_list n_pkt; down })
    (pair
       (pair (list_size (int_range 1 120) flow) (list_repeat nl (int_bound 3)))
       (int_bound (nl - 1)))

let arb_instance =
  QCheck.make
    ~print:(fun i ->
      Printf.sprintf "%d flows, link %d down" (Array.length i.paths) i.down)
    gen_instance

let solve i =
  let _, _, links, _ = Lazy.force fabric in
  let nl = Array.length links in
  let n_fluid = Array.make nl 0 in
  Array.iter (Array.iter (fun l -> n_fluid.(l) <- n_fluid.(l) + 1)) i.paths;
  let caps =
    Array.init nl (fun l ->
        let _, _, link = links.(l) in
        if n_fluid.(l) > 0 && l <> i.down then
          Link.rate_bps link
          *. (float_of_int n_fluid.(l) /. float_of_int (n_fluid.(l) + i.n_pkt.(l)))
        else 0.)
  in
  let wf = Water_fill.create () in
  Water_fill.run wf ~caps ~n_links:nl ~paths:i.paths ~n_flows:(Array.length i.paths);
  (caps, wf)

let bits = Int64.bits_of_float

let prop_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"water-fill matches the list-based pass"
    arb_instance (fun i ->
      let _, _, links, _ = Lazy.force fabric in
      let entries =
        Array.mapi
          (fun l (_, _, link) ->
            {
              rate_bps = Link.rate_bps link;
              up = l <> i.down;
              n_fluid = 0;
              n_pkt = i.n_pkt.(l);
              rem = 0.;
              cnt = 0;
              bott = false;
              bott_any = false;
              fluid_bps = 0.;
            })
          links
      in
      let fls =
        Array.map
          (fun p ->
            Array.iter (fun l -> entries.(l).n_fluid <- entries.(l).n_fluid + 1) p;
            { path = Array.map (fun l -> entries.(l)) p; rate = 0.; frozen = false })
          i.paths
      in
      allocate (Array.to_list fls) (Array.to_list entries);
      let _, wf = solve i in
      Array.iteri
        (fun k f ->
          if bits f.rate <> bits (Water_fill.rate wf k) then
            QCheck.Test.fail_reportf "flow %d: rate %h, oracle %h" k
              (Water_fill.rate wf k) f.rate)
        fls;
      Array.iteri
        (fun l e ->
          if bits e.fluid_bps <> bits (Water_fill.link_bps wf l) then
            QCheck.Test.fail_reportf "link %d: fluid_bps differs" l;
          if e.n_fluid > 0 && e.bott_any <> Water_fill.bottleneck wf l then
            QCheck.Test.fail_reportf "link %d: bottleneck flag differs" l)
        entries;
      true)

(* Max-min certificate: every flow crosses a saturated link on which no
   flow gets more than it. *)
let prop_max_min =
  QCheck.Test.make ~count:300 ~name:"water-fill is max-min fair" arb_instance
    (fun i ->
      let caps, wf = solve i in
      let nl = Array.length caps in
      let top = Array.make nl 0. in
      Array.iteri
        (fun k p -> Array.iter (fun l -> top.(l) <- Float.max top.(l) (Water_fill.rate wf k)) p)
        i.paths;
      let saturated l = Water_fill.link_bps wf l >= (caps.(l) *. (1. -. 1e-9)) -. 1e-6 in
      Array.iteri
        (fun k p ->
          let r = Water_fill.rate wf k in
          if not (Array.exists (fun l -> saturated l && r >= top.(l)) p) then
            QCheck.Test.fail_reportf "flow %d (rate %g) has no bottleneck" k r)
        i.paths;
      Array.iteri
        (fun l cap ->
          if Water_fill.link_bps wf l > cap *. (1. +. 1e-9) then
            QCheck.Test.fail_reportf "link %d over capacity" l)
        caps;
      true)

let suite =
  [
    Qseed.to_alcotest prop_matches_oracle;
    Qseed.to_alcotest prop_max_min;
  ]
