(* Aggregation of per-flow delay-attribution records (Delay.record) into
   per-band, per-component summaries: a Welford accumulator for moments and
   extremes, a t-digest for quantiles, and a running sum so attribution
   totals can be reconciled against the AFCT (sum of fct components over
   completed flows = sum of fcts, exactly, by the Delay invariant).

   Bands follow the paper's workload taxonomy by flow size in segments:
   short < 10, medium < 100, long >= 100, plus an "all" band. The structure
   is closure-free so it survives Marshal across the fork-parallel runner. *)

type comp_agg = { moments : Welford.t; digest : Tdigest.t; mutable sum : float }

type band_agg = {
  band : string;
  lo : int;
  hi : int;  (* size_pkts in [lo, hi) falls in this band; max_int = open *)
  comps : comp_agg array;
}

type t = { bands : band_agg array }

let components =
  [| "serialization"; "propagation"; "queueing"; "arb_wait"; "rto_stall"; "fct" |]

let n_components = Array.length components

let band_specs =
  [| ("all", 0, max_int); ("short", 0, 10); ("medium", 10, 100); ("long", 100, max_int) |]

let create () =
  {
    bands =
      Array.map
        (fun (band, lo, hi) ->
          {
            band;
            lo;
            hi;
            comps =
              Array.init n_components (fun _ ->
                  { moments = Welford.create (); digest = Tdigest.create (); sum = 0. });
          })
        band_specs;
  }

let comp_values (r : Delay.record) =
  [|
    r.Delay.serialization;
    r.Delay.propagation;
    r.Delay.queueing;
    r.Delay.arb_wait;
    r.Delay.rto_stall;
    r.Delay.fct;
  |]

let add t ~size_pkts (r : Delay.record) =
  let vs = comp_values r in
  Array.iter
    (fun b ->
      if size_pkts >= b.lo && size_pkts < b.hi then
        Array.iteri
          (fun i c ->
            let v = vs.(i) in
            Welford.add c.moments v;
            Tdigest.add c.digest v;
            c.sum <- c.sum +. v)
          b.comps)
    t.bands

let flows t =
  (* every record lands in band 0 ("all"); any component's count works *)
  Welford.count t.bands.(0).comps.(0).moments

let component_sum t ~band ~component =
  let bi = Array.to_list t.bands in
  match List.find_opt (fun b -> b.band = band) bi with
  | None -> nan
  | Some b -> (
      match Array.find_index (fun c -> c = component) components with
      | None -> nan
      | Some i -> b.comps.(i).sum)

(* JSON with fixed key order and Json's writers, matching the
   conventions of Result_codec so the attrib object slots into codec v6. *)

let comp_json c =
  let n = Welford.count c.moments in
  if n = 0 then {|{"count":0}|}
  else
    Printf.sprintf
      {|{"count":%d,"sum":%s,"mean":%s,"min":%s,"max":%s,"p50":%s,"p90":%s,"p99":%s}|}
      n (Json.float c.sum)
      (Json.float (Welford.mean c.moments))
      (Json.float (Welford.min c.moments))
      (Json.float (Welford.max c.moments))
      (Json.float (Tdigest.quantile c.digest 0.5))
      (Json.float (Tdigest.quantile c.digest 0.9))
      (Json.float (Tdigest.quantile c.digest 0.99))

let band_json b =
  let flows = Welford.count b.comps.(0).moments in
  let comps =
    String.concat ","
      (List.init n_components (fun i ->
           Printf.sprintf {|"%s":%s|} components.(i) (comp_json b.comps.(i))))
  in
  Printf.sprintf {|{"band":"%s","flows":%d,"components":{%s}}|} b.band flows
    comps

let to_json t =
  Printf.sprintf {|{"bands":[%s]}|}
    (String.concat "," (Array.to_list (Array.map band_json t.bands)))
