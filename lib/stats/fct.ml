type record = {
  flow : int;
  size_pkts : int;
  start_time : float;
  fct : float;
  deadline : float option;
  censored : bool;
  ideal : float option;
  task : int option;
  fluid : bool;
      (* hybrid fidelity tag: the classifier marked this flow fluid-eligible
         (part of its bytes may have been advanced analytically). Always
         false outside hybrid-configured runs. *)
}

(* Streaming aggregates: constant memory in the flow count. Completed
   (non-censored) FCTs and slowdowns each get an exact Welford accumulator
   plus a t-digest for quantiles; a seeded reservoir of whole records is
   the exact-sample fallback; deadline aggregates are maintained
   incrementally (exact). No closures anywhere: the whole value must
   survive Result_codec's Marshal round-trip. *)
type stream = {
  fcts : Welford.t;
  fct_sketch : Tdigest.t;
  slow : Welford.t;
  slow_sketch : Tdigest.t;
  sample : record Reservoir.t;
  mutable deadline_met : int;
  mutable deadline_total : int;
}

(* One task group (incast query or coflow job), built up as its member
   records arrive. Both modes keep the table: memory is bounded by the task
   count, not the flow count. *)
type group = {
  mutable first_start : float;
  mutable last_end : float;
  mutable members : int;
  mutable any_censored : bool;
  mutable min_deadline : float option;
}

type store = Exact of { mutable records : record list } | Stream of stream

type t = {
  store : store;
  tasks : (int, group) Hashtbl.t;
  mutable n : int;
  mutable censored_n : int;
}

let make store = { store; tasks = Hashtbl.create 16; n = 0; censored_n = 0 }
let create () = make (Exact { records = [] })

let default_reservoir = 2048
let default_delta = 200.
let default_seed = 0x7a5e

let create_streaming ?(reservoir = default_reservoir) ?(delta = default_delta)
    ?(seed = default_seed) () =
  make
    (Stream
       {
         fcts = Welford.create ();
         fct_sketch = Tdigest.create ~delta ();
         slow = Welford.create ();
         slow_sketch = Tdigest.create ~delta ();
         sample = Reservoir.create ~k:reservoir ~seed;
         deadline_met = 0;
         deadline_total = 0;
       })

let stream_observe s r =
  Reservoir.add s.sample r;
  (match r.deadline with
  | Some d ->
      s.deadline_total <- s.deadline_total + 1;
      if (not r.censored) && r.fct <= d then s.deadline_met <- s.deadline_met + 1
  | None -> ());
  if not r.censored then begin
    Welford.add s.fcts r.fct;
    Tdigest.add s.fct_sketch r.fct;
    match r.ideal with
    | Some ideal when ideal > 0. ->
        Welford.add s.slow (r.fct /. ideal);
        Tdigest.add s.slow_sketch (r.fct /. ideal)
    | _ -> ()
  end

let group_observe tasks task r =
  let g =
    match Hashtbl.find_opt tasks task with
    | Some g -> g
    | None ->
        let g =
          {
            first_start = infinity;
            last_end = neg_infinity;
            members = 0;
            any_censored = false;
            min_deadline = None;
          }
        in
        Hashtbl.replace tasks task g;
        g
  in
  g.members <- g.members + 1;
  if r.start_time < g.first_start then g.first_start <- r.start_time;
  let finish = r.start_time +. r.fct in
  if finish > g.last_end then g.last_end <- finish;
  if r.censored then g.any_censored <- true;
  match (r.deadline, g.min_deadline) with
  | Some d, Some d0 -> g.min_deadline <- Some (Float.min d0 d)
  | Some d, None -> g.min_deadline <- Some d
  | None, _ -> ()

let add_record t r =
  (match t.store with
  | Exact e -> e.records <- r :: e.records
  | Stream s -> stream_observe s r);
  (match r.task with Some task -> group_observe t.tasks task r | None -> ());
  t.n <- t.n + 1;
  if r.censored then t.censored_n <- t.censored_n + 1

let add t ~flow ~size_pkts ~start_time ~fct ?deadline ?(censored = false)
    ?ideal ?task ?(fluid = false) () =
  add_record t
    { flow; size_pkts; start_time; fct; deadline; censored; ideal; task; fluid }

let records t =
  match t.store with
  | Exact e -> List.rev e.records
  | Stream s ->
      (* The reservoir's retained sample, in flow order for stable output. *)
      List.sort
        (fun a b -> Int.compare a.flow b.flow)
        (Reservoir.sample s.sample)

let count t = t.n
let censored_count t = t.censored_n

let completed_fcts t =
  match t.store with
  | Exact e ->
      List.filter_map (fun r -> if r.censored then None else Some r.fct) e.records
  | Stream _ ->
      List.filter_map
        (fun r -> if r.censored then None else Some r.fct)
        (records t)

let afct t =
  match t.store with
  | Exact _ -> Summary.mean (completed_fcts t)
  | Stream s -> Welford.mean s.fcts

let percentile t p =
  match t.store with
  | Exact _ -> Summary.percentile p (completed_fcts t)
  | Stream s ->
      if p < 0. || p > 100. then
        invalid_arg "Fct.percentile: p out of range";
      if Tdigest.count s.fct_sketch = 0 then nan
      else Tdigest.quantile s.fct_sketch (p /. 100.)

(* Short-flow accuracy metric for the hybrid engine: a percentile over the
   completed flows the classifier left entirely at packet level. The tag is
   assigned by the classifier (not by what the engine actually did), so a
   hybrid run and a pure packet run with the same threshold cut the same
   subset and their percentiles are directly comparable. Exact mode scans
   all records; streaming mode estimates from the reservoir sample. *)
let packet_tier_percentile t p =
  Summary.percentile p
    (List.filter_map
       (fun r -> if r.censored || r.fluid then None else Some r.fct)
       (records t))

let cdf ?(points = 100) t =
  match t.store with
  | Exact _ -> Summary.cdf ~points (completed_fcts t)
  | Stream s ->
      if Tdigest.count s.fct_sketch = 0 then []
      else
        List.init points (fun i ->
            let q = float_of_int (i + 1) /. float_of_int points in
            (Tdigest.quantile s.fct_sketch q, q))

let quantile_rank_error t p =
  match t.store with
  | Exact _ -> 0.
  | Stream s ->
      if Tdigest.count s.fct_sketch = 0 then nan
      else Tdigest.rank_error s.fct_sketch (p /. 100.)

let deadline_met_fraction t =
  match t.store with
  | Exact e ->
      let met, total =
        List.fold_left
          (fun (met, total) r ->
            match r.deadline with
            | None -> (met, total)
            | Some d ->
                let ok = (not r.censored) && r.fct <= d in
                ((met + if ok then 1 else 0), total + 1))
          (0, 0) e.records
      in
      if total = 0 then nan else float_of_int met /. float_of_int total
  | Stream s ->
      if s.deadline_total = 0 then nan
      else float_of_int s.deadline_met /. float_of_int s.deadline_total

let bucket_fcts t ~lo ~hi =
  let from_records rs =
    List.filter_map
      (fun r ->
        if (not r.censored) && r.size_pkts >= lo && r.size_pkts < hi then
          Some r.fct
        else None)
      rs
  in
  match t.store with
  | Exact e -> from_records e.records
  | Stream _ -> from_records (records t)

let bucket_afct t ~lo ~hi = Summary.mean (bucket_fcts t ~lo ~hi)
let bucket_count t ~lo ~hi = List.length (bucket_fcts t ~lo ~hi)

let slowdowns t =
  let from_records rs =
    List.filter_map
      (fun r ->
        match r.ideal with
        | Some ideal when (not r.censored) && ideal > 0. -> Some (r.fct /. ideal)
        | _ -> None)
      rs
  in
  match t.store with
  | Exact e -> from_records e.records
  | Stream _ -> from_records (records t)

let mean_slowdown t =
  match t.store with
  | Exact _ -> Summary.mean (slowdowns t)
  | Stream s -> Welford.mean s.slow

let p99_slowdown t =
  match t.store with
  | Exact _ -> (
      match slowdowns t with [] -> nan | xs -> Summary.percentile 99. xs)
  | Stream s ->
      if Tdigest.count s.slow_sketch = 0 then nan
      else Tdigest.quantile s.slow_sketch 0.99

let task_completion_times t =
  Det_tbl.fold
    (fun _ g acc ->
      if g.any_censored then acc else (g.last_end -. g.first_start) :: acc)
    t.tasks []

(* All-workers-finish: CCT spans the group's first start to its last
   member's finish. Sorted task order makes t-digest insertion, and so
   every published quantile, byte-stable across runs and processes. *)
let coflow t =
  if Hashtbl.length t.tasks = 0 then None
  else begin
    let agg = Coflow.create () in
    Det_tbl.iter
      (fun _ g ->
        Coflow.observe agg
          ~cct:(Float.max 0. (g.last_end -. g.first_start))
          ~width:g.members ~censored:g.any_censored ~deadline:g.min_deadline)
      t.tasks;
    Some agg
  end

type sketch_info = {
  sk_delta : float;
  sk_centroids : int;
  sk_reservoir_len : int;
  sk_reservoir_seen : int;
}

let sketch_info t =
  match t.store with
  | Exact _ -> None
  | Stream s ->
      Some
        {
          sk_delta = Tdigest.delta s.fct_sketch;
          sk_centroids = List.length (Tdigest.centroids s.fct_sketch);
          sk_reservoir_len = List.length (Reservoir.sample s.sample);
          sk_reservoir_seen = Reservoir.seen s.sample;
        }
