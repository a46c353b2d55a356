type t = {
  sample : Rng.t -> float;
  mean : float;
  name : string;
  icdf : (float -> float) option;
  points : (float * float) list;
}

let uniform a b =
  if a > b then invalid_arg "Dist.uniform: empty interval";
  {
    sample = (fun rng -> if a = b then a else Rng.uniform rng a b);
    mean = (a +. b) /. 2.;
    name = Printf.sprintf "U[%g,%g]" a b;
    icdf = None;
    points = [];
  }

let constant v =
  {
    sample = (fun _ -> v);
    mean = v;
    name = Printf.sprintf "const %g" v;
    icdf = None;
    points = [];
  }

let exponential ~mean =
  {
    sample = (fun rng -> Rng.exponential rng ~mean);
    mean;
    name = Printf.sprintf "Exp(%g)" mean;
    icdf = None;
    points = [];
  }

let choice xs =
  match xs with
  | [] -> invalid_arg "Dist.choice: empty"
  | _ ->
      let arr = Array.of_list xs in
      {
        sample = (fun rng -> arr.(Rng.int rng (Array.length arr)));
        mean = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs);
        name = "choice";
        icdf = None;
    points = [];
      }

let sample_int t rng = int_of_float (Float.round (t.sample rng))

let piecewise ~name points =
  (match points with
  | [] | [ _ ] -> invalid_arg "Dist.piecewise: need at least two points"
  | (_, p0) :: _ ->
      if p0 <> 0. then invalid_arg "Dist.piecewise: first probability must be 0");
  let rec validate = function
    | (v1, p1) :: ((v2, p2) :: _ as rest) ->
        if v2 < v1 || p2 < p1 then
          invalid_arg "Dist.piecewise: breakpoints must be non-decreasing";
        validate rest
    | [ (_, plast) ] ->
        if plast <> 1. then
          invalid_arg "Dist.piecewise: last probability must be 1"
    | [] -> ()
  in
  validate points;
  let arr = Array.of_list points in
  let n = Array.length arr in
  (* Inverse CDF: the segment index is the smallest i with u < p_{i+1}
     (clamped to the last segment), found by binary search over the
     monotone breakpoint probabilities. The interpolation arithmetic is
     identical to a linear scan, so samples are byte-stable regardless of
     table size. *)
  let inv u =
    let u = if u < 0. then 0. else if u > 1. then 1. else u in
    let lo = ref 0 and hi = ref (n - 2) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if u < snd arr.(mid + 1) then hi := mid else lo := mid + 1
    done;
    let v1, p1 = arr.(!lo) and v2, p2 = arr.(!lo + 1) in
    if p2 = p1 then v1 else v1 +. ((v2 -. v1) *. (u -. p1) /. (p2 -. p1))
  in
  let sample rng = inv (Rng.float rng 1.0) in
  (* Mean of the piecewise-linear interpolation: each segment contributes
     its probability mass times its midpoint. *)
  let mean = ref 0. in
  for i = 0 to n - 2 do
    let v1, p1 = arr.(i) and v2, p2 = arr.(i + 1) in
    mean := !mean +. ((p2 -. p1) *. (v1 +. v2) /. 2.)
  done;
  { sample; mean = !mean; name; icdf = Some inv; points }

(* Piecewise approximations of the flow-size CDFs used throughout the
   data-center transport literature (DCTCP production cluster and VL2). *)
let web_search_bytes =
  piecewise ~name:"web-search"
    [
      (1_000., 0.0);
      (10_000., 0.15);
      (20_000., 0.25);
      (30_000., 0.35);
      (50_000., 0.45);
      (100_000., 0.53);
      (300_000., 0.60);
      (1_000_000., 0.70);
      (2_000_000., 0.80);
      (5_000_000., 0.90);
      (10_000_000., 0.97);
      (30_000_000., 1.0);
    ]

let data_mining_bytes =
  piecewise ~name:"data-mining"
    [
      (100., 0.0);
      (180., 0.10);
      (250., 0.20);
      (560., 0.30);
      (900., 0.40);
      (1_100., 0.50);
      (60_000., 0.60);
      (380_000., 0.70);
      (2_500_000., 0.80);
      (10_000_000., 0.90);
      (100_000_000., 1.0);
    ]

(* MapReduce-cluster flow sizes (Facebook-style Hadoop trace shape): the
   bulk of flows are shuffle-control sized (sub-2 KB), with a shuffle/output
   tail reaching hundreds of megabytes. *)
let hadoop_bytes =
  piecewise ~name:"hadoop"
    [
      (150., 0.0);
      (300., 0.12);
      (580., 0.30);
      (1_000., 0.50);
      (2_000., 0.63);
      (10_000., 0.70);
      (100_000., 0.80);
      (1_000_000., 0.90);
      (10_000_000., 0.97);
      (400_000_000., 1.0);
    ]

let builtins =
  [
    ("websearch", web_search_bytes);
    ("datamining", data_mining_bytes);
    ("hadoop", hadoop_bytes);
  ]

let builtin name =
  let canon =
    String.lowercase_ascii name
    |> String.split_on_char '-' |> String.concat ""
    |> String.split_on_char '_' |> String.concat ""
  in
  List.assoc_opt canon builtins

let of_cdf_points ~name points =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  match points with
  | [] -> err "empty CDF table"
  | (v0, p0) :: _ -> (
      (* A table whose first row has positive mass is interpreted as an atom
         at the first value: prepend a zero-probability anchor there. *)
      let points = if p0 > 0. then (v0, 0.) :: points else points in
      match points with
      | [] | [ _ ] -> err "CDF table needs at least two points"
      | _ -> (
          let rec check prev = function
            | [] -> Ok ()
            | (v, p) :: rest -> (
                if not (Float.is_finite v) || v <= 0. then
                  err "flow size %g: sizes must be positive and finite" v
                else if p < 0. || p > 1. then
                  err "cumulative probability %g outside [0,1]" p
                else
                  match prev with
                  | Some (pv, pp) when v < pv || p < pp ->
                      err
                        "breakpoints must be non-decreasing: (%g, %g) after \
                         (%g, %g)"
                        v p pv pp
                  | _ -> check (Some (v, p)) rest)
          in
          match check None points with
          | Error _ as e -> e
          | Ok () ->
              let _, plast = List.nth points (List.length points - 1) in
              if plast <> 1. then
                err "last cumulative probability must be 1, got %g" plast
              else Ok (piecewise ~name points)))

let of_cdf_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop lineno acc =
            match input_line ic with
            | exception End_of_file -> Ok (List.rev acc)
            | line -> (
                let line =
                  match String.index_opt line '#' with
                  | Some i -> String.sub line 0 i
                  | None -> line
                in
                let fields =
                  String.map (fun c -> if c = '\t' then ' ' else c) line
                  |> String.split_on_char ' '
                  |> List.filter (fun s -> s <> "")
                in
                match fields with
                | [] -> loop (lineno + 1) acc
                | [ v; p ] -> (
                    match (float_of_string_opt v, float_of_string_opt p) with
                    | Some v, Some p when Float.is_finite v && Float.is_finite p
                      ->
                        loop (lineno + 1) ((v, p) :: acc)
                    | _ ->
                        Error
                          (Printf.sprintf
                             "%s:%d: expected two numeric fields, got %S" path
                             lineno (String.trim line)))
                | _ ->
                    Error
                      (Printf.sprintf
                         "%s:%d: expected \"<bytes> <cum-prob>\", got %S" path
                         lineno (String.trim line)))
          in
          match loop 1 [] with
          | Error _ as e -> e
          | Ok points -> (
              (* Table-level validation errors name the file too. *)
              match
                of_cdf_points ~name:("cdf:" ^ Filename.basename path) points
              with
              | Error e -> Error (Printf.sprintf "%s: %s" path e)
              | Ok _ as ok -> ok))
