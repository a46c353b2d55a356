type t = {
  delta : float;
  mutable means : float array;  (* centroid means, nondecreasing *)
  mutable weights : float array;  (* parallel to [means] *)
  mutable n : int;  (* live centroids *)
  mutable total : float;  (* weight held in centroids *)
  buf : float array;  (* pending raw values *)
  mutable buf_n : int;
  mutable lo : float;
  mutable hi : float;
}

let create ?(delta = 200.) () =
  if delta < 10. then invalid_arg "Tdigest.create: delta must be >= 10";
  {
    delta;
    means = [||];
    weights = [||];
    n = 0;
    total = 0.;
    buf = Array.make (8 * int_of_float delta) 0.;
    buf_n = 0;
    lo = infinity;
    hi = neg_infinity;
  }

let count t = int_of_float t.total + t.buf_n
let delta t = t.delta

let pi = 4. *. atan 1.

(* k1 scale function: k(q) = delta/(2pi) * asin(2q - 1). A cluster may
   span at most one unit of k, so cluster rank-width shrinks like
   sqrt(q(1-q)) toward the tails. *)
let k_scale t q =
  let q = Float.min 1. (Float.max 0. q) in
  t.delta /. (2. *. pi) *. asin ((2. *. q) -. 1.)

(* Compress a weight-ordered stream of (mean, weight) pairs, delivered by
   [iter_pairs] in nondecreasing mean order summing to [total], into
   [t.means]/[t.weights]. Greedy single-pass merge: grow the current
   cluster while it stays within one unit of the scale function. *)
let compress_into t ~total ~cap iter_pairs =
  let out_m = Array.make (Stdlib.max cap 1) 0. in
  let out_w = Array.make (Stdlib.max cap 1) 0. in
  let out_n = ref 0 in
  let cur_m = ref 0. and cur_w = ref 0. in
  let emitted = ref 0. in
  let k_lo = ref 0. in
  let push m w =
    if !cur_w = 0. then begin
      cur_m := m;
      cur_w := w;
      k_lo := k_scale t (!emitted /. total)
    end
    else if k_scale t ((!emitted +. !cur_w +. w) /. total) -. !k_lo <= 1.
    then begin
      (* fold into the current cluster: weighted incremental mean *)
      cur_w := !cur_w +. w;
      cur_m := !cur_m +. (w /. !cur_w *. (m -. !cur_m))
    end
    else begin
      out_m.(!out_n) <- !cur_m;
      out_w.(!out_n) <- !cur_w;
      incr out_n;
      emitted := !emitted +. !cur_w;
      cur_m := m;
      cur_w := w;
      k_lo := k_scale t (!emitted /. total)
    end
  in
  iter_pairs push;
  if !cur_w > 0. then begin
    out_m.(!out_n) <- !cur_m;
    out_w.(!out_n) <- !cur_w;
    incr out_n
  end;
  t.means <- Array.sub out_m 0 !out_n;
  t.weights <- Array.sub out_w 0 !out_n;
  t.n <- !out_n;
  t.total <- total

let flush t =
  if t.buf_n > 0 then begin
    let pending = Array.sub t.buf 0 t.buf_n in
    Array.sort Float.compare pending;
    t.buf_n <- 0;
    let np = Array.length pending in
    let total = t.total +. float_of_int np in
    let old_m = t.means and old_w = t.weights and old_n = t.n in
    compress_into t ~total ~cap:(old_n + np) (fun push ->
        let i = ref 0 and j = ref 0 in
        while !i < old_n || !j < np do
          if
            !j >= np
            || (!i < old_n && Float.compare old_m.(!i) pending.(!j) <= 0)
          then begin
            push old_m.(!i) old_w.(!i);
            incr i
          end
          else begin
            push pending.(!j) 1.;
            incr j
          end
        done)
  end

(* Queries never mutate: with values still buffered they read a flushed
   shallow copy (flush replaces [means]/[weights] and only reads [buf]), so
   a digest's representation, and so its Marshal bytes, depends only on
   the values added and never on which queries ran before. *)
let flushed t =
  if t.buf_n = 0 then t
  else begin
    let c = { t with buf_n = t.buf_n } in
    flush c;
    c
  end

let add t x =
  if Float.is_nan x then invalid_arg "Tdigest.add: nan sample";
  if t.buf_n = Array.length t.buf then flush t;
  t.buf.(t.buf_n) <- x;
  t.buf_n <- t.buf_n + 1;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let centroids t =
  let t = flushed t in
  List.init t.n (fun i -> (t.means.(i), t.weights.(i)))

let quantile t q =
  if q < 0. || q > 1. then invalid_arg "Tdigest.quantile: q out of range";
  let t = flushed t in
  if t.n = 0 then nan
  else if t.n = 1 then t.means.(0)
  else begin
    (* Centroid i represents weight w_i centred at cumulative midpoint
       c_i; interpolate linearly between adjacent (c, mean) anchors, with
       the exact min/max anchoring the extremes. *)
    let target = q *. t.total in
    let res = ref t.hi in
    (try
       let cum = ref 0. in
       let prev_c = ref 0. and prev_m = ref t.lo in
       for i = 0 to t.n - 1 do
         let c = !cum +. (t.weights.(i) /. 2.) in
         if target <= c then begin
           let span = c -. !prev_c in
           let frac =
             if span <= 0. then 1. else (target -. !prev_c) /. span
           in
           res := !prev_m +. (frac *. (t.means.(i) -. !prev_m));
           raise Exit
         end;
         cum := !cum +. t.weights.(i);
         prev_c := c;
         prev_m := t.means.(i)
       done;
       let span = t.total -. !prev_c in
       let frac = if span <= 0. then 1. else (target -. !prev_c) /. span in
       res := !prev_m +. (frac *. (t.hi -. !prev_m))
     with Exit -> ());
    Float.max t.lo (Float.min t.hi !res)
  end

let rank_error t q =
  let n = count t in
  if n = 0 then nan
  else
    let q = Float.min 1. (Float.max 0. q) in
    Float.max
      (1. /. float_of_int n)
      (4. *. pi *. sqrt (q *. (1. -. q)) /. t.delta)
