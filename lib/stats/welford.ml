type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

let add t x =
  if Float.is_nan x then invalid_arg "Welford.add: nan sample";
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let mean t = if t.n = 0 then nan else t.mean
let variance t = if t.n = 0 then nan else t.m2 /. float_of_int t.n
let min t = if t.n = 0 then nan else t.lo
let max t = if t.n = 0 then nan else t.hi

(* Chan, Golub & LeVeque's pairwise update: exact in n, stable in m2. *)
let merge a b =
  if a.n = 0 then { b with n = b.n }
  else if b.n = 0 then { a with n = a.n }
  else begin
    let na = float_of_int a.n and nb = float_of_int b.n in
    let n = na +. nb in
    let delta = b.mean -. a.mean in
    {
      n = a.n + b.n;
      mean = a.mean +. (delta *. nb /. n);
      m2 = a.m2 +. b.m2 +. (delta *. delta *. na *. nb /. n);
      lo = Float.min a.lo b.lo;
      hi = Float.max a.hi b.hi;
    }
  end
