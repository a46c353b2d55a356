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
