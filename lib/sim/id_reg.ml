type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable n : int;
  dummy : 'a;
}

let create ~dummy () = { keys = [||]; vals = [||]; n = 0; dummy }
let length t = t.n

let get t i =
  if i < 0 || i >= t.n then invalid_arg "Id_reg.get";
  Array.unsafe_get t.vals i

(* First position whose key is >= [k]. *)
let lower_bound t k =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get t.keys mid < k then lo := mid + 1 else hi := mid
  done;
  !lo

let index t k =
  let i = lower_bound t k in
  if i < t.n && t.keys.(i) = k then i else -1

let add t k v =
  let i = lower_bound t k in
  if i < t.n && t.keys.(i) = k then t.vals.(i) <- v
  else begin
    if t.n = Array.length t.keys then begin
      let cap = Int.max 8 (2 * t.n) in
      let keys = Array.make cap 0 and vals = Array.make cap t.dummy in
      Array.blit t.keys 0 keys 0 t.n;
      Array.blit t.vals 0 vals 0 t.n;
      t.keys <- keys;
      t.vals <- vals
    end;
    Array.blit t.keys i t.keys (i + 1) (t.n - i);
    Array.blit t.vals i t.vals (i + 1) (t.n - i);
    t.keys.(i) <- k;
    t.vals.(i) <- v;
    t.n <- t.n + 1
  end

let remove_at t i =
  if i < 0 || i >= t.n then invalid_arg "Id_reg.remove_at";
  Array.blit t.keys (i + 1) t.keys i (t.n - i - 1);
  Array.blit t.vals (i + 1) t.vals i (t.n - i - 1);
  t.n <- t.n - 1;
  t.vals.(t.n) <- t.dummy

let remove t k =
  let i = index t k in
  if i >= 0 then remove_at t i

let clear t =
  Array.fill t.vals 0 t.n t.dummy;
  t.n <- 0
