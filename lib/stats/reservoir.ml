type 'a t = {
  k : int;
  rng : Rng.t;
  mutable items : 'a array;
  mutable len : int;
  mutable seen : int;
}

let create ~k ~seed =
  if k <= 0 then invalid_arg "Reservoir.create: capacity must be positive";
  { k; rng = Rng.create seed; items = [||]; len = 0; seen = 0 }

let add t x =
  t.seen <- t.seen + 1;
  if t.len < t.k then begin
    if t.len = Array.length t.items then begin
      let cap = Stdlib.min t.k (Stdlib.max 8 (2 * t.len)) in
      let items = Array.make cap x in
      Array.blit t.items 0 items 0 t.len;
      t.items <- items
    end;
    t.items.(t.len) <- x;
    t.len <- t.len + 1
  end
  else begin
    (* Algorithm R: element [seen] replaces a random slot with prob k/seen.
       One draw per overflow element keeps the stream position / RNG state
       correspondence exact, so a rerun retains the same sample. *)
    let j = Rng.int t.rng t.seen in
    if j < t.k then t.items.(j) <- x
  end

let sample t = Array.to_list (Array.sub t.items 0 t.len)
let seen t = t.seen
