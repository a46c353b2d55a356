(* Structure-of-arrays 4-ary min-heap. Heap position [i] is the triple
   [times.(i)] (unboxed float array), [seqs.(i)] and [slots.(i)]; the value
   itself sits still in [vals.(slots.(i))]. Sifting therefore moves only
   unboxed floats and ints — no pointer store, so no write barrier per
   level — and moves a hole instead of swapping: three plain writes per
   level. Node [i]'s children are positions [4i+1 .. 4i+4]: half the depth
   of a binary heap, and the four child times share one cache line.

   Arity cannot change the pop order: keys [(time, seq)] are unique, so
   every correct min-heap pops the same sequence.

   Value slots not referenced by a live position are on the [free] stack
   and hold the caller-supplied [dummy]: a popped event closure can capture
   packets and whole flows, so a stale reference would keep them alive for
   the life of the simulation. *)

type 'a t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;  (* heap position -> value slot *)
  mutable vals : 'a array;  (* value slot -> value *)
  mutable free : int array;  (* stack of unused value slots *)
  mutable nfree : int;
  mutable len : int;
  dummy : 'a;
}

let create ~dummy () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    free = [||];
    nfree = 0;
    len = 0;
    dummy;
  }

(* Fresh backing arrays of capacity [ncap] holding the [len] live
   positions, their values renumbered into slots [0, len). *)
let realloc t ncap =
  let len = t.len in
  let times = Array.make ncap nan in
  let seqs = Array.make ncap 0 in
  let slots = Array.init ncap (fun i -> i) in
  let vals = Array.make ncap t.dummy in
  Array.blit t.times 0 times 0 len;
  Array.blit t.seqs 0 seqs 0 len;
  for i = 0 to len - 1 do
    vals.(i) <- t.vals.(t.slots.(i))
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.vals <- vals;
  t.free <- Array.init ncap (fun k -> ncap - 1 - k);
  t.nfree <- ncap - len

let add t ~time ~seq v =
  if t.nfree = 0 then
    realloc t (if t.len = 0 then 64 else 2 * t.len);
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.vals.(slot) <- v;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  (* Sift the hole up from the new last position; parents shift down. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 4 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < seqs.(p)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(p);
      slots.(!i) <- slots.(p);
      i := p
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

(* Sift the entry [(time, seq, slot)] down from the hole at [i], with [len]
   live positions. Shared by [pop_min] and the heapify pass in [compact]. *)
let sift_down t ~len ~time ~seq slot i =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let i = ref i in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= len then continue := false
    else begin
      (* The smallest of the (up to four) children. *)
      let last = if first + 3 < len then first + 3 else len - 1 in
      let c = ref first in
      for j = first + 1 to last do
        let tj = times.(j) and tc = times.(!c) in
        if tj < tc || (tj = tc && seqs.(j) < seqs.(!c)) then c := j
      done;
      let c = !c in
      let ct = times.(c) in
      if ct < time || (ct = time && seqs.(c) < seq) then begin
        times.(!i) <- ct;
        seqs.(!i) <- seqs.(c);
        slots.(!i) <- slots.(c);
        i := c
      end
      else continue := false
    end
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  slots.(!i) <- slot

let[@inline] min_time t = t.times.(0)
let[@inline] min_seq t = t.seqs.(0)

let release t slot =
  t.vals.(slot) <- t.dummy;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

let pop_min t =
  let s0 = t.slots.(0) in
  let v0 = t.vals.(s0) in
  release t s0;
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t ~len:last ~time:t.times.(last) ~seq:t.seqs.(last)
      t.slots.(last) 0;
  v0

let pop t =
  if t.len = 0 then None
  else
    let time = t.times.(0) in
    Some (time, pop_min t)

let peek_time t = if t.len = 0 then None else Some t.times.(0)

let compact t ~keep =
  (* Partition survivors to the front, release the rest, then
     Floyd-heapify: sift each internal node down, last parent first.
     Surviving keys are untouched, so the (time, seq) pop order is exactly
     what it was. *)
  let n = t.len in
  let w = ref 0 in
  for r = 0 to n - 1 do
    let slot = t.slots.(r) in
    if keep ~seq:t.seqs.(r) t.vals.(slot) then begin
      t.times.(!w) <- t.times.(r);
      t.seqs.(!w) <- t.seqs.(r);
      t.slots.(!w) <- slot;
      incr w
    end
    else release t slot
  done;
  let len = !w in
  t.len <- len;
  let cap = Array.length t.times in
  if cap > 64 && 4 * len < cap then
    (* Live occupancy is far below capacity: shrink the backing arrays to
       2x live (floor 64) so a long run's peak RSS is not pinned at the
       pre-compaction high-water mark. Strictly smaller than [cap] here
       because cap > max(64, 4*len). *)
    realloc t (if 2 * len > 64 then 2 * len else 64);
  (* The last internal node is the parent of position [len - 1]; with
     fewer than two survivors there is none. *)
  if len > 1 then
    for i = (len - 2) / 4 downto 0 do
      sift_down t ~len ~time:t.times.(i) ~seq:t.seqs.(i) t.slots.(i) i
    done

let clear t =
  for r = 0 to t.len - 1 do
    release t t.slots.(r)
  done;
  t.len <- 0

let size t = t.len
let is_empty t = t.len = 0
let capacity t = Array.length t.times
