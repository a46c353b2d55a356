(* Noise sentinel: a frozen reference kernel that calls no simulator code,
   so its time moves only with the host. It is a self-contained float-keyed
   binary min-heap under push/pop churn, the same access pattern as the
   simulator's event queue. Do not edit it: a change here breaks every
   comparison against earlier sentinel readings. *)

let run ~ops =
  let cap = 8192 in
  let keys = Array.make cap 0. in
  let size = ref 0 in
  let push k =
    let i = ref !size in
    incr size;
    while !i > 0 && keys.((!i - 1) / 2) > k do
      keys.(!i) <- keys.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    keys.(!i) <- k
  in
  let pop () =
    let top = keys.(0) in
    decr size;
    let last = keys.(!size) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= !size then continue := false
      else begin
        let c = if l + 1 < !size && keys.(l + 1) < keys.(l) then l + 1 else l in
        if keys.(c) < last then begin
          keys.(!i) <- keys.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(!i) <- last;
    top
  in
  (* Linear congruential keys: deterministic, allocation-free. *)
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. 1073741824.
  in
  for _ = 1 to cap - 1 do
    push (next ())
  done;
  let acc = ref 0. in
  for _ = 1 to ops do
    let k = pop () in
    acc := !acc +. k;
    push (k +. next ())
  done;
  !acc

(* One reading in milliseconds: the median of five short runs, after one
   discarded warm-up run. The kernel allocates (it boxes floats), so a full
   major collection comes first: the reading must not depend on the heap
   its caller left behind. *)
let reading ~quick =
  let ops = if quick then 200_000 else 1_000_000 in
  Gc.full_major ();
  ignore (run ~ops);
  Measure.median
    (List.init 5 (fun _ -> snd (Measure.time (fun () -> ignore (run ~ops))) *. 1e3))
