type t = {
  mutable rem : float array;  (* per link: unallocated capacity *)
  mutable cnt : int array;  (* per link: unfrozen flows crossing *)
  mutable hseq : int array;  (* per link: seq of its live heap entry, -1 if none *)
  mutable touched : bool array;  (* per link: share changed this step *)
  mutable bott : bool array;  (* per link: froze some flow *)
  mutable bps : float array;  (* per link: summed allocation *)
  mutable off : int array;  (* link -> flows crossing it: [members.(off.(l) ..)] *)
  mutable fill : int array;
  mutable members : int array;
  mutable stack : int array;  (* links touched this step *)
  mutable n_stack : int;
  mutable rates : float array;  (* per flow *)
  mutable frozen : bool array;  (* per flow *)
  (* Binary min-heap of link shares, in parallel arrays so keys stay
     unboxed; [hseqs] tells a live entry from a superseded one. *)
  mutable hkey : float array;
  mutable hseqs : int array;
  mutable hlink : int array;
  mutable hlen : int;
}

let create () =
  {
    rem = [||];
    cnt = [||];
    hseq = [||];
    touched = [||];
    bott = [||];
    bps = [||];
    off = [||];
    fill = [||];
    members = [||];
    stack = [||];
    n_stack = 0;
    rates = [||];
    frozen = [||];
    hkey = [||];
    hseqs = [||];
    hlink = [||];
    hlen = 0;
  }

let grow t ~n_links ~n_flows ~n_hops =
  if Array.length t.rem < n_links then begin
    let c = Int.max 16 (2 * n_links) in
    t.rem <- Array.make c 0.;
    t.cnt <- Array.make c 0;
    t.hseq <- Array.make c (-1);
    t.touched <- Array.make c false;
    t.bott <- Array.make c false;
    t.bps <- Array.make c 0.;
    t.off <- Array.make (c + 1) 0;
    t.fill <- Array.make c 0;
    t.stack <- Array.make c 0
  end;
  if Array.length t.rates < n_flows then begin
    let c = Int.max 16 (2 * n_flows) in
    t.rates <- Array.make c 0.;
    t.frozen <- Array.make c false
  end;
  if Array.length t.members < n_hops then
    t.members <- Array.make (Int.max 16 (2 * n_hops)) 0;
  (* Every push but a link's first follows a freeze that touched it. *)
  if Array.length t.hkey < n_links + n_hops then begin
    let c = Int.max 16 (2 * (n_links + n_hops)) in
    t.hkey <- Array.make c 0.;
    t.hseqs <- Array.make c 0;
    t.hlink <- Array.make c 0
  end

let rate t i = t.rates.(i)
let link_bps t l = t.bps.(l)
let bottleneck t l = t.bott.(l)

(* Only keys order the heap: the steps consume every entry tied at the
   minimum as a set, so the order among equal keys cannot matter. *)
let push t l ~seq =
  t.hseq.(l) <- seq;
  let key = t.rem.(l) /. float_of_int t.cnt.(l) in
  let i = ref t.hlen in
  t.hlen <- t.hlen + 1;
  while !i > 0 && key < t.hkey.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    t.hkey.(!i) <- t.hkey.(p);
    t.hseqs.(!i) <- t.hseqs.(p);
    t.hlink.(!i) <- t.hlink.(p);
    i := p
  done;
  t.hkey.(!i) <- key;
  t.hseqs.(!i) <- seq;
  t.hlink.(!i) <- l

let pop t =
  let l = t.hlink.(0) in
  let n = t.hlen - 1 in
  t.hlen <- n;
  let key = t.hkey.(n) and seq = t.hseqs.(n) and link = t.hlink.(n) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let c = (2 * !i) + 1 in
    let c = if c + 1 < n && t.hkey.(c + 1) < t.hkey.(c) then c + 1 else c in
    if c < n && t.hkey.(c) < key then begin
      t.hkey.(!i) <- t.hkey.(c);
      t.hseqs.(!i) <- t.hseqs.(c);
      t.hlink.(!i) <- t.hlink.(c);
      i := c
    end
    else sifting := false
  done;
  t.hkey.(!i) <- key;
  t.hseqs.(!i) <- seq;
  t.hlink.(!i) <- link;
  l

(* Pop heap entries superseded by a later push of their link, or whose
   link has no unfrozen flow left, until a live one is on top. *)
let drop_stale t =
  while t.hlen > 0 && t.hseqs.(0) <> t.hseq.(t.hlink.(0)) do
    ignore (pop t)
  done

let[@inline] freeze t ~paths i s =
  t.frozen.(i) <- true;
  t.rates.(i) <- s;
  let path = paths.(i) in
  for h = 0 to Array.length path - 1 do
    let p = path.(h) in
    t.rem.(p) <- Float.max 0. (t.rem.(p) -. s);
    t.cnt.(p) <- t.cnt.(p) - 1;
    if not t.touched.(p) then begin
      t.touched.(p) <- true;
      t.stack.(t.n_stack) <- p;
      t.n_stack <- t.n_stack + 1
    end
  done

let run t ~caps ~n_links ~paths ~n_flows =
  let n_hops = ref 0 in
  for i = 0 to n_flows - 1 do
    n_hops := !n_hops + Array.length paths.(i)
  done;
  grow t ~n_links ~n_flows ~n_hops:!n_hops;
  for l = 0 to n_links - 1 do
    t.rem.(l) <- caps.(l);
    t.cnt.(l) <- 0;
    t.hseq.(l) <- -1;
    t.touched.(l) <- false;
    t.bott.(l) <- false;
    t.bps.(l) <- 0.
  done;
  for i = 0 to n_flows - 1 do
    t.rates.(i) <- 0.;
    t.frozen.(i) <- false;
    let path = paths.(i) in
    for h = 0 to Array.length path - 1 do
      t.cnt.(path.(h)) <- t.cnt.(path.(h)) + 1
    done
  done;
  (* Link -> flow membership, flows in index order. *)
  t.off.(0) <- 0;
  for l = 0 to n_links - 1 do
    t.off.(l + 1) <- t.off.(l) + t.cnt.(l);
    t.fill.(l) <- t.off.(l)
  done;
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    for h = 0 to Array.length path - 1 do
      let l = path.(h) in
      t.members.(t.fill.(l)) <- i;
      t.fill.(l) <- t.fill.(l) + 1
    done
  done;
  let seq = ref 0 in
  for l = 0 to n_links - 1 do
    if t.cnt.(l) > 0 then begin
      push t l ~seq:!seq;
      incr seq
    end
  done;
  let unfrozen = ref n_flows in
  let prev = ref 0. in
  while !unfrozen > 0 do
    drop_stale t;
    if t.hlen = 0 then
      (* No constraining link (unreachable: every flow crosses links that
         count it). The rest stay at zero, which guarantees termination. *)
      unfrozen := 0
    else begin
      let key = t.hkey.(0) in
      (* Step shares never decrease in exact arithmetic; clamp away the
         ulp [rem /. cnt] rounding can lose (DESIGN §15.3). *)
      let s = Float.max !prev (Float.max 0. key) in
      prev := s;
      t.n_stack <- 0;
      (* Every link whose entry still holds the minimum key is a bottleneck:
         entries are refreshed only after the step, so this is the set of
         links tied at the minimum when the step began. *)
      while t.hlen > 0 && t.hkey.(0) = key do
        let l = pop t in
        t.hseq.(l) <- -1;
        t.bott.(l) <- true;
        for m = t.off.(l) to t.off.(l + 1) - 1 do
          let i = t.members.(m) in
          if not t.frozen.(i) then begin
            freeze t ~paths i s;
            decr unfrozen
          end
        done;
        drop_stale t
      done;
      for k = 0 to t.n_stack - 1 do
        let p = t.stack.(k) in
        t.touched.(p) <- false;
        if t.cnt.(p) > 0 then begin
          push t p ~seq:!seq;
          incr seq
        end
        else t.hseq.(p) <- -1
      done
    end
  done;
  t.hlen <- 0;
  (* Per-link totals, summed in flow order. *)
  for i = 0 to n_flows - 1 do
    let path = paths.(i) in
    for h = 0 to Array.length path - 1 do
      let l = path.(h) in
      t.bps.(l) <- t.bps.(l) +. t.rates.(i)
    done
  done
