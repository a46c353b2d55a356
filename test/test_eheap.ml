(* Event heap: ordering, FIFO tie-breaks, compaction, value release in dead
   slots, and model-based properties against a naive sorted list. *)

let test_empty () =
  let h = Eheap.create ~dummy:0 () in
  Alcotest.(check bool) "empty" true (Eheap.is_empty h);
  Alcotest.(check (option (pair (float 0.) int))) "pop none" None (Eheap.pop h)

let test_ordering () =
  let h = Eheap.create ~dummy:0 () in
  List.iteri
    (fun i t -> Eheap.add h ~time:t ~seq:i i)
    [ 5.0; 1.0; 3.0; 0.5; 4.0 ];
  let order = ref [] in
  let rec drain () =
    match Eheap.pop h with
    | Some (t, _) ->
        order := t :: !order;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (float 0.)))
    "sorted" [ 0.5; 1.0; 3.0; 4.0; 5.0 ] (List.rev !order)

let test_fifo_ties () =
  let h = Eheap.create ~dummy:0 () in
  for i = 0 to 9 do
    Eheap.add h ~time:1.0 ~seq:i i
  done;
  let got = ref [] in
  let rec drain () =
    match Eheap.pop h with
    | Some (_, v) ->
        got := v :: !got;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "FIFO on equal times" [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !got)

let test_size_tracking () =
  let h = Eheap.create ~dummy:0 () in
  for i = 1 to 100 do
    Eheap.add h ~time:(float_of_int (100 - i)) ~seq:i i
  done;
  Alcotest.(check int) "size 100" 100 (Eheap.size h);
  ignore (Eheap.pop h);
  Alcotest.(check int) "size 99" 99 (Eheap.size h);
  Alcotest.(check (option (float 0.))) "peek" (Some 1.) (Eheap.peek_time h);
  Alcotest.(check (float 0.)) "min_time" 1. (Eheap.min_time h);
  Alcotest.(check int) "min_seq" 99 (Eheap.min_seq h)

let test_interleaved () =
  (* Interleave adds and pops; popped keys must be monotone when no smaller
     key is inserted afterwards. *)
  let h = Eheap.create ~dummy:0 () in
  Eheap.add h ~time:2. ~seq:0 0;
  Eheap.add h ~time:1. ~seq:1 1;
  let t1, _ = Option.get (Eheap.pop h) in
  Eheap.add h ~time:3. ~seq:2 2;
  let t2, _ = Option.get (Eheap.pop h) in
  let t3, _ = Option.get (Eheap.pop h) in
  Alcotest.(check (list (float 0.))) "order" [ 1.; 2.; 3. ] [ t1; t2; t3 ]

let test_compact () =
  (* Drop the odd-seq half; the survivors must drain in unchanged relative
     order. *)
  let h = Eheap.create ~dummy:(-1) () in
  for i = 0 to 99 do
    Eheap.add h ~time:(float_of_int ((i * 37) mod 50)) ~seq:i i
  done;
  Eheap.compact h ~keep:(fun ~seq _ -> seq mod 2 = 0);
  Alcotest.(check int) "half survive" 50 (Eheap.size h);
  let rec drain acc =
    match Eheap.pop h with
    | Some (t, v) -> drain ((t, v) :: acc)
    | None -> List.rev acc
  in
  let got = drain [] in
  let expect =
    List.init 50 (fun j ->
        let i = 2 * j in
        (float_of_int ((i * 37) mod 50), i))
    |> List.sort (fun (ta, sa) (tb, sb) ->
           match compare ta tb with 0 -> compare sa sb | c -> c)
  in
  Alcotest.(check (list (pair (float 0.) int))) "survivors in key order" expect got

(* Regression: [pop] used to leave the removed entry reachable at
   [arr.(len)] (and [grow] used to copy dead slots), retaining popped values
   — event closures, packets — for the life of the simulation. Popped values
   must become collectable as soon as the caller drops them. *)
let heap_with_popped_values n =
  let h = Eheap.create ~dummy:Bytes.empty () in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = Bytes.make 64 (Char.chr (65 + (i mod 26))) in
    Weak.set w i (Some v);
    Eheap.add h ~time:(float_of_int i) ~seq:i v
  done;
  for _ = 1 to n do
    ignore (Eheap.pop h)
  done;
  (h, w)

let test_pop_releases_values () =
  let h, w = heap_with_popped_values 1 in
  Gc.full_major ();
  Alcotest.(check bool) "popped value collected" false (Weak.check w 0);
  Alcotest.(check int) "heap empty" 0 (Eheap.size (Sys.opaque_identity h))

let test_pop_releases_values_after_grow () =
  (* More entries than the initial capacity, so [grow] runs too. *)
  let n = 200 in
  let h, w = heap_with_popped_values n in
  Gc.full_major ();
  for i = 0 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "popped value %d collected" i)
      false (Weak.check w i)
  done;
  Alcotest.(check int) "heap empty" 0 (Eheap.size (Sys.opaque_identity h))

let test_compact_releases_values () =
  (* Values dropped by [compact] must not be retained in dead tail slots. *)
  let n = 100 in
  let h = Eheap.create ~dummy:Bytes.empty () in
  let w = Weak.create n in
  for i = 0 to n - 1 do
    let v = Bytes.make 64 'x' in
    Weak.set w i (Some v);
    Eheap.add h ~time:(float_of_int (i mod 7)) ~seq:i v
  done;
  Eheap.compact h ~keep:(fun ~seq _ -> seq < 10);
  Gc.full_major ();
  for i = 10 to n - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "compacted value %d collected" i)
      false (Weak.check w i)
  done;
  Alcotest.(check int) "survivors" 10 (Eheap.size (Sys.opaque_identity h))

let test_compact_shrinks_capacity () =
  (* A long run's high-water mark must not pin RSS: once a whole cycle
     between compactions peaks far below capacity, the SoA backing arrays
     shrink (to 2x that peak, floored at the initial 64), and the heap
     keeps working — grows again, drains in order — after the swap. The
     compaction that ends a burst keeps the arrays the burst needed. *)
  let h = Eheap.create ~dummy:(-1) () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Eheap.add h ~time:(float_of_int ((i * 37) mod 997)) ~seq:i i
  done;
  let peak = Eheap.capacity h in
  Alcotest.(check bool) "capacity grew past 10k" true (peak >= n);
  Eheap.compact h ~keep:(fun ~seq _ -> seq < 10);
  Alcotest.(check int) "10 survive" 10 (Eheap.size h);
  Alcotest.(check int) "the burst's cycle keeps its arrays" peak
    (Eheap.capacity h);
  Eheap.compact h ~keep:(fun ~seq:_ _ -> true);
  Alcotest.(check int) "capacity shrank to the floor" 64 (Eheap.capacity h);
  (* A modest cycle above the floor shrinks to 2x its peak instead. *)
  let h2 = Eheap.create ~dummy:(-1) () in
  for i = 0 to n - 1 do
    Eheap.add h2 ~time:(float_of_int i) ~seq:i i
  done;
  Eheap.compact h2 ~keep:(fun ~seq _ -> seq < 100);
  Eheap.compact h2 ~keep:(fun ~seq:_ _ -> true);
  Alcotest.(check int) "capacity = 2x the cycle's peak" 200 (Eheap.capacity h2);
  (* No shrink while the cycle's peak stays above a quarter of capacity:
     dropping almost nothing must not reallocate (compact runs on hot
     paths). *)
  let h3 = Eheap.create ~dummy:(-1) () in
  for i = 0 to n - 1 do
    Eheap.add h3 ~time:(float_of_int i) ~seq:i i
  done;
  let cap3 = Eheap.capacity h3 in
  Eheap.compact h3 ~keep:(fun ~seq _ -> seq > 0);
  Alcotest.(check int) "dense heap keeps its arrays" cap3 (Eheap.capacity h3);
  (* A heap that refills to the same size between compactions keeps its
     arrays: no shrink-and-regrow cycle. *)
  let h4 = Eheap.create ~dummy:(-1) () in
  let seq = ref 0 in
  let fill () =
    while Eheap.size h4 < 1000 do
      Eheap.add h4 ~time:(float_of_int !seq) ~seq:!seq !seq;
      incr seq
    done
  in
  fill ();
  let cap4 = Eheap.capacity h4 in
  for _ = 1 to 5 do
    let floor = !seq - 10 in
    Eheap.compact h4 ~keep:(fun ~seq _ -> seq >= floor);
    Alcotest.(check int) "refilling heap keeps its arrays" cap4
      (Eheap.capacity h4);
    fill ()
  done;
  (* The shrunk heap still orders correctly and regrows. *)
  for i = n to n + 499 do
    Eheap.add h ~time:(float_of_int ((i * 53) mod 997)) ~seq:i i
  done;
  let rec drain last count =
    match Eheap.pop h with
    | Some (t, _) ->
        Alcotest.(check bool) "monotone drain after shrink" true (t >= last);
        drain t (count + 1)
    | None -> count
  in
  Alcotest.(check int) "all survivors drain" 510 (drain neg_infinity 0)

let prop_heap_sorts =
  QCheck.Test.make ~name:"Eheap drains in sorted key order" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let h = Eheap.create ~dummy:0 () in
      List.iteri (fun i t -> Eheap.add h ~time:t ~seq:i i) times;
      let rec drain acc =
        match Eheap.pop h with Some (t, _) -> drain (t :: acc) | None -> List.rev acc
      in
      let drained = drain [] in
      drained = List.sort compare times)

let prop_fifo_on_equal_keys =
  QCheck.Test.make ~name:"Eheap preserves insertion order on equal keys"
    ~count:100
    QCheck.(int_range 1 50)
    (fun n ->
      let h = Eheap.create ~dummy:0 () in
      for i = 0 to n - 1 do
        Eheap.add h ~time:7. ~seq:i i
      done;
      let rec drain acc =
        match Eheap.pop h with Some (_, v) -> drain (v :: acc) | None -> List.rev acc
      in
      drain [] = List.init n Fun.id)

(* Model-based check: drive a program of adds, pops, compactions and
   clears against a naive sorted [(time, seq)] list. Times come from a tiny
   set, to force FIFO tie-breaks constantly. Bursts push the heap across
   its growth thresholds (64, 128, ...) and [Keep_newest] empties it far
   below capacity, so a later compaction shrinks the arrays; [Clear] keeps
   them. After every operation the size and the minimum key must match
   the model, and every pop must remove the model's minimum. At the end
   the heap must hold exactly the model's values — every value it popped,
   compacted away or cleared is collectable, so its slot holds [dummy]
   again — and drain as the model's [(time, seq)] list. *)
type heap_op =
  | Add of float
  | Burst of int
  | Pop of int
  | Keep_mod of int * int
  | Keep_newest of int
  | Keep_oldest of int
  | Clear

let show_heap_op = function
  | Add t -> Printf.sprintf "Add %g" t
  | Burst n -> Printf.sprintf "Burst %d" n
  | Pop n -> Printf.sprintf "Pop %d" n
  | Keep_mod (m, r) -> Printf.sprintf "Keep_mod (%d, %d)" m r
  | Keep_newest n -> Printf.sprintf "Keep_newest %d" n
  | Keep_oldest n -> Printf.sprintf "Keep_oldest %d" n
  | Clear -> "Clear"

let heap_op_gen =
  let open QCheck.Gen in
  let time = map (fun k -> float_of_int k *. 0.5) (int_bound 6) in
  frequency
    [
      (4, map (fun t -> Add t) time);
      (2, map (fun n -> Burst n) (int_range 1 300));
      (3, map (fun n -> Pop n) (int_range 1 80));
      (2, map2 (fun m r -> Keep_mod (m, r)) (int_range 2 4) (int_bound 3));
      (2, map (fun n -> Keep_newest n) (int_bound 20));
      (1, map (fun n -> Keep_oldest n) (int_bound 40));
      (1, return Clear);
    ]

let matches_model prog =
  (* Each value is a fresh box holding its seq, watched by a weak pointer. *)
  let h = Eheap.create ~dummy:(ref (-1)) () in
  let model = ref [] (* sorted [(time, seq)] *) in
  let watched = ref [] (* [(seq, weak pointer to its value)] *) in
  let next = ref 0 in
  let key_order (t, s) (t', s') =
    match Float.compare t t' with 0 -> Int.compare s s' | c -> c
  in
  let add times =
    let added =
      List.map
        (fun time ->
          let s = !next in
          incr next;
          let v = ref s in
          let w = Weak.create 1 in
          Weak.set w 0 (Some v);
          watched := (s, w) :: !watched;
          Eheap.add h ~time ~seq:s v;
          (time, s))
        times
    in
    model := List.merge key_order !model (List.sort key_order added)
  in
  let compact keep =
    Eheap.compact h ~keep:(fun ~seq v -> !v = seq && keep seq);
    model := List.filter (fun (_, s) -> keep s) !model
  in
  let agrees () =
    Eheap.size h = List.length !model
    &&
    match !model with
    | [] -> Eheap.is_empty h && Eheap.peek_time h = None
    | (t, s) :: _ -> Eheap.min_time h = t && Eheap.min_seq h = s
  in
  let steps_ok =
    List.for_all
      (fun op ->
        let popped_ok =
          match op with
          | Add t ->
              add [ t ];
              true
          | Burst n ->
              add
                (List.init n (fun k -> float_of_int ((k * 7) mod 13) *. 0.25));
              true
          | Pop n ->
              let rec pops k =
                k = 0
                ||
                match !model with
                | [] -> Eheap.is_empty h
                | (t, s) :: tl ->
                    model := tl;
                    Eheap.min_time h = t
                    && Eheap.min_seq h = s
                    && !(Eheap.pop_min h) = s
                    && pops (k - 1)
              in
              pops n
          | Keep_mod (m, r) ->
              compact (fun s -> s mod m <> r);
              true
          | Keep_newest n ->
              let floor = !next - n in
              compact (fun s -> s >= floor);
              true
          | Keep_oldest n ->
              compact (fun s -> s < n);
              true
          | Clear ->
              Eheap.clear h;
              model := [];
              true
        in
        popped_ok && agrees ())
      prog
  in
  (* Only the model's values are still reachable. *)
  let released () =
    Gc.full_major ();
    let live = Array.make !next false in
    List.iter (fun (_, s) -> live.(s) <- true) !model;
    List.for_all (fun (s, w) -> Weak.check w 0 = live.(s)) !watched
  in
  let rec drain acc =
    match Eheap.pop h with
    | Some (t, v) -> drain ((t, !v) :: acc)
    | None -> List.rev acc
  in
  steps_ok && released () && drain [] = !model

let prop_model =
  QCheck.Test.make
    ~name:"Eheap matches a sorted-list model across grow, shrink and clear"
    ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops))
       QCheck.Gen.(list_size (int_range 0 60) heap_op_gen))
    matches_model

(* The small heaps where a 4-ary heapify has no internal node or only the
   root: every size 0-9, each drained, compacted by the modular rule, and
   compacted down to 0 or 1 survivors, then reused. *)
let test_model_small_heaps () =
  let adds n = List.init n (fun i -> Add (float_of_int ((i * 3) mod 5))) in
  for n = 0 to 9 do
    let inputs =
      [ adds n @ [ Pop (n + 1) ]; adds n @ [ Keep_mod (4, 3); Pop n ] ]
      @ List.map
          (fun m -> adds n @ [ Keep_oldest m ] @ adds 3 @ [ Pop 2 ])
          [ 0; 1 ]
    in
    List.iteri
      (fun i ops ->
        Alcotest.(check bool)
          (Printf.sprintf "size %d, input %d" n i)
          true (matches_model ops))
      inputs
  done

let suite =
  [
    Alcotest.test_case "empty heap" `Quick test_empty;
    Alcotest.test_case "ordering" `Quick test_ordering;
    Alcotest.test_case "FIFO ties" `Quick test_fifo_ties;
    Alcotest.test_case "size tracking" `Quick test_size_tracking;
    Alcotest.test_case "interleaved" `Quick test_interleaved;
    Alcotest.test_case "compact" `Quick test_compact;
    Alcotest.test_case "pop releases values" `Quick test_pop_releases_values;
    Alcotest.test_case "pop releases values after grow" `Quick
      test_pop_releases_values_after_grow;
    Alcotest.test_case "compact releases values" `Quick
      test_compact_releases_values;
    Alcotest.test_case "compact shrinks capacity" `Quick
      test_compact_shrinks_capacity;
    Qseed.to_alcotest prop_heap_sorts;
    Qseed.to_alcotest prop_fifo_on_equal_keys;
    Qseed.to_alcotest prop_model;
    Alcotest.test_case "model on small heaps" `Quick test_model_small_heaps;
  ]
