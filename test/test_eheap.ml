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
  (* A long run's high-water mark must not pin RSS: once compaction leaves
     occupancy far below capacity, the SoA backing arrays shrink (to 2x
     live, floored at the initial 64), and the heap keeps working — grows
     again, drains in order — after the swap. *)
  let h = Eheap.create ~dummy:(-1) () in
  let n = 10_000 in
  for i = 0 to n - 1 do
    Eheap.add h ~time:(float_of_int ((i * 37) mod 997)) ~seq:i i
  done;
  let peak = Eheap.capacity h in
  Alcotest.(check bool) "capacity grew past 10k" true (peak >= n);
  Eheap.compact h ~keep:(fun ~seq _ -> seq < 10);
  Alcotest.(check int) "10 survive" 10 (Eheap.size h);
  Alcotest.(check int) "capacity shrank to the floor" 64 (Eheap.capacity h);
  (* A modest survivor set above the floor shrinks to 2x live instead. *)
  let h2 = Eheap.create ~dummy:(-1) () in
  for i = 0 to n - 1 do
    Eheap.add h2 ~time:(float_of_int i) ~seq:i i
  done;
  Eheap.compact h2 ~keep:(fun ~seq _ -> seq < 100);
  Alcotest.(check int) "capacity = 2x live" 200 (Eheap.capacity h2);
  (* No shrink while occupancy stays above a quarter of capacity: dropping
     almost nothing must not reallocate (compact runs on hot paths). *)
  let h3 = Eheap.create ~dummy:(-1) () in
  for i = 0 to n - 1 do
    Eheap.add h3 ~time:(float_of_int i) ~seq:i i
  done;
  let cap3 = Eheap.capacity h3 in
  Eheap.compact h3 ~keep:(fun ~seq _ -> seq > 0);
  Alcotest.(check int) "dense heap keeps its arrays" cap3 (Eheap.capacity h3);
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

(* Model-based check: drive an interleaving of add / pop / compact against a
   naive sorted association list keyed by (time, seq). The heap must pop
   exactly what the model pops, at every step. Times are drawn from a tiny
   set to force FIFO tie-breaks constantly. *)
let matches_model ops =
  let h = Eheap.create ~dummy:(-1) () in
  let model = ref [] (* sorted [(time, seq, value)] *) in
  let seq = ref 0 in
  let insert (t, s, v) l =
    let rec go = function
      | [] -> [ (t, s, v) ]
      | ((t', s', _) as hd) :: tl ->
          if t < t' || (t = t' && s < s') then (t, s, v) :: hd :: tl
          else hd :: go tl
    in
    go l
  in
  let compact keep =
    Eheap.compact h ~keep;
    model := List.filter (fun (_, s, v) -> keep ~seq:s v) !model;
    Eheap.size h = List.length !model
  in
  List.for_all
    (fun o ->
      match o with
      | `Add time ->
          let s = !seq in
          incr seq;
          Eheap.add h ~time ~seq:s s;
          model := insert (time, s, s) !model;
          true
      | `Pop -> (
          match (Eheap.pop h, !model) with
          | None, [] -> true
          | Some (t, v), (t', s', v') :: tl ->
              model := tl;
              t = t' && v = v' && Eheap.size h = List.length tl && s' = v'
          | Some _, [] | None, _ :: _ -> false)
      | `Compact k ->
          (* Keep a pseudo-random but deterministic subset. *)
          compact (fun ~seq _ -> (seq * 7) mod 4 <> k)
      | `Keep_below m -> compact (fun ~seq _ -> seq < m))
    ops
  &&
  let rec drain acc =
    match Eheap.pop h with
    | Some (t, v) -> drain ((t, v) :: acc)
    | None -> List.rev acc
  in
  drain [] = List.map (fun (t, _, v) -> (t, v)) !model

let prop_model_interleaved =
  let op =
    QCheck.(
      oneof
        [
          map (fun t -> `Add (float_of_int t)) (int_bound 5);
          always `Pop;
          map (fun k -> `Compact k) (int_bound 3);
          map (fun m -> `Keep_below m) (int_bound 40);
        ])
  in
  QCheck.Test.make ~name:"Eheap matches a sorted-list model under add/pop/compact"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 120) op)
    matches_model

(* The small heaps where a 4-ary heapify has no internal node or only the
   root: every size 0-9, each drained, compacted by the modular rule, and
   compacted down to 0 or 1 survivors, then reused. *)
let test_model_small_heaps () =
  let adds n = List.init n (fun i -> `Add (float_of_int ((i * 3) mod 5))) in
  let pops n = List.init n (fun _ -> `Pop) in
  for n = 0 to 9 do
    let inputs =
      [ adds n @ pops (n + 1); adds n @ [ `Compact 1 ] @ pops n ]
      @ List.map
          (fun m -> adds n @ [ `Keep_below m ] @ adds 3 @ pops 2)
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
    Qseed.to_alcotest prop_model_interleaved;
    Alcotest.test_case "model on small heaps" `Quick test_model_small_heaps;
  ]
