(* The single place where hash-order traversal is allowed: the order is
   erased by the sort before any caller sees it. [stable_sort] keeps
   duplicate-key bindings in [Hashtbl.fold] relative order (most recent
   first), so even degenerate multi-binding tables traverse reproducibly. *)

let to_list ?(cmp = Stdlib.compare) tbl =
  (* lint: allow no-hash-order — traversal order is erased by the sort below *)
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)

let iter ?cmp f tbl = List.iter (fun (k, v) -> f k v) (to_list ?cmp tbl)

let fold ?cmp f tbl init =
  List.fold_left (fun acc (k, v) -> f k v acc) init (to_list ?cmp tbl)
