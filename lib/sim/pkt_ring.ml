(* Capacity is zero or a power of two, so slot arithmetic is a mask. Rings
   start empty: most priority bands of a fabric never hold a packet. *)

let dummy = Packet.dummy ()

type t = { mutable buf : Packet.t array; mutable head : int; mutable len : int }

let create () = { buf = [||]; head = 0; len = 0 }
let length t = t.len

let grow t =
  let cap = Array.length t.buf in
  let nbuf = Array.make (max 8 (2 * cap)) dummy in
  for i = 0 to t.len - 1 do
    (* lint: allow pool-lifetime — ring growth moves owned packets between the old and new backing arrays *)
    nbuf.(i) <- t.buf.((t.head + i) land (cap - 1))
  done;
  t.buf <- nbuf;
  t.head <- 0

let push t pkt =
  if t.len = Array.length t.buf then grow t;
  (* lint: allow pool-lifetime — ownership transfers to the ring; the owner frees it after pop *)
  t.buf.((t.head + t.len) land (Array.length t.buf - 1)) <- pkt;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Pkt_ring.pop: empty";
  let i = t.head in
  let pkt = t.buf.(i) in
  t.buf.(i) <- dummy;
  t.head <- (i + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  pkt

let pop_tail t =
  if t.len = 0 then invalid_arg "Pkt_ring.pop_tail: empty";
  let i = (t.head + t.len - 1) land (Array.length t.buf - 1) in
  let pkt = t.buf.(i) in
  t.buf.(i) <- dummy;
  t.len <- t.len - 1;
  pkt
