(* A multibit trie of stride 4 in one flat [int array]. A block is 16
   consecutive entries, one per value of the 4 address bits its level
   consumes; the root block sits at offset 0, so offset 0 doubles as
   "no child". An entry packs the offset of its child block above bit
   32 and, in its low 32 bits, 1 + the index of the value of the
   longest route covering it within its block (0: none). *)
type 'a t = { table : int array; values : 'a option array }

let stride = 4
let low_bits = 32
let low_mask = (1 lsl low_bits) - 1

(* The level a [len]-bit route lives in: /0../4 in the root block,
   /5../8 in level 1, ..., /29../32 in level 7. *)
let level len = if len = 0 then 0 else (len - 1) / stride

let check_len len =
  if len < 0 || len > 32 then invalid_arg "Lpm: prefix length must be in [0, 32]"

(* A route's sort key packs its first address, its length and its
   position in the list, most significant first: 32, 6 and
   [index_bits] bits. *)
let index_bits = 24
let key_addr key = key lsr (index_bits + 6)
let key_len key = (key lsr index_bits) land 63
let key_index key = key land ((1 lsl index_bits) - 1)

let of_list routes =
  let n = List.length routes in
  if n > 1 lsl index_bits then invalid_arg "Lpm.of_list: more than 2^24 routes";
  let keys = Array.make n 0 and values = Array.make n None in
  List.iteri
    (fun i (prefix, len, v) ->
      check_len len;
      let first = Int32.to_int prefix land low_mask land lnot ((1 lsl (32 - len)) - 1) in
      keys.(i) <- (((first lsl 6) lor len) lsl index_bits) lor i;
      values.(i) <- Some v)
    routes;
  (* In this order a route that contains another goes in before it, so
     the longer route's entries overwrite the shorter one's, and of two
     equal routes the later in the list goes in last and wins. The
     routes under one block are contiguous, so a level's block changes
     exactly where its leading bits do. *)
  Array.sort Int.compare keys;
  (* [open_key.(d)] holds the leading [4 d] bits of the block open at
     level [d]. *)
  let open_key = Array.make 8 (-1) in
  let blocks = ref 0 in
  Array.iter
    (fun key ->
      for d = 1 to level (key_len key) do
        let bits = key_addr key lsr (low_bits - (stride * d)) in
        if open_key.(d) <> bits then begin
          open_key.(d) <- bits;
          incr blocks
        end
      done)
    keys;
  (* The blocks are counted first, so the table is allocated once at
     its exact size: growing it would leave garbage on every build. *)
  let table = Array.make (16 * (!blocks + 1)) 0 in
  let open_off = Array.make 8 0 and next = ref 16 in
  Array.fill open_key 0 8 (-1);
  Array.iter
    (fun key ->
      let addr = key_addr key and len = key_len key in
      let l = level len in
      for d = 1 to l do
        let bits = addr lsr (low_bits - (stride * d)) in
        if open_key.(d) <> bits then begin
          open_key.(d) <- bits;
          open_off.(d) <- !next;
          let parent = open_off.(d - 1) + (bits land 15) in
          table.(parent) <- table.(parent) lor (!next lsl low_bits);
          next := !next + 16
        end
      done;
      (* Prefix expansion: the route covers [span] entries of its
         block. None of them has a child yet, as every route below them
         sorts after this one. *)
      let span = 1 lsl ((stride * (l + 1)) - len) in
      let first = open_off.(l) + ((addr lsr (low_bits - (stride * (l + 1)))) land (16 - span)) in
      Array.fill table first span (key_index key + 1))
    keys;
  { table; values }

(* At most 8 entries, one per level; [best] is 1 + the index of the
   deepest value seen, and the deepest is the longest match. The walk is
   a top-level function over an immediate int and the values are
   preallocated [Some] cells, so a lookup allocates nothing. *)
let rec walk table addr block shift best =
  let e = table.(block + ((addr lsr shift) land 15)) in
  let best = if e land low_mask = 0 then best else e land low_mask in
  let child = e lsr low_bits in
  if child = 0 then best else walk table addr child (shift - stride) best

let lookup_int t addr =
  match walk t.table addr 0 (low_bits - stride) 0 with 0 -> None | v -> t.values.(v - 1)

let lookup t addr = lookup_int t (Int32.to_int addr land low_mask)
