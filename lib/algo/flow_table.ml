(* Microflow cache: an open-addressing exact-match table from 5-tuples
   to small non-negative ints. The 104-bit key packs into two native
   ints (no allocation on lookup or insert); slots are probed linearly
   inside a short window and a full window evicts — a cache, not a map,
   so collisions cost a refill instead of a resize. *)

let probe_window = 8
let empty = -1

type t = {
  ka : int array;  (* sip<<24 | sport<<8 | proto; [empty] marks a free slot *)
  kb : int array;  (* dip<<16 | dport *)
  value : int array;
  mask : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let rec pow2 n c = if c >= n then c else pow2 n (c * 2)

let create ?(capacity = 1 lsl 16) () =
  if capacity < 1 then invalid_arg "Flow_table.create: capacity must be positive";
  let cap = pow2 (max capacity probe_window) 1 in
  {
    ka = Array.make cap empty;
    kb = Array.make cap empty;
    value = Array.make cap 0;
    mask = cap - 1;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

(* [Hashing.mix2_int] over the packed limbs is bit-identical to
   [Int64.to_int (Hashing.tuple5_64 ...)] of the unpacked 5-tuple. *)
let slot_of_packed t ~a ~b = Hashing.mix2_int a b land t.mask

(* Entries are never deleted individually, so an empty slot inside the
   probe window proves absence; [-1] means absent. The probe loops are
   top-level functions: a local [let rec] over [t], [a] and [b] would
   allocate its closure on every call. *)
let rec find_from t a b base i =
  if i >= probe_window then begin
    t.misses <- t.misses + 1;
    -1
  end
  else
    let s = (base + i) land t.mask in
    if t.ka.(s) = a && t.kb.(s) = b then begin
      t.hits <- t.hits + 1;
      t.value.(s)
    end
    else if t.ka.(s) = empty then begin
      t.misses <- t.misses + 1;
      -1
    end
    else find_from t a b base (i + 1)

let find_packed t ~a ~b = find_from t a b (slot_of_packed t ~a ~b) 0

let set t s a b v =
  t.ka.(s) <- a;
  t.kb.(s) <- b;
  t.value.(s) <- v

let rec put_from t a b v base i =
  if i >= probe_window then begin
    (* Window full: rotate the victim slot so one hot bucket does not
       always evict the same entry. *)
    let s = (base + (t.evictions land (probe_window - 1))) land t.mask in
    t.evictions <- t.evictions + 1;
    set t s a b v
  end
  else
    let s = (base + i) land t.mask in
    if t.ka.(s) = a && t.kb.(s) = b then t.value.(s) <- v
    else if t.ka.(s) = empty then set t s a b v
    else put_from t a b v base (i + 1)

let put_packed t ~a ~b v =
  if v < 0 then invalid_arg "Flow_table.put_packed: negative value";
  put_from t a b v (slot_of_packed t ~a ~b) 0

let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
