(* Bounded packet-identity memory with generational pruning: two
   tables, [g_cur] receiving inserts and [g_prev] holding the previous
   generation; membership consults both. When [g_cur] reaches half the
   capacity the generations rotate and the oldest half is dropped, so
   the memory never holds more than [capacity] entries yet any entry
   survives at least [capacity / 2] subsequent insertions — the dedup
   window a late retransmission or replayed branch must fit inside.
   Keys are two int limbs: the 40-bit PID as a native int, and the
   version (delivery) or the packed (MID, merge point) pair (merger).

   A generation is an insert-only open-addressed key set, the limbs of
   a slot side by side in one int array, cleared whole on rotation:
   there is no value array and no removal. Its slots follow the PID: a
   key's probe starts at slot [2 * pid + (b land 1)], so consecutive
   PIDs land in adjacent slots and a packet's probes hit the lines the
   previous packets warmed. The first [near] slots from there are
   probed in order; past them the probe spills to a sequence hashed
   from both limbs, with an odd stride, so PIDs that share a start
   (strided by a power of two, or more than two keys to a PID) spread
   over the table instead of piling into one probe run. No lookup or
   insert allocates. *)

let empty = -1

type table = { mutable keys : int array; mutable mask : int; mutable count : int }

type t = { half : int; mutable g_cur : table; mutable g_prev : table }

let merge_limb ~mid ~merge_id = (mid lsl 32) lor merge_id

let near = 4

let table () = { keys = Array.make 128 empty; mask = 63; count = 0 }

let create capacity = { half = max 1 (capacity / 2); g_cur = table (); g_prev = table () }

(* The probe loops are top-level functions: a local [let rec] would
   allocate its closure on every call. Each returns the slot holding
   (a, b), or the free slot that ends its probe sequence, where (a, b)
   goes; a generation's load stays at most 1/2, so there is one. *)
let rec spill t a b s step =
  let k = t.keys.(2 * s) in
  if k = empty || (k = a && t.keys.((2 * s) + 1) = b) then s
  else spill t a b ((s + step) land t.mask) step

let rec probe t a b s left =
  let k = t.keys.(2 * s) in
  if k = empty || (k = a && t.keys.((2 * s) + 1) = b) then s
  else if left > 1 then probe t a b ((s + 1) land t.mask) (left - 1)
  else
    let h = (a * 0x9e3779b97f4a7c1) lxor (b * 0x3c6ef372fe94f82b) in
    let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
    spill t a b (h land t.mask) ((h lsr 32) lor 1)

let slot t a b = probe t a b (((2 * a) + (b land 1)) land t.mask) near

let holds t a b = t.keys.(2 * slot t a b) <> empty

let put t s a b =
  t.keys.(2 * s) <- a;
  t.keys.((2 * s) + 1) <- b;
  t.count <- t.count + 1

(* Doubles the table and re-inserts every key; the new key then
   takes a slot of the grown table. *)
let grow t =
  let keys = t.keys in
  t.keys <- Array.make (2 * Array.length keys) empty;
  t.mask <- (2 * t.mask) + 1;
  t.count <- 0;
  for s = 0 to (Array.length keys / 2) - 1 do
    let a = keys.(2 * s) in
    if a <> empty then put t (slot t a keys.((2 * s) + 1)) a keys.((2 * s) + 1)
  done

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
  end

let mem t ~a ~b = holds t.g_cur a b || holds t.g_prev a b

(* The slot [g_cur]'s probe ends at is where the key goes, unless a
   rotation or growth moves it first. *)
let add t ~a ~b =
  let s = slot t.g_cur a b in
  if t.g_cur.keys.(2 * s) = empty && not (holds t.g_prev a b) then begin
    if t.g_cur.count >= t.half then begin
      let retired = t.g_prev in
      clear retired;
      t.g_prev <- t.g_cur;
      t.g_cur <- retired;
      put retired (slot retired a b) a b
    end
    else if 2 * (t.g_cur.count + 1) > t.g_cur.mask + 1 then begin
      grow t.g_cur;
      put t.g_cur (slot t.g_cur a b) a b
    end
    else put t.g_cur s a b
  end

let length t = t.g_cur.count + t.g_prev.count

(* Armed, each [filter] is listed in [memories] for the gauge. *)
type filters = { armed : bool; capacity : int; mutable memories : t list }

let filters ~armed ~capacity = { armed; capacity; memories = [] }

let filter d =
  if d.armed then begin
    let m = create d.capacity in
    d.memories <- m :: d.memories;
    Some m
  end
  else None

let seen f ~a ~b = match f with Some m -> mem m ~a ~b | None -> false

let remember f ~a ~b = match f with Some m -> add m ~a ~b | None -> ()

let entries d = List.fold_left (fun acc m -> acc + length m) 0 d.memories
