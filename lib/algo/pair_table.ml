(* Open-addressing hash map from pairs of non-negative native ints: the
   key limbs live side by side in one int array (slot [s] at [2s] and
   [2s + 1], so a probe touches one cache line), and lookup, insert and
   removal allocate nothing. Linear probing at load <= 1/2; removal
   shifts the rest of the probe run back instead of leaving tombstones,
   so probe runs never outgrow the live entries. A table allocates its
   first 64 slots on its first insert and doubles as it fills; a
   cleared table keeps its size. *)

let empty = -1
let initial = 64

type 'a t = {
  mutable keys : int array;  (* [empty] first limb marks a free slot *)
  mutable vals : 'a array;  (* both [||] until the first insert *)
  mutable mask : int;
  mutable count : int;
}

let create () = { keys = [||]; vals = [||]; mask = 0; count = 0 }

(* Multiply-xorshift over the two limbs, in native ints. Slot order is
   never observable, so this need not match [Hashing.mix2_int]; it is a
   fraction of its cost, which emulates 64-bit products in 32-bit
   limbs. *)
let home t a b =
  let h = (a * 0x9e3779b97f4a7c1) lxor (b * 0x3c6ef372fe94f82b) in
  let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 29)) land t.mask

(* The probe loops are top-level functions: a local [let rec] over
   [t], [a] and [b] would allocate its closure on every call. *)
let rec probe t a b s =
  let k = t.keys.(2 * s) in
  if k = a && t.keys.((2 * s) + 1) = b then s
  else if k = empty then -1
  else probe t a b ((s + 1) land t.mask)

let find t ~a ~b = if t.count = 0 then -1 else probe t a b (home t a b)

let mem t ~a ~b = find t ~a ~b >= 0

let value t s = t.vals.(s)

let set t s a b v =
  t.keys.(2 * s) <- a;
  t.keys.((2 * s) + 1) <- b;
  t.vals.(s) <- v

(* Insert into a free slot of a table with room; the key is known
   absent. *)
let rec place_from t a b v s =
  if t.keys.(2 * s) = empty then begin
    set t s a b v;
    t.count <- t.count + 1
  end
  else place_from t a b v ((s + 1) land t.mask)

let place t a b v = place_from t a b v (home t a b)

let grow t v =
  let keys = t.keys and vals = t.vals in
  let size = 2 * (t.mask + 1) in
  t.keys <- Array.make (2 * size) empty;
  t.vals <- Array.make size v;
  t.mask <- size - 1;
  t.count <- 0;
  for s = 0 to Array.length vals - 1 do
    if keys.(2 * s) <> empty then place t keys.(2 * s) keys.((2 * s) + 1) vals.(s)
  done

let replace t ~a ~b v =
  if a < 0 then invalid_arg "Pair_table.replace: negative key";
  match find t ~a ~b with
  | -1 ->
      if Array.length t.vals = 0 then begin
        t.keys <- Array.make (2 * initial) empty;
        t.vals <- Array.make initial v;
        t.mask <- initial - 1
      end
      else if 2 * (t.count + 1) > t.mask + 1 then grow t v;
      place t a b v
  | s -> t.vals.(s) <- v

(* Backward-shift deletion: walk the run after the freed slot and pull
   back every entry whose home does not lie cyclically in (hole, s]. *)
let rec shift t hole s =
  let k = t.keys.(2 * s) in
  if k = empty then t.keys.(2 * hole) <- empty
  else
    let b = t.keys.((2 * s) + 1) in
    let h = home t k b in
    let stays = if hole <= s then hole < h && h <= s else hole < h || h <= s in
    if stays then shift t hole ((s + 1) land t.mask)
    else begin
      set t hole k b t.vals.(s);
      shift t s ((s + 1) land t.mask)
    end

let remove t ~a ~b =
  match find t ~a ~b with
  | -1 -> ()
  | hole ->
      shift t hole ((hole + 1) land t.mask);
      t.count <- t.count - 1

let clear t =
  if t.count > 0 then begin
    Array.fill t.keys 0 (Array.length t.keys) empty;
    t.count <- 0
  end

let length t = t.count

let iter f t =
  for s = 0 to Array.length t.vals - 1 do
    let a = t.keys.(2 * s) in
    if a <> empty then f a t.keys.((2 * s) + 1) t.vals.(s)
  done
