let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193

let fnv1a32 s =
  let h = ref fnv_offset in
  String.iter (fun c -> h := (!h lxor Char.code c) * fnv_prime land 0xffffffff) s;
  !h

let fnv1a32_bytes b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Hashing.fnv1a32_bytes: range overruns buffer";
  let h = ref fnv_offset in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (Bytes.get b i)) * fnv_prime land 0xffffffff
  done;
  !h

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let slot_of_pid pid instances =
  Int64.to_int
    (Int64.rem
       (Int64.logand (mix64 pid) Int64.max_int)
       (Int64.of_int (max 1 instances)))

let combine a b = ((a * 31) + b) land max_int

(* The 104-bit 5-tuple packs exactly into two limbs; both fit a 63-bit
   native int, so packing is allocation-free. *)
let pack_a sip sport proto =
  ((Int32.to_int sip land 0xffffffff) lsl 24) lor (sport lsl 8) lor proto

let pack_b dip dport = ((Int32.to_int dip land 0xffffffff) lsl 16) lor dport

(* Same limbs from addresses already held as unsigned native ints
   (e.g. [Packet.sip_int]) — skips the int32 detour entirely. *)
let pack_a_int sip sport proto = (sip lsl 24) lor (sport lsl 8) lor proto
let pack_b_int dip dport = (dip lsl 16) lor dport

let tuple5_64 sip dip sport dport proto =
  mix64
    (Int64.logxor
       (mix64 (Int64.of_int (pack_a sip sport proto)))
       (Int64.of_int (pack_b dip dport)))

let tuple5 sip dip sport dport proto =
  Int64.to_int (tuple5_64 sip dip sport dport proto) land max_int

(* [mix2_int a b] = [Int64.to_int (mix64 (mix64 a' ^ b'))] for the
   packed key limbs [a]/[b] — the value [tuple5_64] computes — without
   touching Int64: on a non-flambda compiler the Int64 form boxes every
   intermediate, and the microflow cache hashes on the classifier's
   per-packet hit path. Same limb technique as [Prng.step]: 64-bit
   multiplies as 16-bit half-products, cross terms mod 2^32 (sound
   because 2^32 divides native wrap-around's 2^63). *)
let mask32 = 0xffffffff

(* SplitMix64 finalizer constants, split into 32-bit halves. *)
let c1_hi = 0xbf58476d
let c1_lo = 0x1ce4e5b9
let c2_hi = 0x94d049bb
let c2_lo = 0x133111eb

let mix2_int a b =
  (* mix64 of the [a] limbs *)
  let hi = (a lsr 32) land mask32 and lo = a land mask32 in
  let zl = lo lxor ((lo lsr 30) lor ((hi lsl 2) land mask32)) in
  let zh = hi lxor (hi lsr 30) in
  let x0 = zl land 0xffff and x1 = zl lsr 16 in
  let pm = (x0 * 0x1ce4) + (x1 * 0xe5b9) in
  let tl = (x0 * 0xe5b9) + ((pm land 0xffff) lsl 16) in
  let mh =
    ((pm lsr 16) + (x1 * 0x1ce4) + (tl lsr 32) + (zl * c1_hi) + (zh * c1_lo))
    land mask32
  in
  let ml = tl land mask32 in
  let zl = ml lxor ((ml lsr 27) lor ((mh lsl 5) land mask32)) in
  let zh = mh lxor (mh lsr 27) in
  let x0 = zl land 0xffff and x1 = zl lsr 16 in
  let pm = (x0 * 0x1331) + (x1 * 0x11eb) in
  let tl = (x0 * 0x11eb) + ((pm land 0xffff) lsl 16) in
  let mh =
    ((pm lsr 16) + (x1 * 0x1331) + (tl lsr 32) + (zl * c2_hi) + (zh * c2_lo))
    land mask32
  in
  let ml = tl land mask32 in
  let hi = mh lxor (mh lsr 31) in
  let lo = ml lxor ((ml lsr 31) lor ((mh lsl 1) land mask32)) in
  (* xor in the [b] limbs, then the second mix64 *)
  let hi = hi lxor ((b lsr 32) land mask32) and lo = lo lxor (b land mask32) in
  let zl = lo lxor ((lo lsr 30) lor ((hi lsl 2) land mask32)) in
  let zh = hi lxor (hi lsr 30) in
  let x0 = zl land 0xffff and x1 = zl lsr 16 in
  let pm = (x0 * 0x1ce4) + (x1 * 0xe5b9) in
  let tl = (x0 * 0xe5b9) + ((pm land 0xffff) lsl 16) in
  let mh =
    ((pm lsr 16) + (x1 * 0x1ce4) + (tl lsr 32) + (zl * c1_hi) + (zh * c1_lo))
    land mask32
  in
  let ml = tl land mask32 in
  let zl = ml lxor ((ml lsr 27) lor ((mh lsl 5) land mask32)) in
  let zh = mh lxor (mh lsr 27) in
  let x0 = zl land 0xffff and x1 = zl lsr 16 in
  let pm = (x0 * 0x1331) + (x1 * 0x11eb) in
  let tl = (x0 * 0x11eb) + ((pm land 0xffff) lsl 16) in
  let mh =
    ((pm lsr 16) + (x1 * 0x1331) + (tl lsr 32) + (zl * c2_hi) + (zh * c2_lo))
    land mask32
  in
  let ml = tl land mask32 in
  let hi = mh lxor (mh lsr 31) in
  let lo = ml lxor ((ml lsr 31) lor ((mh lsl 1) land mask32)) in
  ((hi land 0x7fffffff) lsl 32) lor lo

(* RSS shard selection draws from its own hash stream: the key limbs
   are offset by fixed seeds before entering the SplitMix64 finaliser
   chain, so for any 5-tuple the shard hash and the microflow-cache
   bucket hash ([mix2_int] unseeded, see [Flow_table.slot_of_packed])
   are samples of two unrelated avalanche streams. Without the seeds a
   replica choice of [h mod n] and a bucket choice of [h land mask]
   would be functions of the same value — e.g. every flow in one cache
   bucket landing on the same replica. The constants are the first
   Blowfish pi digits (arbitrary, odd-ish, and 62-bit safe). *)
let rss_seed_a = 0x243f6a8885a308d3
let rss_seed_b = 0x13198a2e03707344

(* [mix2_int] keeps 63 bits, so its top bit is the OCaml int sign bit;
   mask it off — shard selection is [h mod n], which must never see a
   negative hash. *)
let rss2_int a b = mix2_int (a lxor rss_seed_a) (b lxor rss_seed_b) land max_int
