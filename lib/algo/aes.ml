(* FIPS-197 AES-128. S-boxes are generated at module initialisation from
   the GF(2^8) inverse rather than pasted as literal tables; round keys
   are int arrays of bytes. *)

let xtime b = if b land 0x80 <> 0 then ((b lsl 1) lxor 0x1b) land 0xff else (b lsl 1) land 0xff

(* GF(2^8) multiplication. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

let sbox = Array.make 256 0
let inv_sbox = Array.make 256 0

(* Precomputed GF(2^8) multiplication tables for the MixColumns
   coefficients; gmul bit-loops per byte would dominate the cipher. *)
let mul2 = Array.make 256 0
let mul3 = Array.make 256 0
let mul9 = Array.make 256 0
let mul11 = Array.make 256 0
let mul13 = Array.make 256 0
let mul14 = Array.make 256 0

let () =
  for x = 0 to 255 do
    mul2.(x) <- gmul x 2;
    mul3.(x) <- gmul x 3;
    mul9.(x) <- gmul x 9;
    mul11.(x) <- gmul x 11;
    mul13.(x) <- gmul x 13;
    mul14.(x) <- gmul x 14
  done

let () =
  (* Build the S-box from multiplicative inverses and the affine map. *)
  let inv = Array.make 256 0 in
  for x = 1 to 255 do
    for y = 1 to 255 do
      if gmul x y = 1 then inv.(x) <- y
    done
  done;
  for x = 0 to 255 do
    let b = inv.(x) in
    let rot b n = ((b lsl n) lor (b lsr (8 - n))) land 0xff in
    let s = b lxor rot b 1 lxor rot b 2 lxor rot b 3 lxor rot b 4 lxor 0x63 in
    sbox.(x) <- s;
    inv_sbox.(s) <- x
  done

type key = { rk : int array (* 176 bytes: 11 round keys *) }

let expand_key k =
  if String.length k <> 16 then invalid_arg "Aes.expand_key: key must be 16 bytes";
  let rk = Array.make 176 0 in
  for i = 0 to 15 do
    rk.(i) <- Char.code k.[i]
  done;
  let rcon = ref 1 in
  for i = 4 to 43 do
    let base = i * 4 in
    let prev = base - 4 in
    let t = Array.make 4 0 in
    for j = 0 to 3 do
      t.(j) <- rk.(prev + j)
    done;
    if i mod 4 = 0 then begin
      (* RotWord + SubWord + Rcon *)
      let tmp = t.(0) in
      t.(0) <- sbox.(t.(1)) lxor !rcon;
      t.(1) <- sbox.(t.(2));
      t.(2) <- sbox.(t.(3));
      t.(3) <- sbox.(tmp);
      rcon := xtime !rcon
    end;
    for j = 0 to 3 do
      rk.(base + j) <- rk.(base - 16 + j) lxor t.(j)
    done
  done;
  { rk }

let add_round_key st rk round =
  for i = 0 to 15 do
    st.(i) <- st.(i) lxor rk.((round * 16) + i)
  done

let sub_bytes st =
  for i = 0 to 15 do
    st.(i) <- sbox.(st.(i))
  done

let inv_sub_bytes st =
  for i = 0 to 15 do
    st.(i) <- inv_sbox.(st.(i))
  done

(* State is column-major: st.(4*c + r) is row r, column c. *)
let shift_rows st =
  let copy = Array.copy st in
  for c = 0 to 3 do
    for r = 0 to 3 do
      st.((4 * c) + r) <- copy.((4 * ((c + r) mod 4)) + r)
    done
  done

let inv_shift_rows st =
  let copy = Array.copy st in
  for c = 0 to 3 do
    for r = 0 to 3 do
      st.((4 * ((c + r) mod 4)) + r) <- copy.((4 * c) + r)
    done
  done

let mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) and a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- mul2.(a0) lxor mul3.(a1) lxor a2 lxor a3;
    st.((4 * c) + 1) <- a0 lxor mul2.(a1) lxor mul3.(a2) lxor a3;
    st.((4 * c) + 2) <- a0 lxor a1 lxor mul2.(a2) lxor mul3.(a3);
    st.((4 * c) + 3) <- mul3.(a0) lxor a1 lxor a2 lxor mul2.(a3)
  done

let inv_mix_columns st =
  for c = 0 to 3 do
    let a0 = st.(4 * c) and a1 = st.((4 * c) + 1) and a2 = st.((4 * c) + 2) and a3 = st.((4 * c) + 3) in
    st.(4 * c) <- mul14.(a0) lxor mul11.(a1) lxor mul13.(a2) lxor mul9.(a3);
    st.((4 * c) + 1) <- mul9.(a0) lxor mul14.(a1) lxor mul11.(a2) lxor mul13.(a3);
    st.((4 * c) + 2) <- mul13.(a0) lxor mul9.(a1) lxor mul14.(a2) lxor mul11.(a3);
    st.((4 * c) + 3) <- mul11.(a0) lxor mul13.(a1) lxor mul9.(a2) lxor mul14.(a3)
  done

let check_block buf pos =
  if pos < 0 || pos + 16 > Bytes.length buf then
    invalid_arg "Aes: block overruns buffer"

let load buf pos st =
  for i = 0 to 15 do
    st.(i) <- Char.code (Bytes.get buf (pos + i))
  done

let store buf pos st =
  for i = 0 to 15 do
    Bytes.set buf (pos + i) (Char.chr st.(i))
  done

let encrypt_state k st =
  add_round_key st k.rk 0;
  for round = 1 to 9 do
    sub_bytes st;
    shift_rows st;
    mix_columns st;
    add_round_key st k.rk round
  done;
  sub_bytes st;
  shift_rows st;
  add_round_key st k.rk 10

let encrypt_block k buf ~pos =
  check_block buf pos;
  let st = Array.make 16 0 in
  load buf pos st;
  encrypt_state k st;
  store buf pos st

let decrypt_block k buf ~pos =
  check_block buf pos;
  let st = Array.make 16 0 in
  load buf pos st;
  add_round_key st k.rk 10;
  for round = 9 downto 1 do
    inv_shift_rows st;
    inv_sub_bytes st;
    add_round_key st k.rk round;
    inv_mix_columns st
  done;
  inv_shift_rows st;
  inv_sub_bytes st;
  add_round_key st k.rk 0;
  store buf pos st

let ctr_transform k ~nonce buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length buf then
    invalid_arg "Aes.ctr_transform: range overruns buffer";
  let block = Array.make 16 0 in
  let counter = ref 0 in
  let off = ref 0 in
  while !off < len do
    (* Counter block: 8-byte nonce ++ 8-byte counter, big-endian. *)
    for i = 0 to 7 do
      block.(i) <- Int64.to_int (Int64.logand (Int64.shift_right_logical nonce ((7 - i) * 8)) 0xffL)
    done;
    for i = 0 to 7 do
      block.(8 + i) <- (!counter lsr ((7 - i) * 8)) land 0xff
    done;
    encrypt_state k block;
    let chunk = min 16 (len - !off) in
    for i = 0 to chunk - 1 do
      let j = pos + !off + i in
      Bytes.set buf j (Char.chr (Char.code (Bytes.get buf j) lxor block.(i)))
    done;
    off := !off + chunk;
    incr counter
  done
