open Nfp_packet

type payload_style = Random_bytes | Ascii | Tagged

type config = {
  flows : int;
  sizes : Size_dist.t;
  proto : int;
  payload_style : payload_style;
  seed : int64;
}

let default =
  { flows = 64; sizes = Size_dist.fixed 64; proto = 6; payload_style = Ascii; seed = 1L }

type t = config

let header_bytes = 54

let create config =
  if config.flows <= 0 then invalid_arg "Pktgen.create: need at least one flow";
  if List.exists (fun (size, _) -> size < header_bytes) config.sizes then
    invalid_arg "Pktgen.create: frame sizes must be >= 54 bytes";
  config

let prng_of t i =
  Nfp_algo.Prng.create ~seed:(Int64.add t.seed (Int64.mul 0x100000001L (Int64.of_int i)))

let flow_of_index t i =
  let f = i mod t.flows in
  (* Client side 10.0.0.0/16, server side 10.8.0.0/16; destination
     ports above 61000 stay clear of the synthetic ACL's deny bands. *)
  let sip = Int32.of_int ((10 lsl 24) lor ((f mod 200) lsl 8) lor ((f / 200) + 1)) in
  let dip = Int32.of_int ((10 lsl 24) lor (8 lsl 16) lor ((f mod 250) lsl 8) lor 10) in
  Flow.make ~sip ~dip ~sport:(10000 + (f mod 40000)) ~dport:(61000 + (f mod 4000))
    ~proto:t.proto

(* Mixed-case alphanumerics: IDS signatures are lowercase-only strings of
   length >= 6, so this alphabet cannot produce six consecutive
   lowercase letters that match. *)
let ascii_alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789abcdefghijklm"

(* The alphabet uppercased entry-for-entry: odd positions draw from this
   table, which never puts two adjacent lowercase letters while avoiding
   an uppercase_ascii call per byte. *)
let ascii_upper = String.map Char.uppercase_ascii ascii_alphabet

(* Payload synthesis is per-byte work on every generated packet, so the
   fills are explicit loops over a preallocated buffer rather than
   String.init closures. *)
let fill_ascii prng buf pos len =
  let bound = String.length ascii_alphabet in
  for j = 0 to len - 1 do
    let k = Nfp_algo.Prng.int prng ~bound in
    Bytes.unsafe_set buf (pos + j)
      (if j land 1 = 0 then String.unsafe_get ascii_alphabet k
       else String.unsafe_get ascii_upper k)
  done

let payload t prng i len =
  match t.payload_style with
  | Random_bytes ->
      let buf = Bytes.create len in
      for j = 0 to len - 1 do
        Bytes.unsafe_set buf j (Char.unsafe_chr (Nfp_algo.Prng.int prng ~bound:256))
      done;
      Bytes.unsafe_to_string buf
  | Ascii ->
      let buf = Bytes.create len in
      fill_ascii prng buf 0 len;
      Bytes.unsafe_to_string buf
  | Tagged ->
      let tag = Printf.sprintf "#%d;" i in
      let tlen = String.length tag in
      if len <= tlen then String.sub tag 0 len
      else begin
        let buf = Bytes.create len in
        Bytes.blit_string tag 0 buf 0 tlen;
        fill_ascii prng buf tlen (len - tlen);
        Bytes.unsafe_to_string buf
      end

let packet t i =
  let prng = prng_of t i in
  let size = Size_dist.sample prng t.sizes in
  let payload_len = size - header_bytes in
  Packet.create ~flow:(flow_of_index t i) ~payload:(payload t prng i payload_len) ()
