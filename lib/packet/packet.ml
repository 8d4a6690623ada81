(* Wire layout: Ethernet(14) | IPv4(20, no options) | [AH(16)] | TCP(20)/UDP(8) | payload.
   Invariant: Bytes.length buf = 14 + IPv4 total length. *)

(* [g_ah]/[g_proto]/[g_l4_off] cache the header geometry (AH presence,
   innermost protocol, L4 offset) that every field accessor needs, so
   accessors don't re-parse the buffer per call. The cache is refreshed
   only where the geometry can change: construction, [add_ah],
   [remove_ah], [set_inner_proto] and [set_payload].

   The NFP metadata lives flat in [m_mid]/[m_pid]/[m_version] rather
   than as a record field: stamping and copy-tagging happen per packet
   on the dataplane's hot path, and keeping the components unboxed
   makes both plain int stores (the pid limb shares its box across
   copies). *)
type t = {
  mutable buf : bytes;
  mutable m_mid : int;
  mutable m_pid : int64;
  mutable m_version : int;
  mutable g_ah : bool;
  mutable g_proto : int;
  mutable g_l4_off : int;
}

type l4 = Tcp | Udp | Other of int

let eth_len = 14
let ip_len = 20
let ah_len = 16
let tcp_len = 20
let udp_len = 8
let ip_off = eth_len

let proto_tcp = 6
let proto_udp = 17
let proto_ah = 51

(* Byte-level accessors, big-endian. *)
let get_u8 b off = Char.code (Bytes.get b off)
let set_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = (get_u8 b off lsl 8) lor get_u8 b (off + 1)

let set_u16 b off v =
  set_u8 b off (v lsr 8);
  set_u8 b (off + 1) v

let get_u32 b off =
  Int32.logor
    (Int32.shift_left (Int32.of_int (get_u16 b off)) 16)
    (Int32.of_int (get_u16 b (off + 2)))

let set_u32 b off v =
  set_u16 b off (Int32.to_int (Int32.shift_right_logical v 16));
  set_u16 b (off + 2) (Int32.to_int (Int32.logand v 0xffffl))

let outer_proto t = get_u8 t.buf (ip_off + 9)

let refresh_geom t =
  let outer = outer_proto t in
  let ah = outer = proto_ah in
  t.g_ah <- ah;
  t.g_proto <- (if ah then get_u8 t.buf (ip_off + ip_len) else outer);
  t.g_l4_off <- (ip_off + ip_len + if ah then ah_len else 0)

let of_buf buf =
  let t = { buf; m_mid = 0; m_pid = 0L; m_version = 0; g_ah = false; g_proto = 0; g_l4_off = 0 } in
  refresh_geom t;
  t

let has_ah t = t.g_ah

let proto t = t.g_proto

let l4_off t = t.g_l4_off

let l4_protocol t =
  match t.g_proto with
  | 6 -> Tcp
  | 17 -> Udp
  | p -> Other p

let l4_header_len t = match l4_protocol t with Tcp -> tcp_len | Udp -> udp_len | Other _ -> 0

let payload_off t = l4_off t + l4_header_len t

let wire_length t = Bytes.length t.buf

let header_length t = payload_off t

let refresh_ip_checksum t =
  set_u16 t.buf (ip_off + 10) 0;
  set_u16 t.buf (ip_off + 10) (Nfp_algo.Checksum.compute t.buf ~pos:ip_off ~len:ip_len)

let ip_checksum_valid t = Nfp_algo.Checksum.verify t.buf ~pos:ip_off ~len:ip_len

(* Transport checksums cover a pseudo-header (addresses, protocol, L4
   length), so address rewrites must refresh them too (RFC 793/768).
   The field's offset, or -1 when the transport has none: an int rather
   than an option, because every address and port rewrite asks. *)
let l4_checksum_field t =
  if t.g_proto = proto_tcp then t.g_l4_off + 16
  else if t.g_proto = proto_udp then t.g_l4_off + 6
  else -1

let is_udp t = t.g_proto = proto_udp

let rec fold16 s = if s lsr 16 <> 0 then fold16 ((s land 0xffff) + (s lsr 16)) else s

(* The pseudo-header's six 16-bit words (source and destination
   address, zero and protocol, L4 length) are summed as ints where they
   lie or are computed, not laid out in a buffer of their own. *)
let l4_segment_checksum t =
  let l4o = l4_off t in
  let seg_len = Bytes.length t.buf - l4o in
  let b = t.buf in
  let pseudo =
    get_u16 b (ip_off + 12) + get_u16 b (ip_off + 14) + get_u16 b (ip_off + 16)
    + get_u16 b (ip_off + 18) + proto t + (seg_len land 0xffff)
  in
  fold16 (pseudo + Nfp_algo.Checksum.ones_complement_sum b ~pos:l4o ~len:seg_len)

(* RFC 1624 incremental update: when one 16-bit word of the segment or
   pseudo-header changes, the checksum is patched without re-summing
   the payload — what real dataplanes do on address/port rewrites. *)
let l4_incremental_update t ~old16 ~new16 =
  let field = l4_checksum_field t in
  if field >= 0 then begin
    let c = get_u16 t.buf field in
    if not (is_udp t && c = 0) then begin
      let c' =
        lnot (fold16 (lnot c land 0xffff + (lnot old16 land 0xffff) + new16)) land 0xffff
      in
      let c' = if c' = 0 && is_udp t then 0xffff else c' in
      set_u16 t.buf field c'
    end
  end

let refresh_l4_checksum t =
  let field = l4_checksum_field t in
  if field >= 0 then begin
    set_u16 t.buf field 0;
    let c = lnot (l4_segment_checksum t) land 0xffff in
    (* UDP transmits an all-zero checksum as 0xffff (RFC 768). *)
    let c = if c = 0 && is_udp t then 0xffff else c in
    set_u16 t.buf field c
  end

let l4_checksum_valid t =
  let field = l4_checksum_field t in
  (* UDP checksum 0 means "not computed". *)
  field < 0 || (is_udp t && get_u16 t.buf field = 0) || l4_segment_checksum t = 0xffff

let set_total_length t len =
  set_u16 t.buf (ip_off + 2) len;
  refresh_ip_checksum t

let dmac = "\x02\x00\x00\x00\x00\x02"
let smac = "\x02\x00\x00\x00\x00\x01"

let create ~(flow : Flow.t) ~payload () =
  let l4 = if flow.proto = proto_tcp then tcp_len else if flow.proto = proto_udp then udp_len else 0 in
  let total = ip_len + l4 + String.length payload in
  let buf = Bytes.make (eth_len + total) '\x00' in
  Bytes.blit_string dmac 0 buf 0 6;
  Bytes.blit_string smac 0 buf 6 6;
  set_u16 buf 12 0x0800;
  set_u8 buf ip_off 0x45;
  set_u16 buf (ip_off + 2) total;
  set_u16 buf (ip_off + 4) 0 (* identification *);
  set_u16 buf (ip_off + 6) 0x4000 (* don't fragment *);
  set_u8 buf (ip_off + 8) 64;
  set_u8 buf (ip_off + 9) flow.proto;
  set_u32 buf (ip_off + 12) flow.sip;
  set_u32 buf (ip_off + 16) flow.dip;
  let l4o = ip_off + ip_len in
  if flow.proto = proto_tcp then begin
    set_u16 buf l4o flow.sport;
    set_u16 buf (l4o + 2) flow.dport;
    set_u8 buf (l4o + 12) 0x50 (* data offset: 5 words *);
    set_u8 buf (l4o + 13) 0x18 (* PSH|ACK *);
    set_u16 buf (l4o + 14) 0xffff (* window *)
  end
  else if flow.proto = proto_udp then begin
    set_u16 buf l4o flow.sport;
    set_u16 buf (l4o + 2) flow.dport;
    set_u16 buf (l4o + 4) (udp_len + String.length payload)
  end;
  Bytes.blit_string payload 0 buf (eth_len + ip_len + l4) (String.length payload);
  let t = of_buf buf in
  refresh_ip_checksum t;
  refresh_l4_checksum t;
  t

let absent = create ~flow:(Flow.make ~sip:0l ~dip:0l ~sport:0 ~dport:0 ~proto:0) ~payload:"" ()

let of_bytes b =
  let len = Bytes.length b in
  if len < eth_len + ip_len then Error "packet too short for Ethernet + IPv4"
  else if get_u16 b 12 <> 0x0800 then Error "not an IPv4 ethertype"
  else if get_u8 b ip_off <> 0x45 then Error "unsupported IPv4 version/IHL"
  else
    let total = get_u16 b (ip_off + 2) in
    if eth_len + total <> len then Error "IPv4 total length disagrees with frame length"
    else begin
      let t = of_buf (Bytes.copy b) in
      let need = header_length t in
      if len < need then Error "frame truncates the transport header" else Ok t
    end

let to_bytes t = Bytes.copy t.buf

let mid t = t.m_mid

let pid t = t.m_pid

let version t = t.m_version

let stamp t ~mid ~pid ~version =
  Meta.check ~mid ~pid ~version;
  t.m_mid <- mid;
  t.m_pid <- pid;
  t.m_version <- version

let set_version t version =
  Meta.check_version "Packet.set_version" version;
  t.m_version <- version

(* IPv4 field getters/setters. *)
let sip t = get_u32 t.buf (ip_off + 12)

(* Address rewrites work on the unsigned native-int form: the int32
   setters unbox once at the boundary, and [transfer_field] moves an
   address between versions without boxing it at all. *)
let set_addr_int t off v =
  let old_hi = get_u16 t.buf off and old_lo = get_u16 t.buf (off + 2) in
  let new_hi = (v lsr 16) land 0xffff and new_lo = v land 0xffff in
  set_u16 t.buf off new_hi;
  set_u16 t.buf (off + 2) new_lo;
  l4_incremental_update t ~old16:old_hi ~new16:new_hi;
  l4_incremental_update t ~old16:old_lo ~new16:new_lo;
  refresh_ip_checksum t

let set_sip t v = set_addr_int t (ip_off + 12) (Int32.to_int v)

let dip t = get_u32 t.buf (ip_off + 16)

let set_dip t v = set_addr_int t (ip_off + 16) (Int32.to_int v)

let ttl t = get_u8 t.buf (ip_off + 8)

let set_ttl t v =
  set_u8 t.buf (ip_off + 8) v;
  refresh_ip_checksum t

let tos t = get_u8 t.buf (ip_off + 1)

let set_tos t v =
  set_u8 t.buf (ip_off + 1) v;
  refresh_ip_checksum t

let has_l4_ports t = match l4_protocol t with Tcp | Udp -> true | Other _ -> false

let sport t = if has_l4_ports t then get_u16 t.buf (l4_off t) else 0

let dport t = if has_l4_ports t then get_u16 t.buf (l4_off t + 2) else 0

let check_port p = if p < 0 || p > 0xffff then invalid_arg "Packet: port out of range"

let set_sport t p =
  check_port p;
  if has_l4_ports t then begin
    let old16 = get_u16 t.buf (l4_off t) in
    set_u16 t.buf (l4_off t) p;
    l4_incremental_update t ~old16 ~new16:p
  end

let set_dport t p =
  check_port p;
  if has_l4_ports t then begin
    let old16 = get_u16 t.buf (l4_off t + 2) in
    set_u16 t.buf (l4_off t + 2) p;
    l4_incremental_update t ~old16 ~new16:p
  end

let flow t =
  Flow.make ~sip:(sip t) ~dip:(dip t) ~sport:(sport t) ~dport:(dport t) ~proto:(proto t)

(* Unsigned native-int address reads: [sip]/[dip] box an int32 per
   call, and the classifier's microflow-cache hit path reads both per
   packet. Bit pattern matches [Int32.to_int (sip t) land 0xffffffff]. *)
let sip_int t = (get_u16 t.buf (ip_off + 12) lsl 16) lor get_u16 t.buf (ip_off + 14)

let dip_int t = (get_u16 t.buf (ip_off + 16) lsl 16) lor get_u16 t.buf (ip_off + 18)

(* The 5-tuple's two hash-key limbs ([Hashing.pack_a_int] /
   [pack_b_int]) straight from packet bytes, as the classifier, the RSS
   steering hash and the per-flow NF tables key on them. *)
let key_a t = Nfp_algo.Hashing.pack_a_int (sip_int t) (sport t) (proto t)

let key_b t = Nfp_algo.Hashing.pack_b_int (dip_int t) (dport t)

let flow_hash t = Nfp_algo.Hashing.mix2_int (key_a t) (key_b t) land max_int

let payload t =
  let off = payload_off t in
  Bytes.sub_string t.buf off (Bytes.length t.buf - off)

let payload_length t = Bytes.length t.buf - payload_off t

let payload_exists t f =
  let off = payload_off t in
  f t.buf off (Bytes.length t.buf - off)

let set_payload t payload =
  let off = payload_off t in
  let buf = Bytes.make (off + String.length payload) '\x00' in
  Bytes.blit t.buf 0 buf 0 off;
  Bytes.blit_string payload 0 buf off (String.length payload);
  t.buf <- buf;
  refresh_geom t;
  set_total_length t (Bytes.length buf - eth_len);
  if l4_protocol t = Udp then set_u16 t.buf (l4_off t + 4) (udp_len + String.length payload);
  refresh_l4_checksum t

let add_ah t ~spi ~seq ~icv =
  if has_ah t then invalid_arg "Packet.add_ah: AH header already present";
  let inner = outer_proto t in
  let insert_at = ip_off + ip_len in
  let buf = Bytes.make (Bytes.length t.buf + ah_len) '\x00' in
  Bytes.blit t.buf 0 buf 0 insert_at;
  Bytes.blit t.buf insert_at buf (insert_at + ah_len) (Bytes.length t.buf - insert_at);
  t.buf <- buf;
  set_u8 t.buf insert_at inner;
  set_u8 t.buf (insert_at + 1) ((ah_len / 4) - 2) (* RFC 4302 payload length *);
  set_u32 t.buf (insert_at + 4) spi;
  set_u32 t.buf (insert_at + 8) seq;
  set_u32 t.buf (insert_at + 12) icv;
  set_u8 t.buf (ip_off + 9) proto_ah;
  refresh_geom t;
  set_total_length t (Bytes.length t.buf - eth_len)

let ah_fields t =
  if not (has_ah t) then None
  else
    let ah_at = ip_off + ip_len in
    Some (get_u32 t.buf (ah_at + 4), get_u32 t.buf (ah_at + 8), get_u32 t.buf (ah_at + 12))

let remove_ah t =
  let fields = ah_fields t in
  if has_ah t then begin
    let ah_at = ip_off + ip_len in
    let inner = get_u8 t.buf ah_at in
    let buf = Bytes.make (Bytes.length t.buf - ah_len) '\x00' in
    Bytes.blit t.buf 0 buf 0 ah_at;
    Bytes.blit t.buf (ah_at + ah_len) buf ah_at (Bytes.length t.buf - ah_at - ah_len);
    t.buf <- buf;
    set_u8 t.buf (ip_off + 9) inner;
    refresh_geom t;
    set_total_length t (Bytes.length t.buf - eth_len)
  end;
  fields

(* Canonical string encodings used by merge operations. *)
let encode_u32 v =
  String.init 4 (fun i ->
      Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical v ((3 - i) * 8)) 0xffl)))

let decode_u32 s =
  if String.length s <> 4 then invalid_arg "Packet: field encoding must be 4 bytes";
  let b i = Int32.of_int (Char.code s.[i]) in
  Int32.logor
    (Int32.shift_left (b 0) 24)
    (Int32.logor (Int32.shift_left (b 1) 16) (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))

let encode_u16 v = String.init 2 (fun i -> Char.chr ((v lsr ((1 - i) * 8)) land 0xff))

let decode_u16 s =
  if String.length s <> 2 then invalid_arg "Packet: field encoding must be 2 bytes";
  (Char.code s.[0] lsl 8) lor Char.code s.[1]

let encode_u8 v = String.make 1 (Char.chr (v land 0xff))

let decode_u8 s =
  if String.length s <> 1 then invalid_arg "Packet: field encoding must be 1 byte";
  Char.code s.[0]

let get_field t = function
  | Field.Sip -> encode_u32 (sip t)
  | Field.Dip -> encode_u32 (dip t)
  | Field.Sport -> encode_u16 (sport t)
  | Field.Dport -> encode_u16 (dport t)
  | Field.Proto -> encode_u8 (proto t)
  | Field.Ttl -> encode_u8 (ttl t)
  | Field.Tos -> encode_u8 (tos t)
  | Field.Len -> encode_u16 (wire_length t - eth_len)
  | Field.Payload -> payload t

let set_inner_proto t v =
  if has_ah t then set_u8 t.buf (ip_off + ip_len) v
  else begin
    set_u8 t.buf (ip_off + 9) v;
    refresh_ip_checksum t
  end;
  (* The inner protocol decides the L4 interpretation (header length,
     checksum field), so the cached geometry must follow it. *)
  refresh_geom t

let set_field t field s =
  match field with
  | Field.Sip -> set_sip t (decode_u32 s)
  | Field.Dip -> set_dip t (decode_u32 s)
  | Field.Sport -> set_sport t (decode_u16 s)
  | Field.Dport -> set_dport t (decode_u16 s)
  | Field.Proto -> set_inner_proto t (decode_u8 s)
  | Field.Ttl -> set_ttl t (decode_u8 s)
  | Field.Tos -> set_tos t (decode_u8 s)
  | Field.Len ->
      (* Length is derived: setting it resizes the payload, truncating
         or zero-padding to reach the requested IP total length. *)
      let target = decode_u16 s in
      let header = header_length t - eth_len in
      let want = max 0 (target - header) in
      let current = payload t in
      let resized =
        if String.length current >= want then String.sub current 0 want
        else current ^ String.make (want - String.length current) '\x00'
      in
      set_payload t resized
  | Field.Payload -> set_payload t s

(* Header fields move as ints through their setters, which write the
   same bytes (and the same incremental checksum updates) as the string
   round trip: a merge op's [Modify] allocates nothing. *)
let transfer_field ~dst ~src field =
  match field with
  | Field.Sip -> set_addr_int dst (ip_off + 12) (sip_int src)
  | Field.Dip -> set_addr_int dst (ip_off + 16) (dip_int src)
  | Field.Sport -> set_sport dst (sport src)
  | Field.Dport -> set_dport dst (dport src)
  | Field.Proto -> set_inner_proto dst (proto src)
  | Field.Ttl -> set_ttl dst (ttl src)
  | Field.Tos -> set_tos dst (tos src)
  | Field.Len | Field.Payload -> set_field dst field (get_field src field)

let full_copy t =
  {
    buf = Bytes.copy t.buf;
    m_mid = t.m_mid;
    m_pid = t.m_pid;
    m_version = t.m_version;
    g_ah = t.g_ah;
    g_proto = t.g_proto;
    g_l4_off = t.g_l4_off;
  }

(* [full_copy] into an existing packet: [dst]'s bytes are reused when
   the lengths match, so refilling a slot with a packet of the same size
   allocates nothing. *)
let copy_into ~dst src =
  let len = Bytes.length src.buf in
  if Bytes.length dst.buf = len then Bytes.blit src.buf 0 dst.buf 0 len
  else dst.buf <- Bytes.copy src.buf;
  dst.m_mid <- src.m_mid;
  dst.m_pid <- src.m_pid;
  dst.m_version <- src.m_version;
  dst.g_ah <- src.g_ah;
  dst.g_proto <- src.g_proto;
  dst.g_l4_off <- src.g_l4_off

let header_only_copy t ~version =
  Meta.check_version "Packet.header_only_copy" version;
  let hlen = header_length t in
  let buf = Bytes.sub t.buf 0 hlen in
  let copy =
    {
      buf;
      m_mid = t.m_mid;
      m_pid = t.m_pid;
      m_version = version;
      g_ah = t.g_ah;
      g_proto = t.g_proto;
      g_l4_off = t.g_l4_off;
    }
  in
  (* The copy must parse as a valid packet: its IP total length now
     covers only the headers (paper §4.2). *)
  set_total_length copy (hlen - eth_len);
  if l4_protocol copy = Udp then set_u16 copy.buf (l4_off copy + 4) udp_len;
  refresh_l4_checksum copy;
  copy

let equal_wire a b = Bytes.equal a.buf b.buf

let pp fmt t =
  Format.fprintf fmt "@[<h>%a len=%dB%s ttl=%d tos=%d [mid=%d pid=%Ld v%d]@]" Flow.pp (flow t)
    (wire_length t)
    (if has_ah t then " +AH" else "")
    (ttl t) (tos t) t.m_mid t.m_pid t.m_version
