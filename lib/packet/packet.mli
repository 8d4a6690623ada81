(** Byte-level packets: Ethernet / IPv4 [/ AH] / TCP|UDP / payload.

    A packet owns its wire bytes plus the 64-bit NFP metadata the
    classifier attaches (paper Fig. 5). Field accessors keep the IPv4
    header checksum valid; header add/remove supports the VPN's IPsec AH
    encapsulation; {!header_only_copy} implements the paper's
    Header-Only Copying optimisation (§4.2), rewriting the copied IP
    total-length to cover just the headers so parallel NFs still see a
    well-formed packet. *)

type t

(** {1 Construction and parsing} *)

val create : flow:Flow.t -> payload:string -> unit -> t
(** Build a well-formed packet for [flow] carrying [payload], with TTL
    64, TOS 0 and locally administered MAC addresses. The L4 header is
    TCP for proto 6, UDP for proto 17, absent otherwise. Checksums are
    computed. *)

val absent : t
(** The shared placeholder for a packet version that does not exist,
    so a version store can answer a lookup without an option: test for
    it with [==]. No other packet is physically equal to it; never
    mutate it. *)

val of_bytes : bytes -> (t, string) result
(** Parse wire bytes (metadata zeroed). Validates lengths and the
    ethertype; does not require valid checksums. *)

val to_bytes : t -> bytes
(** A copy of the wire bytes. *)

val wire_length : t -> int
(** Bytes on the wire, Ethernet header included. *)

(** {1 Metadata} *)

val mid : t -> int
(** The metadata Match ID, read flat (no allocation). *)

val pid : t -> int64
(** The metadata Packet ID; returns the stored box, allocating nothing. *)

val version : t -> int
(** The metadata copy version, read flat (no allocation). *)

val stamp : t -> mid:int -> pid:int64 -> version:int -> unit
(** Set all three metadata components — what the classifier does per
    packet. @raise Invalid_argument when a component exceeds its bit
    width ({!Meta.check}). *)

val set_version : t -> int -> unit
(** Retag the copy version only.
    @raise Invalid_argument outside the 4-bit range. *)

(** {1 Field access}

    Getters/setters for the fields of {!Field.t}. Setters that touch
    the IPv4 header refresh its checksum. *)

val flow : t -> Flow.t

val sip : t -> int32
(** Kept for tests: programs read the source address through
    {!sip_int} or {!flow}; the tests check rewritten addresses with
    this. *)

val set_sip : t -> int32 -> unit

val dip : t -> int32
val set_dip : t -> int32 -> unit

val sip_int : t -> int
val dip_int : t -> int
(** Unsigned native-int forms of {!sip}/{!dip} (the int32 forms box
    their result; {!key_a}/{!key_b} and the L3 forwarder's route lookup
    use these). *)

val sport : t -> int
(** 0 when the packet has no TCP/UDP header. Kept for tests, like
    {!proto}: the firewall's reference model reads the fields one by
    one, programs through {!key_a}. *)

val set_sport : t -> int -> unit
(** No-op on packets without a transport header.
    @raise Invalid_argument if the port is out of range. *)

val dport : t -> int
val set_dport : t -> int -> unit
(** Kept for tests, like {!ttl} and {!set_ttl}: tests write these
    fields directly, NFs through {!set_field}. *)

val ttl : t -> int
(** Kept for tests: see {!set_dport}. *)

val set_ttl : t -> int -> unit
(** Kept for tests: see {!set_dport}. *)

val tos : t -> int
val set_tos : t -> int -> unit

val proto : t -> int
(** The innermost protocol (looks through an AH header). Kept for
    tests: see {!sport}. *)

val key_a : t -> int
val key_b : t -> int
(** The 5-tuple packed into two non-negative native-int limbs,
    [Hashing.pack_a_int (sip_int t) (sport t) (proto t)] and
    [Hashing.pack_b_int (dip_int t) (dport t)]: the key of the
    classifier's microflow cache, the RSS steering hash and the per-flow
    NF tables. Read from the packet bytes; no allocation. *)

val flow_hash : t -> int
(** [Flow.hash (flow t)], bit for bit, without building the flow. *)

val payload : t -> string
(** A copy of the payload bytes. *)

val payload_length : t -> int
(** [String.length (payload t)], without the copy. *)

val payload_exists : t -> (bytes -> int -> int -> bool) -> bool
(** [payload_exists t f] is [f buf pos len] where [buf] is the packet's
    own buffer and [pos, pos + len) its payload: a zero-copy read-only
    scan. [f] must neither mutate [buf] nor keep it past the call. *)

val set_payload : t -> string -> unit
(** Replacing the payload may change packet length; IP total length and
    checksum are updated. *)

val get_field : t -> Field.t -> string
(** Canonical string encoding of a field's current value (used by the
    merger to transplant fields between versions and by tests to
    compare packets field-wise). *)

val set_field : t -> Field.t -> string -> unit
(** Inverse of {!get_field}. @raise Invalid_argument on an encoding that
    does not fit the field. *)

val transfer_field : dst:t -> src:t -> Field.t -> unit
(** [transfer_field ~dst ~src f] writes the same bytes into [dst] as
    [set_field dst f (get_field src f)]. Header fields move as ints and
    allocate nothing; [Len] and [Payload] take the string path. *)

(** {1 IPsec AH encapsulation (VPN NF)} *)

val has_ah : t -> bool

val ah_fields : t -> (int32 * int32 * int32) option
(** The AH header's (spi, seq, icv), read in place; [None] when
    absent. *)

val add_ah : t -> spi:int32 -> seq:int32 -> icv:int32 -> unit
(** Insert a 16-byte Authentication Header between IPv4 and the
    transport header (tunnel-mode-style wrap used by the paper's VPN
    NF). IPv4 protocol becomes 51; lengths/checksum updated.
    @raise Invalid_argument if the packet already has an AH header. *)

val remove_ah : t -> (int32 * int32 * int32) option
(** Strip the AH header, restoring the inner protocol; returns
    (spi, seq, icv) or [None] when absent. *)

val ip_checksum_valid : t -> bool
(** Whether the IPv4 header checksum verifies. Kept for tests, like
    {!l4_checksum_valid}: the oracle that every rewrite keeps the
    checksums right. *)

val l4_checksum_valid : t -> bool
(** TCP/UDP checksum over the RFC pseudo-header and segment; [true]
    for packets without a transport header and for UDP's "checksum
    disabled" zero. Field setters (including address rewrites, which
    touch the pseudo-header) keep it valid. Kept for tests: see
    {!ip_checksum_valid}. *)

(** {1 Copies (paper §4.2, §5.2)} *)

val full_copy : t -> t
(** Deep copy, same metadata. *)

val copy_into : dst:t -> t -> unit
(** [copy_into ~dst src] makes [dst] a deep copy of [src], metadata
    included, reusing [dst]'s bytes when both packets have the same
    wire length (no allocation) and replacing them otherwise. *)

val header_only_copy : t -> version:int -> t
(** Copy Ethernet + IPv4 [+ AH] + transport headers only; the copy's IP
    total length is set to the header length so it parses as a valid,
    payload-less packet, and its metadata version becomes [version]. *)

val header_length : t -> int
(** Length in bytes that {!header_only_copy} would copy. *)

(** {1 Comparison and printing} *)

val equal_wire : t -> t -> bool
(** Byte equality of wire representations (ignores metadata). *)

val pp : Format.formatter -> t -> unit
