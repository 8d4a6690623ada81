(** Byte-level packets: Ethernet / IPv4 [/ AH] / TCP|UDP / payload.

    A packet owns its wire bytes plus the 64-bit NFP metadata the
    classifier attaches (paper Fig. 5). Field accessors keep the IPv4
    header checksum valid; header add/remove supports the VPN's IPsec AH
    encapsulation; {!header_only_copy} implements the paper's
    Header-Only Copying optimisation (§4.2), rewriting the copied IP
    total-length to cover just the headers so parallel NFs still see a
    well-formed packet. *)

type t

type l4 = Tcp | Udp | Other of int

(** {1 Construction and parsing} *)

val create :
  ?dmac:string ->
  ?smac:string ->
  ?ttl:int ->
  ?tos:int ->
  flow:Flow.t ->
  payload:string ->
  unit ->
  t
(** Build a well-formed packet for [flow] carrying [payload]. The L4
    header is TCP for proto 6, UDP for proto 17, absent otherwise.
    Checksums are computed. MAC addresses default to locally
    administered constants. @raise Invalid_argument if a MAC is not 6
    bytes. *)

val of_bytes : bytes -> (t, string) result
(** Parse wire bytes (metadata zeroed). Validates lengths and the
    ethertype; does not require valid checksums. *)

val to_bytes : t -> bytes
(** A copy of the wire bytes. *)

val wire_length : t -> int
(** Bytes on the wire, Ethernet header included. *)

(** {1 Metadata} *)

val meta : t -> Meta.t
(** Materializes a {!Meta.t} from the flat components; prefer {!mid} /
    {!pid} / {!version} on hot paths (this allocates, those do not). *)

val set_meta : t -> Meta.t -> unit

val mid : t -> int
(** The metadata Match ID, read flat (no allocation). *)

val pid : t -> int64
(** The metadata Packet ID; returns the stored box, allocating nothing. *)

val version : t -> int
(** The metadata copy version, read flat (no allocation). *)

val stamp : t -> mid:int -> pid:int64 -> version:int -> unit
(** Set all three metadata components without building a {!Meta.t} —
    what the classifier does per packet.
    @raise Invalid_argument exactly when {!Meta.make} would. *)

val set_version : t -> int -> unit
(** Retag the copy version only.
    @raise Invalid_argument outside the 4-bit range. *)

(** {1 Field access}

    Getters/setters for the fields of {!Field.t}. Setters that touch
    the IPv4 header refresh its checksum. *)

val flow : t -> Flow.t

val sip : t -> int32
val set_sip : t -> int32 -> unit

val dip : t -> int32
val set_dip : t -> int32 -> unit

val sip_int : t -> int
val dip_int : t -> int
(** Unsigned native-int forms of {!sip}/{!dip} (the int32 forms box
    their result; the classifier's per-packet cache probe uses these). *)

val sport : t -> int
(** 0 when the packet has no TCP/UDP header. *)

val set_sport : t -> int -> unit
(** No-op on packets without a transport header.
    @raise Invalid_argument if the port is out of range. *)

val dport : t -> int
val set_dport : t -> int -> unit

val ttl : t -> int
val set_ttl : t -> int -> unit

val tos : t -> int
val set_tos : t -> int -> unit

val proto : t -> int
(** The innermost protocol (looks through an AH header). *)

val l4_protocol : t -> l4

val payload : t -> string
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

(** {1 IPsec AH encapsulation (VPN NF)} *)

val has_ah : t -> bool

val add_ah : t -> spi:int32 -> seq:int32 -> icv:int32 -> unit
(** Insert a 16-byte Authentication Header between IPv4 and the
    transport header (tunnel-mode-style wrap used by the paper's VPN
    NF). IPv4 protocol becomes 51; lengths/checksum updated.
    @raise Invalid_argument if the packet already has an AH header. *)

val remove_ah : t -> (int32 * int32 * int32) option
(** Strip the AH header, restoring the inner protocol; returns
    (spi, seq, icv) or [None] when absent. *)

val ip_checksum_valid : t -> bool

val l4_checksum_valid : t -> bool
(** TCP/UDP checksum over the RFC pseudo-header and segment; [true]
    for packets without a transport header and for UDP's "checksum
    disabled" zero. Field setters (including address rewrites, which
    touch the pseudo-header) keep it valid. *)

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

val pp_hex : Format.formatter -> t -> unit
