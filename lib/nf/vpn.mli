(** IPsec AH-style VPN (paper §6.1: "implements the tunnel mode of IPsec
    Authentication Header protocol. It encrypts a packet based on the
    AES algorithm and wraps it with an AH header").

    Encrypts the payload with AES-128-CTR (the flow hash and sequence
    number form the nonce) and inserts an AH header carrying SPI,
    sequence number, and a payload ICV. Profile per Table 2: reads
    SIP/DIP, reads+writes the payload, adds/removes headers. *)

type stats = { encrypted : unit -> int; sequence : unit -> int32 }

val create : ?name:string -> ?key:string -> unit -> Nf.t * stats
(** Every tunnel carries SPI 0x1001. Kept for tests: [key], which the
    tests decrypt with a key of their own.
    @raise Invalid_argument if [key] is not 16 bytes. *)

val decrypt : key:string -> Nfp_packet.Packet.t -> bool
(** Companion tunnel exit: strips the AH header and decrypts the
    payload; [false] when the packet carries no AH. Kept for tests: the
    round-trip oracle for the VPN's encryption. *)
