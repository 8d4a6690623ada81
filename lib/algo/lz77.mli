(** Byte-oriented LZ77 compression.

    Substrate of the compression NF (paper Table 2: "Compression — Cisco
    IOS", action R/W on payload). The format is self-contained: a token
    stream of literals and (distance, length) back-references; decompress
    inverts compress exactly. *)

val compress : string -> string

val decompress : string -> string
(** Kept for tests: the round-trip oracle for {!compress}; the NF only
    compresses. @raise Invalid_argument on a malformed token stream. *)
