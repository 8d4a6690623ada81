(** AES-128 block cipher with CTR-mode encryption.

    Cryptographic substrate of the VPN NF (paper §6.1: "encrypts a packet
    based on the AES algorithm and wraps it with an AH header"). Pure
    OCaml, table-based; implements FIPS-197 encryption/decryption on
    16-byte blocks plus a CTR keystream mode so arbitrary-length payloads
    encrypt and decrypt symmetrically. Not intended to be constant-time —
    it exists to give the simulated VPN a realistic per-byte work
    profile and verifiable semantics. *)

type key

val expand_key : string -> key
(** [expand_key k] expands a 16-byte key string.
    @raise Invalid_argument if [String.length k <> 16]. *)

val encrypt_block : key -> bytes -> pos:int -> unit
(** Encrypt the 16-byte block at [pos] in place.
    @raise Invalid_argument if the block overruns the buffer. *)

val decrypt_block : key -> bytes -> pos:int -> unit
(** Inverse of {!encrypt_block}. Kept for tests: the round-trip
    oracle for the cipher; no NF decrypts. *)

val ctr_transform : key -> nonce:int64 -> bytes -> pos:int -> len:int -> unit
(** [ctr_transform key ~nonce buf ~pos ~len] XORs the CTR keystream for
    [nonce] over [len] bytes starting at [pos]. Applying it twice with
    the same nonce restores the original bytes. *)
