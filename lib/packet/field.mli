(** Packet fields that NF action profiles talk about.

    These are the columns of paper Table 2: the orchestrator reasons
    about which fields an NF reads or writes, and merge operations name
    the field they transplant between packet versions. *)

type t =
  | Sip  (** IPv4 source address *)
  | Dip  (** IPv4 destination address *)
  | Sport  (** transport source port *)
  | Dport  (** transport destination port *)
  | Proto  (** IPv4 protocol number *)
  | Ttl  (** IPv4 time-to-live *)
  | Tos  (** IPv4 type-of-service / DSCP *)
  | Len
      (** total packet length — read by byte counters and policers,
          written implicitly by every NF that resizes the payload. Not
          preserved by header-only copies (the copy's length is
          rewritten to the header size), so length readers force full
          copies. An extension over the paper's Table 2 field set,
          needed for exact internal-state equivalence. *)
  | Payload  (** everything past the transport header *)

val all : t list

val equal : t -> t -> bool

val compare : t -> t -> int

val to_string : t -> string
(** Kept for tests: the name round-trip tests print fields with it. *)

val of_string : string -> t option
(** Case-insensitive; accepts the names printed by {!to_string}. Kept
    for tests: the inverse the name round-trip tests check with. *)

val pp : Format.formatter -> t -> unit
