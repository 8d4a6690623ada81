(** Transport 5-tuples.

    The classifier matches on the 5-tuple (paper Fig. 4), the load
    balancer ECMP-hashes it, and the monitor keys its counters on it. *)

type t = {
  sip : int32;
  dip : int32;
  sport : int;
  dport : int;
  proto : int;
}

val make : sip:int32 -> dip:int32 -> sport:int -> dport:int -> proto:int -> t
(** @raise Invalid_argument if a port is outside [0, 65535] or the
    protocol outside [0, 255]. *)

val equal : t -> t -> bool
(** Kept for tests: the equality of flow testables. *)

val hash : t -> int
(** ECMP-style 5-tuple hash, non-negative. *)

val reverse : t -> t
(** Swap source and destination (the return path of the flow). Kept
    for tests: the classifier tests build reply-direction flows with
    it. *)

val pp : Format.formatter -> t -> unit

val ip_to_string : int32 -> string
(** Dotted quad. Kept for tests: the address tests hold it against
    {!ip_of_string}; programs print addresses through {!pp}. *)

val ip_of_string : string -> int32 option
(** Dotted-quad parse; [None] on malformed input. *)
