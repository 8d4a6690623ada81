(** Flow match specifications — the Match column of the paper's
    Classification Table (Fig. 4).

    The classifier matches each incoming packet's 5-tuple against an
    ordered list of these specs to pick the service graph (MID) the
    packet belongs to. Prefixes, port ranges and protocol are all
    optional; an empty spec matches everything. *)

type t = {
  sip_prefix : (int32 * int) option;  (** prefix, length 0-32 *)
  dip_prefix : (int32 * int) option;
  sport_range : (int * int) option;  (** inclusive *)
  dport_range : (int * int) option;
  proto : int option;
}

val any : t
(** Matches every packet. *)

val make :
  ?sip_prefix:int32 * int ->
  ?dip_prefix:int32 * int ->
  ?sport_range:int * int ->
  ?dport_range:int * int ->
  ?proto:int ->
  unit ->
  t
(** Kept for tests: [sip_prefix], since programs match on the other
    fields only. @raise Invalid_argument on prefix lengths outside [0, 32],
    ports outside [0, 65535], or inverted ranges. *)

val of_flow : Flow.t -> t
(** Exact match on one 5-tuple. Kept for tests: the classifier tests
    write exact-match rules with it. *)

val matches : t -> Flow.t -> bool

val matches_packet : t -> Packet.t -> bool

val is_any : t -> bool
(** Whether the rule is {!any}. Kept for tests: the rule tests check
    the wildcard with it. *)
