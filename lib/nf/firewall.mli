(** Stateless ACL firewall (paper §6.1: "similar to the Click IPFilter
    element… passes or drops packets according to an ACL containing 100
    rules").

    Profile: reads SIP/DIP/SPORT/DPORT, may drop (paper Table 2). *)

open Nfp_packet

type rule = {
  sip_prefix : int32 * int;  (** prefix, length; length 0 matches all *)
  dip_prefix : int32 * int;
  sport_range : int * int;  (** inclusive *)
  dport_range : int * int;
  proto : int option;
  permit : bool;
}

val any_rule : permit:bool -> rule
(** Wildcard rule. *)

val default_acl : int -> rule list
(** [default_acl n] is a deterministic ACL of [n] deny rules over a
    synthetic address plan, followed by an implicit permit — the
    evaluation workload's "ACL containing 100 rules". *)

type acl
(** An ACL compiled for first-match lookup: a {!Nfp_packet.Tuple_space}
    over its rules and a deny flag per rule, read with no allocation.
    The default ACL's 100 rules share one shape (a source /24), so a
    lookup probes one table. *)

val compile : rule list -> acl
(** [compile rules] keeps the rules' order for {!denies}.
    @raise Invalid_argument if a prefix length is outside [0, 32] or a
    [proto] outside [0, 255]. *)

val denies : acl -> Packet.t -> bool
(** [denies acl pkt] is [true] when the first rule matching [pkt]'s
    SIP/DIP/SPORT/DPORT/protocol is a deny rule; no match permits. A
    packet without L4 ports has ports 0. Allocates nothing. *)

type stats = { passed : unit -> int; dropped : unit -> int }

val create :
  ?name:string -> ?extra_cycles:int -> ?acl:rule list -> unit -> Nf.t * stats
(** [extra_cycles] makes the firewall busy-loop after processing — the
    paper's NF-complexity knob for Fig. 9. The ACL defaults to
    [default_acl 100], compiled once per process and shared. First
    matching rule wins ({!denies}); no match permits. @raise Invalid_argument as {!compile} does. *)
