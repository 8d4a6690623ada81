(** OpenBox-style NF building blocks (paper §7, Fig. 15).

    Modular NFs decompose into blocks — packet readers, header
    classifiers, DPI engines, alert emitters — each with its own action
    profile, so NFP's dependency analysis applies at block granularity
    ("NF parallelism can be implemented in the granularity of building
    blocks"). *)

open Nfp_packet
open Nfp_nf

type outcome =
  | Continue  (** pass the packet to the next block *)
  | Dropped  (** classifier/DPI verdict: discard *)
  | Alerted of string  (** emit an alert and keep going *)

type t = {
  name : string;  (** unique within a pipeline, e.g. "dpi" *)
  kind : string;  (** block type for prefix sharing, e.g. "HeaderClassifier" *)
  config_key : int;  (** two blocks share work only if kind+config match *)
  profile : Action.t list;
  cost_cycles : int;
  process : Packet.t -> outcome;
}

val read_packets : unit -> t
(** NIC read block; no packet actions. *)

val header_classifier : name:string -> acl:Firewall.rule list -> t
(** Match 5-tuples against an ACL, compiled once by
    {!Firewall.compile} (whose errors it raises); drops on a deny rule. *)

val dpi : name:string -> signatures:string list -> t
(** Payload signature matching; drops on a match (IPS semantics). *)

val alert : name:string -> source:string -> t
(** Emit an alert tagged with its source NF; counts as payload-free
    read-only work. *)

val output : unit -> t
(** Terminal TX block. *)

val same_work : t -> t -> bool
(** Two blocks perform identical work (kind and configuration) — the
    sharing test OpenBox graph merging uses. *)

val pp : Format.formatter -> t -> unit
