(** NFP packet metadata: MID, PID and version.

    The classifier attaches 64 bits of metadata to every packet
    (paper Fig. 5): a 20-bit Match ID naming the service graph, a 40-bit
    Packet ID unique per packet of a flow, and a 4-bit version
    distinguishing copies of the same packet. *)

type t = private { mid : int; pid : int64; version : int }

val mid_bits : int

val max_version : int
(** 15, the largest version the 4-bit field holds: a plan may use
    versions 1 to [max_version]. *)

val make : mid:int -> pid:int64 -> version:int -> t
(** @raise Invalid_argument when any component exceeds its bit width. *)

val check : mid:int -> pid:int64 -> version:int -> unit
(** {!make}'s validation alone — for callers that keep the components
    flat (e.g. {!Packet.stamp}) and must reject exactly what [make]
    rejects, without building the record.
    @raise Invalid_argument when any component exceeds its bit width. *)

val check_version : int -> unit
(** The version-width check alone ({!Packet.set_version}).
    @raise Invalid_argument outside the 4-bit range. *)

val with_version : t -> int -> t
(** Same MID/PID, different version (how [copy] tags a new copy). *)

val encode : t -> int64
(** Pack into the 64-bit wire form: MID in the top 20 bits, then PID,
    then version in the low 4 bits. *)

val decode : int64 -> t

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val zero : t
