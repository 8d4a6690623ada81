(** NFP packet metadata widths: MID, PID and version.

    The classifier attaches 64 bits of metadata to every packet
    (paper Fig. 5): a 20-bit Match ID naming the service graph, a 40-bit
    Packet ID unique per packet of a flow, and a 4-bit version
    distinguishing copies of the same packet. {!Packet} stores the three
    components flat; this module holds their widths. *)

val max_version : int
(** 15, the largest version the 4-bit field holds: a plan may use
    versions 1 to [max_version]. *)

val check : mid:int -> pid:int64 -> version:int -> unit
(** The width check of {!Packet.stamp}.
    @raise Invalid_argument ["Packet.stamp: <field> out of <n>-bit range"]
    when any component exceeds its bit width. *)

val check_version : string -> int -> unit
(** [check_version who v] is the version-width check alone
    ({!Packet.set_version}, {!Packet.header_only_copy}).
    @raise Invalid_argument ["<who>: version out of 4-bit range"]. *)
