(** The output side of every path of the compiled dataplane: the
    exactly-once delivery filter and the egress edge. *)

val deliver_out : Runtime.t -> Nfp_packet.Packet.t -> unit
(** Send a packet to the egress NIC, named by its own metadata (PID,
    version); on armed runs a (PID, version) already delivered is
    counted in [health.deduped] instead. *)

val delivery_port : Runtime.t -> Nfp_packet.Packet.t -> bool
(** The egress edge, crossing the ["delivery"] link when the link plan
    names it; a Down link's reroute is delivery itself. *)
