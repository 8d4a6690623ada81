(** The Degrade fallback: sequential twin chains that carry a graph's
    new packets while the watchdog holds it degraded. *)

val chains :
  Runtime.t ->
  (int * Nfp_core.Tables.nf_entry * Nfp_nf.Nf.t) list ->
  ('m * Nfp_core.Tables.plan * 'nfs) array ->
  (int64 * Nfp_packet.Packet.t, unit) Nfp_sim.Server.t option array
(** [chains rt nf_impls table]: per graph of [table] (indexed by
    MID - 1), the head core of its twin chain ([seq:mid<k>:<nf>]), or
    [None] when no NF of the graph recovers by [Degrade]. A chain runs
    the graph's NFs in the plan's serial order and delivers through
    {!Delivery.deliver_out}; its cores split a jitter stream of their
    own, so building them leaves the main stream untouched. *)
