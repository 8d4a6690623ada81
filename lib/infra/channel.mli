(** Link channels: the modeled fabric edge in front of every
    destination core's ring.

    All edges landing on one core (classifier->NF, NF->NF,
    branch->merger, merger->delivery, migration transfers) share its
    channel, the way they share the physical ingress port; the
    channel's fault processes come from a {!Nfp_sim.Fault.link_plan}
    resolved by link name; a link that no spec matches gets no channel
    at all. A {e raw} channel applies the fabric's faults and nothing
    else. A
    {e reliable} channel layers an ARQ protocol on the same lossy
    fabric: per-link sequence numbers, a bounded sender window (a full
    window refuses the send, preserving upstream cursor-retry
    backpressure), cumulative acks on a breath-completion cadence,
    NACK- and RTO-driven retransmission with exponential backoff and a
    per-packet budget, a bounded reorder buffer releasing strictly in
    sequence order, receiver-side dedup, and health probes that declare
    the link Down after consecutive timeouts —
    detouring unacked packets through the caller's [reroute] path and
    recovering when a later send finds the partition over.

    Every timer self-quenches when its work drains, so an idle channel
    schedules nothing and the simulation's event heap empties. *)

type reliability = {
  ack_interval_ns : float;
  rto_ns : float;
  ack_ns : float;  (** processing cost of one cumulative ack *)
  retransmit_ns : float;  (** added transit delay of a retransmission *)
}
(** ARQ knobs; see {!Nfp_infra.System.links_config} for the deployment
    defaults of the first two. The rest of the protocol is fixed: a
    256-send window over a 256-seq reorder buffer, the RTO doubling per
    consecutive firing up to 400 us, a 16-retransmission budget per
    packet, and 5 us health probes declaring Down after 3 straight
    timeouts. *)

type 'a t

val create :
  engine:Nfp_sim.Engine.t ->
  name:string ->
  state:Nfp_sim.Fault.link_state ->
  ?reliability:reliability ->
  deliver:('a -> bool) ->
  reroute:('a -> unit) ->
  stats:Nfp_sim.Harness.link_stats ->
  unit ->
  'a t
(** [state] is the link's fault state, as {!Nfp_sim.Fault.link_for}
    resolves it. [deliver] offers to the destination ring ([false] = full: a raw
    channel propagates the refusal to the sender, a reliable channel
    buffers and retries at the stall-poll cadence). [reroute] detours a
    packet around a Down link (reliable mode only) and must always
    succeed — e.g. by driving a bypass-style emission off-core. Every
    channel of a deployment counts into the same [stats], its
    ledger's link taxonomy. *)

val send : 'a t -> 'a -> bool
(** Put one payload on the link. [false] means backpressure — the ring
    (raw) or the sender window (reliable) is full — and the caller must
    retry the same payload later, exactly like {!Nfp_sim.Server.offer}.
    Everything else (loss, duplication, reordering, retransmission,
    reroute) is absorbed by the channel and counted in its [stats]. *)

val is_down : 'a t -> bool
(** Whether the link is currently declared Down — the elastic
    controller consults this to stop migrating toward partitioned
    replicas. *)
