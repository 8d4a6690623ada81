(** Cross-server NF parallelism — the paper's §7 scalability design.

    When a service graph needs more cores than one server has,
    {!Nfp_core.Partition} cuts it at points where a single merged packet
    copy flows; this module deploys each segment on its own simulated
    server and wires them with an inter-server link. Each handoff
    carries exactly one packet copy (the paper's stated constraint) and
    pays the link latency plus both NICs. *)

open Nfp_packet

val make :
  ?config:System.config ->
  ?fault:System.fault_config ->
  ?overload:System.overload_config ->
  ?elastic:System.elastic_config ->
  ?links:System.links_config ->
  ?link_latency_ns:float ->
  segments:(Nfp_core.Tables.plan * (string -> Nfp_nf.Nf.t)) list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** Deploy the segments in order on one simulated server each; a packet
    leaving segment [i] traverses the link (default 2 µs, a ToR switch
    hop) and enters segment [i+1]'s NIC. Drop/loss and health counters
    aggregate across servers. [fault] applies to every segment (plans
    match cores by name, so a pattern perturbs the matching core of
    each segment that has one). [elastic] arms every segment's scale
    controller; aggregation is churn-tolerant — cores that retire
    (scale-in) or have not yet activated report as ["standby"] rather
    than vanishing from the list, and {!Nfp_sim.Harness.add_health}
    sums the migration counters and the [migrating] in-flight gauge
    across segments like any other field. [links] arms every segment's
    lossy-fabric link plan and reliable channels; the per-link
    taxonomy ({!Nfp_sim.Harness.link_stats}) aggregates across servers
    in [health.links]. The inter-server hop itself stays lossless —
    its segments' NI-boundary rings are already modeled — but a plan
    matching each segment's ingress ports perturbs the same edges. @raise Invalid_argument on
    an empty segment list, or a negative, NaN or infinite [link_latency_ns].
    Kept for tests: the cluster tests deploy hand-built segment plans;
    programs go through {!of_partition}. *)

val of_partition :
  assignments:Nfp_core.Partition.assignment list ->
  profile_of:(string -> Nfp_nf.Action.t list) ->
  nfs:(string -> Nfp_nf.Nf.t) ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  (Nfp_sim.Harness.system, string) result
(** Convenience: compile each partition segment to a plan and deploy.
    All segments share the [nfs] instance lookup; links take
    {!make}'s default latency. *)
