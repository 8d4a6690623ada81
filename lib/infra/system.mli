(** The NFP dataplane (paper §5) on the simulator.

    Deploys a compiled plan: one core for the classifier, one per NF
    (the NF plus its runtime share the core, as in the paper), and one
    per merger instance — plus a merger-agent core when more than one
    merger instance is configured (§5.3). Packet references flow
    through bounded rings; copies, merge operations and nil packets
    follow the plan's tables. *)

open Nfp_packet

type config = Runtime.config
(** The deployment config: cost model, ring capacity, merger count,
    jitter, seed and replica target; see {!Runtime.config}. *)

val default_config : config

(** {2 Fault tolerance} *)

type recovery = Watchdog.recovery
(** Restart, Bypass or Degrade; see {!Watchdog.recovery}. *)

type fault_config = Watchdog.config
(** Arms fault tolerance; see {!Watchdog.config}. *)

val default_fault_config : fault_config
(** An empty plan, Restart everywhere, 30/120 us watchdog
    interval/deadline, 250 us merge timeout,
    {!Nfp_sim.Cost.default}'s [restart_ns], 100 us checkpoint
    interval, a 4096-packet input log, the circuit breaker disabled
    ([breaker_threshold = 0]), and 65536-entry dedup tables. *)

(** {2 Overload control} *)

type overload_config = Overload.config
(** Arms the overload control plane: every ring
    gets the high/low watermark latch, the classifier front end gains
    the priority-aware admission controller (chains with a lower
    [Tables.plan.priority] shed first; the deployment's highest class
    is never shed; the shed ladder moves at most one class per 2 us
    poll, and one of every 16 arrivals of a shed class is admitted
    anyway), and NFs with a declared degrade mode coarsen under
    their own core's occupancy pressure. A deployment built without an
    overload config is bit-identical to the pre-overload system. *)

val default_overload_config : overload_config
(** Watermarks 96/48 (3/4 and 3/8 of the default ring capacity),
    degrade enabled. *)

(** {2 Elastic scale-out} *)

type elastic_config = Elastic.config
(** Arms elastic scale-out with live migration.
    Per NF the plan clears for sharding ({!Replication.shardable}) and
    whose state supports runtime extraction
    ({!Replication.migratable}), a controller watches per-replica ring
    occupancy and scales the replica set out/in at runtime. Every
    bucket move is a two-phase migration: freeze the source (its ring
    keeps accepting — backpressure, never loss), wait out the transfer
    window, then atomically carve the moving flows' state out of the
    source NF, fold it into the destination, re-home the frozen
    packets and flip the steering map — or abort and roll back if any
    party crashed or the destination stayed full past the deadline.
    Exactly-once delivery is guaranteed by the (pid, version) dedup
    layer, which arms whenever elastic is on. A deployment built
    without an elastic config — or with one whose thresholds never
    trigger — produces a packet trace bit-identical to the pre-elastic
    system. *)

val default_elastic_config : elastic_config
(** 1..4 replicas over 64 buckets; 20 us ticks, scale out at 50%
    occupancy, in at 5%; 16-bucket batches, 30 us transfer window,
    200 us deadline, 2 us commit retry, 50 us cooldown. *)

(** {2 Lossy fabric and reliable channels} *)

type links_config = {
  link_plan : Nfp_sim.Fault.link_plan;
      (** which links misbehave, how, and when; link names are the
          destination port — the core name for NF/merger/classifier
          edges ["mid1:NAT"], ["merger#0"], the pseudo-ports
          ["delivery"] and ["migrate:<replica>"] for the egress and
          migration-transfer edges — with trailing-[*] prefix patterns
          (["mid1:*"], ["*"]) matching families *)
  reliable : bool;
      (** arm the per-link ARQ channels (sequence numbers, cumulative
          acks, NACK/RTO retransmission, bounded reorder buffer,
          receiver dedup, health probes + partition reroute); [false]
          models the raw fabric — drops are real losses (the run
          ledger's [in_flight] residual) and duplicates deliver twice.
          The protocol's window, budget and probe constants are fixed;
          see {!Channel}. *)
  ack_interval_ns : float;
      (** cumulative-ack cadence — acks ride breath completions, so
          this is the granularity at which the retransmit buffer
          prunes *)
  rto_ns : float;
      (** initial head-of-line retransmit timeout; it doubles per
          consecutive firing without ack progress, up to 400 us *)
}
(** Arms the lossy-interconnect fault domain:
    every inter-core edge whose destination port the plan names
    (classifier->NF, NF->NF, branch->merger, merger->delivery,
    migration transfers) becomes a modeled link with its own seeded
    fault processes — drop probability, duplication, bounded
    reordering, Gilbert–Elliott burst loss, partition/flap windows
    (see {!Nfp_sim.Fault.link_fault}) — and, when [reliable] is set,
    an ARQ channel that makes delivery exactly-once over that fabric:
    the differential suite holds a lossy reliable run to the same
    delivery multisets and NF state digests as the lossless run, and
    a partition mid-run to zero delivered-packet loss via reroute
    (test/test_links.ml). A Down link also feeds the elastic
    controller, which stops activating or migrating toward the
    unreachable replica until the partition heals. Link taxonomy
    counters surface as [health.links]
    ({!Nfp_sim.Harness.link_stats}). A deployment built without a
    links config — or with an empty plan and [reliable = false] — is
    bit-identical to the pre-links system. *)

val default_links_config : links_config
(** An empty plan; reliable, 1 us ack cadence, 25 us initial RTO. *)

type core_stats = {
  core : string;
      (** classifier, mid<k>:<nf> (replica 0), mid<k>:<nf>@<r> (RSS
          shard r ≥ 1), merger#<i>, merger-agent *)
  busy_ns : float;
  stalled_ns : float;  (** time blocked on downstream backpressure *)
  processed : int;
  rejected : int;  (** offers refused because the core's ring was full *)
  queue : int;  (** ring occupancy when sampled *)
}

(** {2 Intra-NF replication} *)

type replica_report = Slot.report
(** One entry per NF of the deployment, from the [?replication] report
    of {!make}/{!make_multi}. *)

val make :
  ?config:config ->
  ?fault:fault_config ->
  ?overload:overload_config ->
  ?elastic:elastic_config ->
  ?links:links_config ->
  ?stats:(unit -> core_stats list) ref ->
  ?replication:(unit -> replica_report list) ref ->
  plan:Nfp_core.Tables.plan ->
  nfs:(string -> Nfp_nf.Nf.t) ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** A fresh single-graph deployment as a {!Nfp_sim.Harness.system};
    [nfs] maps plan instance names to NF implementations.
    @raise Invalid_argument when an NF name has no implementation, and
    on the configs {!make_multi} rejects, with the prefix
    ["System.make:"] in place of ["System.make_multi:"]. *)

val make_multi :
  ?classify:[ `Cached | `Scan ] ->
  ?config:config ->
  ?fault:fault_config ->
  ?overload:overload_config ->
  ?links:links_config ->
  ?stats:(unit -> core_stats list) ref ->
  graphs:(Flow_match.t * Nfp_core.Tables.plan * (string -> Nfp_nf.Nf.t)) list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** A deployment hosting several service graphs behind one classifier —
    the paper's Classification Table (Fig. 4): each entry's flow match
    steers packets into its graph (MID = 1-based table position, first
    match wins). NF cores are per graph; merger instances are shared
    ("a merger instance can merge any packet from any service graph",
    §5.3). Unmatched packets are discarded and counted in
    [health.drops.no_match], separate from NF drops. When a [stats] ref is
    supplied it is filled with a sampler of per-core utilization
    counters.

    [classify] selects how the front end resolves a packet's 5-tuple
    against the table. [`Cached] (the default) uses the two-level
    classifier — {!Nfp_packet.Classifier}'s exact-match microflow cache
    backed by the tuple-space matcher — whose hit/miss/eviction
    counters the system exposes through
    [Nfp_sim.Harness.system.classifier]; [`Scan] is the linear
    first-match reference. Both assign identical MIDs; their structural
    cycle costs ([classify_hit]/[classify_group]/[classify_rule], zero
    in {!Nfp_sim.Cost.default}, charged in
    {!Nfp_sim.Cost.classified}) are added as delay ahead of the
    classifier core, so measured latency reflects the lookup structure
    when those terms are enabled.

    [config.replicas]: NFs the replication
    analysis clears ({!Nfp_core.Replication.shardable}
    — a safe state-access profile, the [fresh]/[merge] machinery, and
    no Sequential-strategy NF downstream in the graph) are deployed as
    that many RSS-sharded instances. A shard stage at
    every send site steers each flow to a fixed replica by hashing its
    packed 5-tuple on an independent seeded stream
    ({!Nfp_algo.Hashing.rss2_int} — uncorrelated with the microflow
    cache's bucket hash), so per-flow state never splits across
    replicas; commutative state recombines through [Nf.merge] (see
    {!replica_report}). Replication composes with batching, fault
    injection, checkpoints and lossless replay — each replica carries
    its own recovery cell, probe, and health/ledger counters (core
    names [mid<k>:<nf>@<r>] are independently targetable by fault
    plans). The default (1) is bit-identical to the pre-replication
    deployment. When {!make} gets a [replication] ref it fills it with
    a thunk producing the per-NF {!replica_report} list.

    Every plan is translated once, at deployment time, into a
    preresolved program: merge specs in arrays indexed by merge id, NF
    and merger targets bound to their server slots, static per-action
    cycle costs folded into constants, and emissions as cursor-walked
    arrays. {!interpretive} is the reference it is held to, packet for
    packet.

    [fault] arms the fault-tolerance subsystem:
    the plan's perturbations are installed on the named cores, a
    watchdog detects dead or wedged cores from progress heartbeats and
    applies each NF's {!recovery} policy (infrastructure cores always
    restart), mergers time out accumulations a failed branch would
    otherwise wedge, and a sequential twin chain backs the [Degrade]
    policy in every graph where some NF's [recovery_of] is [Degrade]. When [checkpoint_interval_ns] is positive, NF
    cores additionally checkpoint their state periodically and log
    post-classifier input packets, making Restart lossless: restore +
    deterministic replay + re-admission of reclaimed work, with
    duplicate emissions suppressed at the mergers and the output (the
    recovered run's merged output trace is byte-identical to the
    fault-free run — test/test_recovery.ml proves it differentially).
    Current counters are exposed through the system's [health] field.
    A [fault] config whose plan is {!Nfp_sim.Fault.empty} leaves the
    packet trace byte-identical to a system built without [fault] (the
    differential test in test/test_fastpath.ml enforces this).

    [overload] arms the overload control plane:
    watermark backpressure latches on every ring, the priority-aware
    admission controller at the classifier (shed counts exposed
    through [health.drops]), and
    per-NF pressure-degrade modes. Without it — or with watermarks the
    workload never reaches — the deployment's output is bit-identical
    to the pre-overload system (test/test_overload.ml enforces this).

    [links] arms the lossy-interconnect fault
    domain and, when its [reliable] flag is set, the per-link ARQ
    channels — see {!links_config}.
    @raise Invalid_argument on an empty table, a missing NF, a
    [config.jitter] outside [\[0, 1)], [config.mergers],
    [config.ring_capacity], [config.replicas] or [config.cost.batch]
    below 1, a [config.cost] with a clock that is not positive and
    finite or a negative cycle, time or per-byte term, or an
    out-of-range [fault], [overload], [links] or ({!make}'s) [elastic] setting; a
    NaN period or cost counts as out of range, and so does an infinite
    fault time, elastic or links period, or cost time or per-byte term. Every check runs before
    anything is built. *)

val interpretive :
  ?config:config ->
  graphs:(Flow_match.t * Nfp_core.Tables.plan * (string -> Nfp_nf.Nf.t)) list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** The executable reference semantics of {!make_multi}: the same
    deployment, but every core walks the plan's tables per packet
    instead of running a compiled program. Built from the same
    [config] and [graphs], it produces the same packets in the same
    order with the same bytes, drop counters and simulated timestamps
    (test/test_fastpath.ml holds the two to exact equality). It has no
    fault, overload, elastic or links machinery, always uses the
    [`Cached] classifier, and its health reports zero apart from
    [drops.ingress_rejected], [drops.nf_dropped] and [drops.no_match].
    @raise Invalid_argument on the configs {!make_multi} rejects, and
    on [config.replicas > 1]. Kept for tests: the differential oracle
    of the compiled dataplane. *)
