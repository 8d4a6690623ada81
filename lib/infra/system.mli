(** The NFP dataplane (paper §5) on the simulator.

    Deploys a compiled plan: one core for the classifier, one per NF
    (the NF plus its runtime share the core, as in the paper), and one
    per merger instance — plus a merger-agent core when more than one
    merger instance is configured (§5.3). Packet references flow
    through bounded rings; copies, merge operations and nil packets
    follow the plan's tables. *)

open Nfp_packet

type config = {
  cost : Nfp_sim.Cost.t;
      (** its [batch] is the breath size of every core's poll loop
          (jobs inhaled per burst); 1 restores per-packet (legacy)
          execution bit-for-bit. Output is batch-size invariant — only
          timing moves (test_batch proves it differentially). *)
  ring_capacity : int;
  mergers : int;  (** merger instances; > 1 adds the agent core *)
  jitter : float;  (** ± fractional service jitter per core; in [\[0, 1)] *)
  seed : int64;
  replicas : int;
      (** target replica count for NFs the replication analysis clears
          ({!Nfp_core.Replication.shardable}: a safe state-access
          profile and no order-sensitive NF downstream); all other NFs
          keep a single instance. Default 1 — bit-identical to the
          pre-replication deployment. *)
}

val default_config : config

val core_count : config -> Nfp_core.Tables.plan -> int
(** Cores the deployment uses: classifier + NFs + mergers (+ agent). *)

(** {2 Fault tolerance} *)

type recovery = Watchdog.recovery =
  | Restart
      (** bring the core back after [restart_ns]; its backlog is
          dropped (accounted in [health.drops.flush_lost]) *)
  | Bypass
      (** remove the core from the graph: packets skip its processing
          but still execute its action program, so mergers never wait
          on its branch — for optional NFs (monitors, taps) *)
  | Degrade
      (** run the whole service graph in the sequential order of the
          same plan on a twin chain until the core has restarted *)

type fault_config = Watchdog.config = {
  plan : Nfp_sim.Fault.plan;  (** which cores fail, how, and when *)
  watchdog_interval_ns : float;  (** heartbeat sampling period; positive *)
  watchdog_deadline_ns : float;
      (** a core with queued work but no progress — neither a processed
          packet nor a backpressure retry — for this long is declared
          failed; backpressure alone never trips the watchdog. Positive. *)
  merge_timeout_ns : float;
      (** mergers force-complete an accumulation this old with the
          versions that did arrive; 0.0 disables the timeout *)
  restart_ns : float;  (** downtime of a Restart / Degrade recovery; [>= 0] *)
  recovery_of : string -> recovery;  (** policy per NF instance name *)
  checkpoint_interval_ns : float;
      (** period of the per-core NF state checkpoints that arm lossless
          Restart recovery: a restarting core restores its last
          snapshot, replays its input log (extending the outage by the
          replayed packets' service time, output suppressed) and
          re-admits the work the crash reclaimed instead of flushing
          it. 0.0 disables checkpointing — Restart falls back to the
          lossy flush semantics. Only NFs providing both
          [Nf.snapshot] and [Nf.restore] participate; cores whose NF
          lacks them recover lossily either way. *)
  log_capacity : int;
      (** bound on each core's input log (packets retained since its
          last checkpoint). A full log forces an early checkpoint —
          counted in [health.forced_checkpoints] — never silent
          truncation. *)
  breaker_threshold : int;
      (** circuit breaker: after this many consecutive watchdog
          detections of the same NF core with no processed-packet
          progress in between, stop restarting it and apply
          [breaker_fallback]. 0 (the default) disables the breaker and
          the restart backoff — the recover-forever behavior, bit for
          bit. *)
  backoff_factor : float;
      (** exponential restart backoff (armed with the breaker): the
          n-th consecutive restart of a core waits
          [restart_ns * backoff_factor^(n-1)], capped at
          [backoff_max_ns]; each delayed restart is counted in
          [health.backoffs]. Must be [>= 1.0]. *)
  backoff_max_ns : float;  (** ceiling on the backed-off restart delay; [>= 0] *)
  breaker_fallback : recovery;
      (** policy for a tripped core: [Bypass] removes it from the
          graph; [Degrade] pins its graph to the sequential twin and
          removes it; [Restart] is treated as [Bypass]. Infrastructure
          cores never trip (they only back off). Trips are counted in
          [health.breaker_trips]. *)
  dedup_capacity : int;
      (** bound on each (pid, version) dedup table — the delivery
          filter and every merger's completed-merge memory. The tables
          prune generationally (two half-capacity generations; a
          rotation retires the older), so an entry survives at least
          [dedup_capacity / 2] further insertions — the window a
          replayed branch or late retransmission must land inside —
          while live entries never exceed the bound
          ([health.dedup_entries] is the gauge). *)
}

val default_fault_config : fault_config
(** An empty plan, Restart everywhere, 30/120 us watchdog
    interval/deadline, 250 us merge timeout,
    {!Nfp_sim.Cost.default}'s [restart_ns], 100 us checkpoint
    interval, a 4096-packet input log, the circuit breaker
    disabled ([breaker_threshold = 0]; factor 2.0, 2 ms delay cap and
    a Bypass fallback once enabled), and 65536-entry dedup tables. *)

(** {2 Dedup memories} *)

(** The bounded packet-identity memory behind [dedup_capacity]: the
    delivery filter keys it by (PID, version), each merger's
    completed-merge memory by (PID, MID, merge point). Two generations
    of at most [capacity / 2] entries each; when the newer fills, the
    older is dropped and the generations rotate. Keys are two native
    int limbs, the first the 40-bit PID itself, so lookups and inserts
    allocate nothing. *)
module Dedup : sig
  type t

  val create : int -> t
  (** [create capacity] is a memory bounded by [capacity] entries (at
      least one per generation). *)

  val merge_limb : mid:int -> merge_id:int -> int
  (** The merger's second key limb: MID and merge point packed into
      one int ([merge_id] below 2{^32}). The delivery filter's second
      limb is the version itself. *)

  val mem : t -> a:int -> b:int -> bool
  (** Whether either generation holds the key. *)

  val add : t -> a:int -> b:int -> unit
  (** Insert a key not yet held, rotating first when the newer
      generation is full; a no-op for a key already held. *)

  val length : t -> int
  (** Entries across both generations — the [health.dedup_entries]
      gauge. *)
end

(** {2 Overload control} *)

type overload_config = {
  high_watermark : int;
      (** ring occupancy at which a core's pressure latch raises; must
          satisfy [0 <= low < high <= ring_capacity] *)
  low_watermark : int;
      (** occupancy at which the latch releases — the hysteresis band
          [low..high] keeps a sawtooth queue from flapping the signal *)
  shed_trickle : int;
      (** anti-starvation: of every [shed_trickle] consecutive packets
          of a class being shed, one is admitted anyway (deterministic);
          0 sheds the class outright *)
  degrade_enabled : bool;
      (** let NFs that declare an [Nf.degrade] mode coarsen while their
          own ring sits above the watermark *)
  pressure_poll_ns : float;
      (** minimum interval between shed-level re-evaluations at
          ingress; the shed ladder moves at most one class per poll *)
}
(** Arms the overload control plane (compiled path only): every ring
    gets the high/low watermark latch, the classifier front end gains
    the priority-aware admission controller (chains with a lower
    [Tables.plan.priority] shed first; the deployment's highest class
    is never shed), and NFs with a declared degrade mode coarsen under
    their own core's occupancy pressure. A deployment built without an
    overload config is bit-identical to the pre-overload system. *)

val default_overload_config : overload_config
(** Watermarks 96/48 (3/4 and 3/8 of the default ring capacity), a
    1-in-16 trickle, degrade enabled, 2 us poll interval. *)

(** {2 Elastic scale-out} *)

type elastic_config = Elastic.config = {
  min_replicas : int;
      (** scale-in floor; also the initially-active replica count *)
  max_replicas : int;
      (** scale-out ceiling; standby replicas up to this count are
          built at deployment and activated at runtime *)
  buckets : int;
      (** steering granularity: flows hash into this many RSS buckets,
          each owned by one replica; migrations re-home whole buckets.
          Must be [>= max_replicas]. *)
  control_interval_ns : float;  (** controller tick period *)
  scale_out_occupancy : float;
      (** scale out when any active replica's queue occupancy (fraction
          of ring capacity) reaches this *)
  scale_in_occupancy : float;
      (** scale in when every active replica sits at or below this;
          must be [< scale_out_occupancy] (hysteresis) *)
  migration_batch : int;  (** max buckets re-homed per migration *)
  transfer_ns : float;
      (** modeled state-transfer window: the source replica stays
          frozen this long between freeze and commit *)
  migration_deadline_ns : float;
      (** a migration that cannot commit by freeze + deadline
          (destination full, a party down) aborts, rolling back to the
          old steering map with nothing observable changed *)
  commit_retry_ns : float;
      (** retry period of a commit blocked on destination ring space *)
  cooldown_ns : float;
      (** minimum time between scale decisions per NF slot *)
}
(** Arms elastic scale-out with live migration (compiled path only).
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
          ledger's [in_flight] residual) and duplicates deliver twice *)
  link_window : int;
      (** sender window per link: max unacked sends before [send]
          refuses (backpressure — the upstream core stalls and
          retries, exactly like a full ring) *)
  ack_interval_ns : float;
      (** cumulative-ack cadence — acks ride breath completions, so
          this is the granularity at which the retransmit buffer
          prunes *)
  rto_ns : float;  (** initial head-of-line retransmit timeout *)
  rto_backoff : float;
      (** RTO multiplier per consecutive firing without ack progress
          (exponential backoff); must be [>= 1.0] *)
  rto_max_ns : float;  (** ceiling on the backed-off RTO *)
  retransmit_budget : int;
      (** retransmissions of one packet before the link is declared
          Down and its unacked traffic reroutes *)
  reorder_window : int;
      (** receiver reorder-buffer span in sequence numbers; arrivals
          beyond it are refused at the port and recovered by
          retransmission *)
  probe_interval_ns : float;
      (** link health-probe cadence while data is outstanding;
          [probe_timeout_k] consecutive probes finding the link
          partitioned declare it Down. 0 disables probing — budget
          exhaustion still detects partitions, just slower. *)
  probe_timeout_k : int;  (** consecutive probe timeouts declaring Down *)
}
(** Arms the lossy-interconnect fault domain (compiled path only):
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
(** An empty plan; reliable, window 256 over a 256-seq reorder buffer,
    1 us ack cadence, 25 us RTO backing off 2x to 400 us, a 16-retry
    budget, 5 us probes declaring Down after 3 misses. *)

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

type replica_report = {
  rr_mid : int;
  rr_nf : string;  (** plan instance name *)
  rr_kind : string;
  rr_strategy : Nfp_core.Replication.strategy;  (** derived, not configured *)
  rr_replicas : int;  (** instances actually deployed for this NF *)
  rr_processed : int list;  (** per-replica processed counts, shard order *)
  rr_merged_digest : int;
      (** the state digest a single unreplicated instance would hold:
          replica snapshots combined by [Nf.merge] and restored into a
          fresh scratch instance (Shared_nothing), or the instance
          digest directly (single replica / read-only state). Read it
          after the run drains — it reflects live NF state. *)
}
(** One entry per NF of the deployment, from the [?replication] report
    of {!make}/{!make_multi}. *)

val make :
  ?path:[ `Compiled | `Interpretive ] ->
  ?classify:[ `Cached | `Scan ] ->
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
    @raise Invalid_argument when an NF name has no implementation. *)

val make_multi :
  ?path:[ `Compiled | `Interpretive ] ->
  ?classify:[ `Cached | `Scan ] ->
  ?config:config ->
  ?fault:fault_config ->
  ?overload:overload_config ->
  ?elastic:elastic_config ->
  ?links:links_config ->
  ?stats:(unit -> core_stats list) ref ->
  ?replication:(unit -> replica_report list) ref ->
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

    [config.replicas] (compiled path only): NFs the replication
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
    deployment. When a [replication] ref is supplied it is filled with
    a thunk producing the per-NF {!replica_report} list.

    [path] selects the execution strategy. [`Compiled] (the default)
    translates every plan once, at deployment time, into a preresolved
    program: merge specs in arrays indexed by merge id, NF and merger
    targets bound to their server slots, static per-action cycle costs
    folded into constants, and emissions as cursor-walked arrays.
    [`Interpretive] walks the plan's tables per packet; it is the
    executable reference semantics and the two paths produce
    packet-for-packet identical results.

    [fault] (compiled path only) arms the fault-tolerance subsystem:
    the plan's perturbations are installed on the named cores, a
    watchdog detects dead or wedged cores from progress heartbeats and
    applies each NF's {!recovery} policy (infrastructure cores always
    restart), mergers time out accumulations a failed branch would
    otherwise wedge, and a sequential twin chain per graph backs the
    [Degrade] policy. When [checkpoint_interval_ns] is positive, NF
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

    [overload] (compiled path only) arms the overload control plane:
    watermark backpressure latches on every ring, the priority-aware
    admission controller at the classifier (shed counts exposed
    through [health.drops]), and
    per-NF pressure-degrade modes. Without it — or with watermarks the
    workload never reaches — the deployment's output is bit-identical
    to the pre-overload system (test/test_overload.ml enforces this).

    [links] (compiled path only) arms the lossy-interconnect fault
    domain and, when its [reliable] flag is set, the per-link ARQ
    channels — see {!links_config}.
    @raise Invalid_argument on an empty table, a missing NF, a
    [config.jitter] outside [\[0, 1)], an out-of-range [fault],
    [overload], [elastic] or [links] setting, or [fault], [overload],
    [elastic], [links] or [config.replicas > 1] combined with the
    [`Interpretive] path. Every check runs before anything is built. *)
