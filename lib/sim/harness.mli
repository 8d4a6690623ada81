(** Measurement harness: drives a packet system the way the paper's
    DPDK generator drives the testbed (§6: "sends and receives traffic
    to measure the latency and the maximum throughput without packet
    loss"). *)

type classifier_counters = { hits : int; misses : int; evictions : int }
(** Microflow-cache counters of a system's flow classifier: packets
    resolved by the exact-match cache, packets that fell through to the
    tuple-space matcher, and cached flows displaced by new ones. *)

val no_classifier_counters : classifier_counters
(** All-zero counters — what systems without a flow classifier (the
    baselines) report. *)

type drops = {
  mutable ingress_rejected : int;
      (** NIC-boundary ring full: packets lost at entry — the only
          ring-full events that are true losses *)
  mutable internal_rejected : int;
      (** in-graph ring-full rejections: backpressure retry events
          (the upstream core stalls and re-offers), {e not} losses, so
          excluded from every ledger; growth here flags a saturated
          interior hop *)
  mutable nf_dropped : int;  (** NF verdict Drop *)
  mutable no_match : int;  (** no classifier rule matched *)
  mutable fault_dropped : int;  (** injected Drop faults *)
  mutable flush_lost : int;  (** in-flight work discarded by lossy restarts *)
  mutable merge_timed_out : int;
      (** merges force-completed without a failed branch *)
  mutable shed : int;  (** refused by the admission controller under pressure *)
  shed_by_class : (int * int) list;
      (** per-priority-class shed counts, sorted by class *)
  mutable degraded : int;  (** packets that took a pressure-degraded NF path *)
}
(** The unified drop taxonomy: every way a packet can fail to reach the
    output, in one record (satellite of the overload control plane —
    previously these counters lived across Server, System and merger
    internals). *)

type link_stats = {
  mutable link_drops : int;
      (** transits lost by the fabric — drops, burst loss, partitions —
          including lost retransmissions. Raw link losses sit in the run
          ledger's [in_flight] residual (the packet was offered and
          vanished inside the system, like an injected fault drop); with
          reliable channels armed they are transient and re-delivered. *)
  mutable retransmits : int;
      (** re-emissions by reliable channels, RTO- or NACK-driven *)
  mutable duplicates_suppressed : int;
      (** receiver-side dedup hits: fabric duplicates and spurious
          retransmissions consumed by the sequence filter *)
  mutable reordered : int;
      (** transits the fabric delivered behind their successors *)
  mutable partitions : int;
      (** links declared Down — 3 consecutive probe timeouts, or a
          packet's retransmit budget exhausted *)
  mutable reroutes : int;  (** packets detoured around a Down link *)
}
(** The link taxonomy: what the lossy fabric and the reliable channels
    did (satellite of the lossy-interconnect fault domain). *)

type core_health = {
  core : string;
  state : string;
      (** "up" | "down" | "restarting" | "bypassed" | "migrating"
          (quiesced as a migration source) | "standby" (elastic
          replica built but not yet activated) *)
  processed : int;
  queue : int;
}
(** One core's liveness as the system's watchdog sees it. *)

type health = {
  cores : core_health list;
  mutable detections : int;  (** watchdog heartbeat-deadline detections *)
  mutable crashes : int;  (** injected crash events that took a core down *)
  mutable restarts : int;  (** cores brought back by the Restart/Degrade policies *)
  mutable bypasses : int;  (** cores removed from the graph by the Bypass policy *)
  mutable degrades : int;  (** graphs switched to their sequential fallback *)
  mutable recoveries : int;  (** degraded graphs switched back to parallel *)
  mutable bypassed_packets : int;  (** packets that skipped a bypassed NF *)
  mutable checkpoints : int;  (** NF state snapshots taken (periodic + forced) *)
  mutable forced_checkpoints : int;
      (** checkpoints forced early by input-log overflow — a full log is
          never silently truncated *)
  mutable replayed : int;
      (** packets re-processed from an input log after a restore, with
          their output suppressed (the original emissions stand) *)
  mutable deduped : int;
      (** duplicate emissions suppressed by the (pid, version) dedup
          filters, e.g. a replayed branch reaching a merge that a
          timeout already force-completed *)
  mutable salvaged : int;
      (** in-flight jobs of a crashed core re-admitted by a lossless
          restart instead of being flushed *)
  drops : drops;
      (** the unified drop taxonomy (see {!drops}): injected Drop
          faults, crash and restart flushes and force-completed merges
          are counted there *)
  mutable pressure_episodes : int;
      (** ring watermark pressure onsets summed across all cores *)
  mutable breaker_trips : int;
      (** circuit breaker abandoned Restart on a restart-looping core *)
  mutable backoffs : int;  (** restarts delayed by exponential backoff *)
  mutable degrade_switches : int;
      (** NFs toggled into a pressure-degrade mode (onsets) *)
  mutable scale_outs : int;
      (** replicas activated at runtime by the elastic controller *)
  mutable scale_ins : int;  (** replicas drained of their buckets and retired *)
  mutable migrations : int;  (** bucket migrations that committed *)
  mutable migration_aborts : int;
      (** migrations rolled back — crash at a party, destination full
          past the deadline — leaving the old steering map in force *)
  mutable migrated_packets : int;
      (** frozen in-flight packets re-homed to the destination replica
          by committed migrations (exactly-once: the dedup layer drops
          any duplicate emission) *)
  migrating : int;
      (** gauge, not a counter: packets currently frozen at quiesced
          migration sources — the ledger's in-flight bucket during a
          flip ([offered = completed + drops + shed + in_flight]) *)
  links : link_stats;
      (** the link taxonomy of the lossy fabric (see {!link_stats});
          all-zero without a links config *)
  dedup_entries : int;
      (** gauge: live entries across the bounded (pid, version) dedup
          tables (delivery filter + per-merger completed-merge memory),
          pinned below their configured capacity by generational
          pruning however long a lossy run retransmits *)
}
(** Fault/recovery counters of a whole system plus per-core liveness.

    A deployment keeps one [health] value as its counter ledger: every
    component of it (watchdog, elastic controller, overload plane,
    channels, send path, mergers, front end) increments the ledger's
    fields in place. What {!system.health} returns is a snapshot, a
    copy in fresh records: it keeps its values while the run goes on,
    and nothing written to it reaches the ledger. *)

val fresh_health : unit -> health
(** A new all-zero ledger with no cores. Each deployment takes its own,
    so no two deployments share a counter. *)

val copy_health : health -> health
(** A snapshot of a ledger: the same values in fresh records. *)

val add_health : health -> health -> health
(** Combine the health of composed systems (chained cluster segments):
    core lists concatenate, counters add. The result is fresh, and
    [fresh_health ()] is its unit. *)

type system = {
  inject : pid:int64 -> Nfp_packet.Packet.t -> unit;
      (** deliver one packet to the system's NIC at the current time *)
  classifier : unit -> classifier_counters;
      (** current classifier cache counters (see
          {!classifier_counters}) *)
  health : unit -> health;
      (** a snapshot of the current drop taxonomy, watchdog view and
          fault/recovery counters (see {!health}); systems without
          fault machinery report zero apart from their [drops] *)
}

type arrivals =
  | Uniform of float  (** constant spacing at this Mpps rate *)
  | Poisson of float  (** exponential interarrivals at this mean Mpps *)
  | Burst of float * int
      (** DPDK-generator style: bursts of [k] back-to-back packets at
          this mean Mpps — the shape a tx_burst loop emits *)
  | Surge of Fault.surge
      (** time-varying offered load: the plan's rate
          ({!Fault.surge_rate}) is re-sampled at every arrival, so
          steps, spikes and ramps reshape the interarrival gaps *)

type result = {
  latency : Nfp_algo.Stats.t;  (** per-packet ns, after warmup *)
  delivered : int;
      (** output events; a copied packet delivered on several branches
          counts once per delivery *)
  completed : int;
      (** distinct offered packets that reached the output at least
          once — the numerator of availability *)
  offered : int;
  ring_drops : int;  (** [health.drops.ingress_rejected] *)
  nf_drops : int;  (** [health.drops.nf_dropped] *)
  unmatched : int;  (** [health.drops.no_match] *)
  shed : int;  (** [health.drops.shed]: refused by the admission controller *)
  in_flight : int;
      (** offered but unaccounted at end of run: still queued, wedged
          at a merger, or lost to injected faults. [run] enforces
          [offered = completed + ring_drops + nf_drops + unmatched +
          shed + in_flight] with [in_flight >= 0] and fails loudly
          otherwise. *)
  health : health;  (** the system's fault/recovery counters at end of run *)
  duration_ns : float;
  achieved_mpps : float;
}

val run :
  make:(Engine.t -> output:(pid:int64 -> Nfp_packet.Packet.t -> unit) -> system) ->
  gen:(int -> Nfp_packet.Packet.t) ->
  arrivals:arrivals ->
  packets:int ->
  ?warmup:int ->
  ?seed:int64 ->
  ?stop:(system -> bool) ->
  unit ->
  result
(** Build a fresh system, inject [packets] packets ([gen i] makes the
    i-th), run to completion. Latency samples exclude the first
    [warmup] packets (default 10%). When [stop] is given it is polled
    periodically; once it returns [true] the simulation is truncated
    and the result reflects only the events executed so far — event
    order is unaffected either way. Kept for tests: [stop], which the
    tests use to watch a run mid-flight.
    @raise Invalid_argument if [packets < 0], if a [Uniform], [Poisson]
    or [Burst] rate is not [> 0] (NaN included) or is infinite, or if a
    burst size is below 1. *)

val parallel_runs : ?domains:int -> (unit -> 'a) list -> 'a list
(** Evaluate independent simulation thunks on a pool of [domains]
    worker domains (default: the runtime's recommended domain count,
    capped at 8, or 1 inside a worker so pools never nest) and return their
    results in input order. Each {!run} invocation is fully
    self-contained and seeded, so thunks built from pure generators
    give identical results at any worker count. Thunks must not share
    mutable state. Kept for tests: [domains], which the tests vary to
    check that results do not depend on the worker count.
    @raise Invalid_argument if [domains < 1]. *)

val max_lossless_mpps :
  make:(Engine.t -> output:(pid:int64 -> Nfp_packet.Packet.t -> unit) -> system) ->
  gen:(int -> Nfp_packet.Packet.t) ->
  packets:int ->
  ?lo:float ->
  hi:float ->
  ?iterations:int ->
  ?domains:int ->
  unit ->
  float
(** Binary-search the highest uniform offered rate with zero ring
    drops — the paper's "maximum throughput without packet loss". With
    more than one domain the bracketing probes of the next bisection
    levels run speculatively in parallel ({!parallel_runs}); the result
    is bit-identical to the sequential search for deterministic
    generators.
    @raise Invalid_argument unless [0 < lo < hi] with [hi] finite (NaN
    fails), or if [iterations < 0] or [domains < 1]. *)
