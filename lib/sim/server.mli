(** A simulated CPU core running a poll-mode packet loop.

    Jobs arrive into a bounded input ring; the core drains them in
    breaths of up to [batch] (DPDK rx-burst style), through reused
    scratch arrays — the steady-state poll loop allocates nothing per
    job. Each job is charged its service time, the breath's first job
    at the full legacy rate and followers with [burst_saving_ns]
    subtracted (the per-breath dispatch work a burst pays once); at
    breath completion the core {e executes} each job once (the
    side-effecting semantics: NF processing, table bookkeeping) and
    then {e emits} its results. Execution returns the job's sends — an
    array, typically precompiled and shared — and the core emits them
    in order through [emit], keeping its place in a cursor. Emission is
    retryable: when a downstream ring is full [emit] returns [false] and
    the core stalls, retrying the same send until space frees —
    shared-memory NFV's backpressure. A stalled core's own ring fills,
    propagating the stall upstream until the system's entry point
    starts refusing packets; that is where loss happens, as on the
    paper's testbed. *)

type ('job, 'send) t

type cell = { mutable ns : float }
(** Where a service function writes a job's service time. An all-float
    record is stored flat, so the time reaches the core unboxed. *)

val create :
  engine:Engine.t ->
  name:string ->
  ring_capacity:int ->
  batch:int ->
  ?burst_saving_ns:float ->
  ?jitter:float * Nfp_algo.Prng.t ->
  ?watermarks:int * int ->
  ?fault:Fault.core ->
  service_ns:('job -> cell -> unit) ->
  execute:('job -> 'send array) ->
  emit:('job -> 'send -> bool) ->
  unit ->
  ('job, 'send) t
(** [service_ns job cell] stores [job]'s service time, in nanoseconds,
    in [cell.ns]. [execute job] performs the job's semantics once and
    returns its sends; [emit job send] makes one attempt at one of them
    and is called again, later, for the same send until it returns
    [true]. A core blocked on downstream backpressure retries every
    150 ns (the stall-poll interval).

    [burst_saving_ns] (default 0.0) is the batch cost model: the
    nanoseconds of per-job dispatch work that the second and later jobs
    of one breath do not repay (ring-dequeue synchronization,
    run-to-completion dispatch). Followers are charged
    [max 0 (service_ns j - burst_saving_ns)], jittered as usual; the
    first job of every breath pays full price, so a [batch] of 1 — a
    breath of one job — is bit-for-bit the legacy per-packet charging
    regardless of this value.

    [watermarks] is [(high, low)]: arm the input ring's occupancy
    watermarks ({!Nfp_algo.Ring.set_watermarks}) so {!pressured}
    reports hysteretic backpressure. Without it the ring never reports
    pressure and the server is bit-for-bit the pre-watermark server.

    [fault] installs this core's share of a {!Fault.plan}: crashes and
    hangs stop the poll loop (in-flight work is reclaimed as
    casualties, see {!revive}), slowdowns scale service times, drops
    vanish individual jobs. With no [fault] the server is bit-for-bit
    identical to one built before the fault subsystem existed. *)

val call : 'job -> (unit -> bool) -> bool
(** [call _ send] is [send ()]: the [emit] of a core whose sends are
    closures (reference paths and baselines, where allocating one per
    send is acceptable). *)

val emission : ('job -> 'send -> bool) -> 'job -> 'send array -> unit -> bool
(** [emission emit job sends] is [job]'s [sends] as one retryable
    thunk, for emissions no core owns (reroutes around a removed core,
    timed-out merges): each call emits as many sends as fit, in order,
    and reports whether all of them left. *)

val drive : Engine.t -> (unit -> bool) -> unit
(** [drive engine emission] calls [emission] now and again every
    150 ns, a core's default stall-poll interval, until it returns
    [true]: the flush loop of an emission no core owns. *)

val offer : ('job, 'send) t -> 'job -> bool
(** [false] when the input ring is full (caller decides: entry points
    drop, upstream cores stall). *)

val name : ('job, 'send) t -> string

val processed : ('job, 'send) t -> int

val rejected : ('job, 'send) t -> int

val pressured : ('job, 'send) t -> bool
(** Whether the input ring's occupancy watermark latch is on (always
    [false] unless [watermarks] was given at {!create}) — the hop-local
    backpressure signal the overload control plane propagates
    upstream. *)

val pressure_episodes : ('job, 'send) t -> int
(** Lifetime count of pressure onsets on the input ring. *)

val busy_ns : ('job, 'send) t -> float

val stalled_ns : ('job, 'send) t -> float
(** Time spent blocked on downstream backpressure. *)

(** {2 Fault control surface}

    Used by the fault events installed at {!create} and by the
    [Nfp_infra.System] watchdog's recovery policies. *)

val kill : ('job, 'send) t -> unit
(** Administrative stop: the core accepts no new batches; its in-flight
    batch and pending emissions are reclaimed as casualties held for
    the recovery policy (see {!revive}); the input ring keeps accepting
    jobs — a dead consumer does not unmap the shared-memory ring. Not
    counted as a crash. *)

val drain : ('job, 'send) t -> 'job list
(** Remove and return everything queued in the ring, without processing
    it (reclaimed casualties are not included; see
    {!set_casualty_sink}). *)

val set_casualty_sink : ('job, 'send) t -> ('job list -> (unit -> bool) list -> unit) -> unit
(** Route this core's casualties — unexecuted jobs, and pending
    emissions as retryable thunks (each one an executed job's remaining
    sends, called until it returns [true]) — to [sink] instead of holding them for {!revive}. Casualties
    already held are handed to [sink] immediately, so a sink installed
    after a kill still receives the batch the kill reclaimed. Used by
    the Bypass recovery to reroute work around a removed core. *)

val casualty_counts : ('job, 'send) t -> int * int
(** [(unexecuted jobs, pending emissions)] currently held. *)

val charge : ('job, 'send) t -> float -> unit
(** Add [ns] of management work (e.g. a state checkpoint) to this core:
    it delays the completion of the core's next batch. *)

val revive : ?flush:bool -> ('job, 'send) t -> int
(** Bring a down core back and restart its poll loop. [flush] (the
    default) discards the backlog that accumulated while it was dead
    plus any reclaimed casualties — lossy Restart semantics — returning
    the number of jobs lost (also added to {!flushed}). [flush:false]
    re-admits everything in processing order — pending emissions drain
    first, then the reclaimed batch, then the ring backlog — the
    lossless recovery path. *)

val is_down : ('job, 'send) t -> bool

val is_busy : ('job, 'send) t -> bool

(** {2 Migration quiesce surface}

    Used by the [Nfp_infra.System] elastic controller to freeze a
    replica while its per-flow state is snapshotted and transferred.
    A paused core is healthy — not down — it just starts no new
    breaths and pumps no orphans until {!unpause}; its ring keeps
    accepting jobs (upstream sees backpressure, never loss), and
    injected faults still land on it. *)

val pause : ('job, 'send) t -> unit
(** Quiesce: reclaim the in-flight breath (unexecuted jobs → limbo,
    pending emissions → orphans, exactly as a crash would) but keep
    the core up, and start no new work until {!unpause}. Idempotent. *)

val unpause : ('job, 'send) t -> unit
(** Release the freeze and restart the poll loop (orphaned emissions
    first, then limbo, then the ring — processing order preserved).
    A core that crashed while paused stays down until revived. *)

val is_paused : ('job, 'send) t -> bool

val take_backlog : ('job, 'send) t -> 'job list
(** Remove and return every unexecuted job — reclaimed limbo first
    (older), then the ring backlog, in order — leaving orphaned
    emissions in place (those jobs already executed here). The
    migration commit partitions this list between source and
    destination replicas. *)

val requeue : ('job, 'send) t -> 'job list -> unit
(** Append jobs to the limbo worklist (served before the ring, after
    any older limbo). Does not kick the poll loop — callers hold the
    core paused while redistributing work. *)

val free_slots : ('job, 'send) t -> int
(** Spare capacity of the input ring — the commit-time room check
    before a backlog handover. *)

val crashes : ('job, 'send) t -> int
(** Injected [Crash] events that found the core up. *)

val fault_drops : ('job, 'send) t -> int
(** Jobs vanished by an injected [Drop] fault. *)

val flushed : ('job, 'send) t -> int
(** Jobs lost to lossy recoveries: in-flight batches, pending emissions
    and backlogs discarded by [revive ~flush:true]. Until a revive (or
    casualty sink) decides their fate, a dead core's casualties are
    held, not counted lost. *)

val queue_length : ('job, 'send) t -> int
(** Ring occupancy plus reclaimed casualties still awaiting a recovery
    decision — everything the core would eventually have to process. *)
