(** Fault detection and recovery for a {!System} deployment: per-core
    progress heartbeats, the Restart / Bypass / Degrade recovery
    policies, the lossless-recovery cells (checkpoint, bounded input log,
    replay) with their checkpoint tick, and the circuit breaker with its
    exponential restart backoff (factor 2, capped at 2 ms; a tripped NF
    core is bypassed). {!System} re-exports {!recovery} and {!config}
    as [System.recovery] and [System.fault_config]. *)

type recovery =
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

type config = {
  plan : Nfp_sim.Fault.plan;  (** which cores fail, how, and when *)
  watchdog_interval_ns : float;  (** heartbeat sampling period; positive *)
  watchdog_deadline_ns : float;
      (** a core with queued work but no progress — neither a processed
          packet nor a backpressure retry — for this long is declared
          failed; backpressure alone never trips the watchdog. Positive. *)
  merge_timeout_ns : float;
      (** mergers force-complete an accumulation this old with the
          versions that did arrive; 0.0 disables the timeout. [>= 0]. *)
  restart_ns : float;
      (** downtime of a Restart / Degrade recovery; [>= 0]. The n-th
          consecutive restart of a core waits
          [restart_ns * 2^(n-1)], capped at 2 ms, while the breaker is
          armed. *)
  recovery_of : string -> recovery;
      (** policy per NF instance name. Also read when the system is
          built: a graph gets its sequential twin chain only if some
          NF of it maps to [Degrade]. *)
  checkpoint_interval_ns : float;
      (** period of the per-core NF state checkpoints that arm lossless
          Restart recovery: a restarting core restores its last
          snapshot, replays its input log (extending the outage by the
          replayed packets' service time, output suppressed) and
          re-admits the work the crash reclaimed instead of flushing
          it. 0.0 disables checkpointing — Restart falls back to the
          lossy flush semantics. [>= 0]. Only NFs providing both
          [Nf.snapshot] and [Nf.restore] participate; cores whose NF
          lacks them recover lossily either way. *)
  log_capacity : int;
      (** bound on each core's input log (packets retained since its
          last checkpoint), [>= 1]. A full log forces an early
          checkpoint — counted in [health.forced_checkpoints] — never
          silent truncation. *)
  breaker_threshold : int;
      (** circuit breaker: after this many consecutive watchdog
          detections of the same NF core with no processed-packet
          progress in between, stop restarting it and bypass it
          (counted in [health.breaker_trips]). It also arms the
          exponential restart backoff: each delayed restart is counted
          in [health.backoffs]. Infrastructure cores never trip (they
          only back off). 0 (the default) disables the breaker and the
          backoff — the recover-forever behavior, bit for bit. [>= 0]. *)
  dedup_capacity : int;
      (** bound on each (pid, version) dedup table — the delivery
          filter and every merger's completed-merge memory. The tables
          prune generationally (two half-capacity generations; a
          rotation retires the older), so an entry survives at least
          [dedup_capacity / 2] further insertions — the window a
          replayed branch or late retransmission must land inside —
          while live entries never exceed the bound
          ([health.dedup_entries] is the gauge). Must be [>= 2]. *)
}

val default : config

type t
(** One deployment's watchdog and its lossless-recovery cells. *)

val create :
  engine:Nfp_sim.Engine.t ->
  cost:Nfp_sim.Cost.t ->
  graphs:int ->
  health:Nfp_sim.Harness.health ->
  ?fault:config ->
  unit ->
  t
(** A watchdog for one deployment of [graphs] service graphs, idle until
    {!watch}ed. It counts its detections and recovery actions, and its
    cells' checkpoints, replays and salvaged jobs, in the deployment's
    ledger [health]. Lossless
    recovery (checkpoint tick, input logging, replay, re-admission of
    reclaimed work instead of a flush) is armed when [fault] has a
    non-empty plan and a positive [checkpoint_interval_ns]. Without
    [fault] the watchdog is inert. *)

val degraded : t -> int -> bool
(** [degraded t mid] is [true] while Degrade recovery holds graph [mid]
    (1-based) on its sequential twin: from the detection of a failed NF
    core whose [recovery_of] is [Degrade] until that core is back up. *)

(** {2 Lossless-recovery cells} *)

type cell
(** One NF replica's recovery state: the last checkpoint of its NF and
    a bounded log of the packets it processed since. *)

val no_cell : cell
(** The cell of a core with nothing to recover: every operation is a
    no-op. *)

val cell : t -> Nfp_nf.Nf.t -> cell
(** The cell for a replica running [nf]. It is a no-op cell unless
    lossless recovery is armed and [nf] provides both [snapshot] and
    [restore]. An armed cell snapshots [nf] now. *)

val logging : cell -> bool
(** [false] for a no-op cell: its core pays no log-append cost. *)

val log : cell -> Nfp_packet.Packet.t -> unit
(** Append a copy of a packet about to be processed; a full log first
    forces a checkpoint (counted in [forced_checkpoints]). *)

val refresh : cell -> unit
(** Re-seed the cell from the NF's current state, for when the state
    changed outside packet processing (a migration carved or folded
    flows). *)

(** {2 Watching cores} *)

(** One core under watch, whatever its job type: the server itself, plus
    what only the core's builder knows. *)
type probe =
  | Probe : {
      server : ('job, 'send) Nfp_sim.Server.t;
      nf : (int * string) option;  (** mid, NF instance name; [None] = infrastructure *)
      drain : ('job, 'send) Nfp_sim.Server.t -> int;
          (** Bypass: reroute [server]'s backlog and casualties around
              it; returns the backlog length *)
      cell : cell;  (** the core's recovery cell; checkpoint time is billed to [server] *)
    }
      -> probe

val watch : t -> probe array -> unit
(** Start watching [probes]. Degrade recovery of a probe with
    [nf = Some (mid, _)] marks graph [mid] {!degraded} while the core
    restarts. *)

val kick : t -> unit
(** Wake the watchdog on injection; it stops rescheduling itself once
    every core is idle, so a finished simulation drains. *)

val state : t -> int -> string option
(** ["bypassed"] or ["restarting"] while probe [i] is held out of
    service; [None] when it is up. *)
