(** Fault detection and recovery for a {!System} deployment: per-core
    progress heartbeats, the Restart / Bypass / Degrade recovery
    policies, the lossless-recovery cells (checkpoint, bounded input log,
    replay) with their checkpoint tick, and the circuit breaker with its
    exponential restart backoff (factor 2, capped at 2 ms; a tripped NF
    core is bypassed). The fields of {!recovery} and
    {!config} are documented where {!System} re-exports them, as
    [System.recovery] and [System.fault_config]. *)

type recovery = Restart | Bypass | Degrade

type config = {
  plan : Nfp_sim.Fault.plan;
  watchdog_interval_ns : float;
  watchdog_deadline_ns : float;
  merge_timeout_ns : float;
  restart_ns : float;
  recovery_of : string -> recovery;
  checkpoint_interval_ns : float;
  log_capacity : int;
  breaker_threshold : int;
  dedup_capacity : int;
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
