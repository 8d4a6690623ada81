(** Fault detection and recovery for a {!System} deployment: per-core
    progress heartbeats, the Restart / Bypass / Degrade recovery
    policies, lossless-restart checkpoint ticks, and the circuit breaker
    with its exponential restart backoff. The fields of {!recovery} and
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
  backoff_factor : float;
  backoff_max_ns : float;
  breaker_fallback : recovery;
  dedup_capacity : int;
}

val default : config

(** One core under watch, whatever its job type: the server itself, plus
    what only the core's builder knows. *)
type probe =
  | Probe : {
      server : 'job Nfp_sim.Server.t;
      nf : (int * string) option;  (** mid, NF instance name; [None] = infrastructure *)
      drain : unit -> int;
          (** Bypass: reroute the core's backlog and casualties around it;
              returns the backlog length *)
      checkpoint : unit -> unit;  (** snapshot the NF's state now (if it can) *)
      replay : unit -> float;
          (** restore the last checkpoint and replay the input log;
              returns the replay's contribution to the core's downtime
              (0.0 for infrastructure cores and NFs without snapshot
              support) *)
    }
      -> probe

type t = private {
  kick : unit -> unit;
      (** wake the watchdog on injection; it stops rescheduling itself
          once every core is idle, so a finished simulation drains *)
  state : int -> string option;
      (** ["bypassed"] or ["restarting"] while probe [i] is held out of
          service; [None] when it is up *)
  mutable detections : int;
  mutable restarts : int;
  mutable bypasses : int;
  mutable degrades : int;
  mutable recoveries : int;
  mutable breaker_trips : int;
  mutable backoffs : int;
  mutable salvaged : int;
      (** in-flight jobs re-admitted by lossless restarts instead of
          flushed *)
}

val off : t
(** No watchdog: [kick] does nothing and every counter stays 0. *)

val create :
  engine:Nfp_sim.Engine.t ->
  config ->
  lossless:bool ->
  degraded:bool array ->
  probe array ->
  t
(** A watchdog over [probes], idle until kicked. [lossless] arms the
    checkpoint tick and lossless restart (replay, then re-admission of
    the reclaimed work instead of a flush). Degrade recovery sets
    [degraded.(mid - 1)] while graph [mid] must run its sequential
    twin. *)
