(** The elastic scale-out controller of a {!System} deployment: runtime
    replica activation and retirement over an RSS-bucket steering map,
    with crash-safe two-phase live migration of per-flow NF state. The
    fields of {!config} are documented where {!System} re-exports it, as
    [System.elastic_config]. *)

type config = {
  min_replicas : int;
  max_replicas : int;
  buckets : int;
  control_interval_ns : float;
  scale_out_occupancy : float;
  scale_in_occupancy : float;
  migration_batch : int;
  transfer_ns : float;
  migration_deadline_ns : float;
  commit_retry_ns : float;
  cooldown_ns : float;
}

val default : config

type steer
(** The bucket -> replica map of one scalable NF slot. *)

val steer : config -> replicas:int -> base:int -> steer
(** The initial map of a slot with [replicas] built replicas, [base] of
    them statically sharded: buckets round-robin over the initially
    active replicas, which reproduces static sharding. *)

val owner : steer -> int -> int
(** The replica that currently owns the bucket of a steering hash. *)

(** One scalable NF slot, as the core built it. *)
type 'send slot = {
  servers : (Context.t, 'send) Nfp_sim.Server.t array;
  nfs : Nfp_nf.Nf.t array;  (** per replica, for state extract/absorb *)
  cells : Watchdog.cell array;
      (** per replica: its recovery cell, re-seeded after its state moved *)
  hash : Context.t -> int;  (** the steering hash the send sites use *)
  reachable : int -> bool;  (** replica [r]'s inbound link is not Down *)
  rehome : (Context.t -> unit) array;
      (** per destination replica: carry a migrated packet there,
          retrying until it is accepted *)
  steer : steer;
}

type t = private {
  mutable tick : Nfp_sim.Engine.timer option;
      (** the control loop, named ["elastic"]; [None] for {!off} *)
  interval : float;  (** control tick period *)
  migrating : unit -> int;  (** gauge: packets frozen at migration sources *)
  core_state : string -> string option;
      (** ["migrating"] for a frozen source replica, ["standby"] for an
          inactive one, [None] otherwise *)
}

val off : t
(** No controller: {!kick} does nothing. *)

val create :
  engine:Nfp_sim.Engine.t ->
  ?fault:Watchdog.config ->
  config ->
  ring_capacity:int ->
  busy:(unit -> bool) ->
  health:Nfp_sim.Harness.health ->
  'send slot list ->
  t
(** A controller over [slots] ({!off} when there are none), idle until
    kicked. [busy ()] reports queued work anywhere in the system. Its
    scale-outs, scale-ins, migrations, aborts and migrated packets are
    counted in the deployment's ledger [health].
    [fault] may crash or hang the pseudo-core ["elastic"]: while it is
    down no decision runs and due commits abort. *)

val kick : t -> unit
(** Start ticking if idle. The controller ticks while a migration or a
    drain that can move is open, or while the system reports queued
    work. *)
