(** The elastic scale-out controller of a {!System} deployment: runtime
    replica activation and retirement over an RSS-bucket steering map,
    with crash-safe two-phase live migration of per-flow NF state.
    {!System} re-exports {!config} as [System.elastic_config]. *)

type config = {
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
