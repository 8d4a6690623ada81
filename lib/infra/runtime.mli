(** What the cores of a {!System} deployment share: the deployment
    config, the one core constructor and crash guard of both dataplanes,
    and the compiled dataplane's runtime record, over which every role
    module ({!Slot}, {!Merger}, {!Delivery}, {!Twins}) is a set of
    functions. *)

open Nfp_packet

type config = {
  cost : Nfp_sim.Cost.t;
      (** its [batch] is the breath size of every core's poll loop
          (jobs inhaled per burst), [>= 1]; 1 restores per-packet (legacy)
          execution bit-for-bit. Output is batch-size invariant — only
          timing moves (test_batch proves it differentially). *)
  ring_capacity : int;  (** slots per core's input ring; [>= 1] *)
  mergers : int;  (** merger instances, [>= 1]; > 1 adds the agent core *)
  jitter : float;  (** ± fractional service jitter per core; in [\[0, 1)] *)
  seed : int64;
  replicas : int;
      (** target replica count for NFs the replication analysis clears
          ({!Nfp_core.Replication.shardable}: a safe state-access
          profile and no order-sensitive NF downstream); all other NFs
          keep a single instance. Must be [>= 1]. Default 1 —
          bit-identical to the pre-replication deployment. *)
}
(** The deployment config, re-exported as [System.config]. *)

val default : config
(** The default cost model, 128-slot rings, one merger, 5% jitter, seed
    7, one replica. *)

val new_core :
  engine:Nfp_sim.Engine.t ->
  config:config ->
  watermarks:(int * int) option ->
  fault:Watchdog.config option ->
  name:string ->
  prng:Nfp_algo.Prng.t ->
  service_ns:('job -> Nfp_sim.Server.cell -> unit) ->
  execute:('job -> 'send array) ->
  emit:('job -> 'send -> bool) ->
  unit ->
  ('job, 'send) Nfp_sim.Server.t
(** The one core constructor, of both dataplanes and the twins. The
    core splits its jitter stream off [prng] and gets [config]'s ring
    capacity, breath size and burst saving, the overload [watermarks],
    and the fault stream [fault]'s plan names for [name]. *)

val run_nf :
  who:string -> (Packet.t -> Nfp_nf.Nf.verdict) -> pid:int64 -> Packet.t -> Nfp_nf.Nf.verdict
(** The one crash guard: an NF that raises drops its packet, and the
    crash is logged with [who] and the PID. *)

(** One NF of the compiled deployment: its replicas (index 0 is the
    single instance of an unreplicated NF; further indices are RSS
    shards or elastic standbys), their rings and inbound links, the
    action program, and the routing state the send sites read per
    packet. *)
type slot = {
  s_mid : int;
  s_entry : Nfp_core.Tables.nf_entry;  (** [version]: the packet version the NF reads *)
  s_prog : Program.cprog;
  s_servers : (Context.t, Program.csend) Nfp_sim.Server.t array;
  s_nfs : Nfp_nf.Nf.t array;
  s_cells : Watchdog.cell array;
  s_links : Context.t Channel.t option array;
  s_ports : (Context.t -> bool) array;  (** the send sites' port: the link, if any *)
  s_bypassed : bool array;
      (** a [true] cell routes around that replica: its packets skip
          processing but still run [s_prog], so downstream cores and
          mergers see every expected branch *)
  s_steer : Elastic.steer option;
      (** elastic steering map; [None] = mod-n sharding (the slot is not
          scalable, or no elastic config) *)
}

(** The runtime of one compiled deployment: the state its cores and the
    send path share. [slots], [merge_port] and [deliver_port] are the
    three late-bound cells, each set once while [System] builds the
    deployment. *)
type t = {
  engine : Nfp_sim.Engine.t;
  config : config;
  fault : Watchdog.config option;
  elastic : Elastic.config option;
  egress : (int64, Packet.t) Nfp_sim.Engine.line;  (** half the wire, egress to NIC *)
  dedup : Dedup.filters;
  delivered : Dedup.t option;  (** the output's (PID, version) filter *)
  merge_timeout_ns : float;  (** 0.0: accumulations never time out *)
  watchdog : Watchdog.t;
  overload : Overload.t;
  prng : Nfp_algo.Prng.t;  (** the main jitter stream *)
  elastic_prng : Nfp_algo.Prng.t;  (** standby replicas' stream *)
  link_plan : Nfp_sim.Fault.link_plan option;  (** [None]: no links config *)
  reliability : Channel.reliability option;
  health : Nfp_sim.Harness.health;  (** the deployment's counter ledger *)
  mutable probes : Watchdog.probe list;  (** one per core, newest first *)
  emit : Context.t -> Program.csend -> bool;  (** one attempt at one compiled send *)
  mutable slots : slot array;  (** every NF slot, in [nf_impls] order *)
  mutable merge_port : Program.cdelivery -> bool;
      (** where merge deliveries enter: the merger agent's port, or the
          PID-hashed merger instance's *)
  mutable deliver_port : Packet.t -> bool;  (** the egress edge *)
}

val core :
  t ->
  ?nf:int * string ->
  ?drain:(('job, 'send) Nfp_sim.Server.t -> int) ->
  ?cell:Watchdog.cell ->
  name:string ->
  prng:Nfp_algo.Prng.t ->
  service_ns:('job -> Nfp_sim.Server.cell -> unit) ->
  execute:('job -> 'send array) ->
  emit:('job -> 'send -> bool) ->
  unit ->
  ('job, 'send) Nfp_sim.Server.t
(** Every compiled core: {!new_core} under the deployment's watermarks
    and fault plan, with its watchdog probe registered, in build order.
    NF replicas pass their [nf] (MID, instance name), [drain] (Bypass:
    reroute the backlog, return its length) and recovery [cell]. *)

val channel_for :
  t ->
  name:string ->
  deliver:('a -> bool) ->
  reroute:('a -> unit) ->
  'a Channel.t option
(** The link channel in front of port [name], or [None] when the link
    plan names no link there: only perturbed ports pay for a channel. *)

val offer_via : 'a Channel.t option -> ('a -> bool) -> 'a -> bool
(** A port's offer: the channel's send when there is one, else
    [direct]. *)

val server_port :
  ?prefix:string -> t -> ('a, 'send) Nfp_sim.Server.t -> 'a -> bool
(** A core's port, named [prefix] ^ its core name: a Down link detours
    straight into the core's ring off-core. *)

val off_emit : t -> Context.t -> Program.csend array -> unit
(** Run a send array off-core, absorbing any backpressure. *)
