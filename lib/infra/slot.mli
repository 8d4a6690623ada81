(** The per-NF runtime of the compiled dataplane (paper §5.2): one slot
    per NF of the deployment with its replicas' cores, the one routing
    rule into it, and what the elastic controller and the replication
    report see of it. *)

type report = {
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
(** What the replication analysis decided for one NF, re-exported as
    [System.replica_report]. *)

val build_slot :
  Runtime.t ->
  shardable:(int -> string -> bool) ->
  (Program.cprog * Program.csend array) array ->
  int ->
  int * Nfp_core.Tables.nf_entry * Nfp_nf.Nf.t ->
  Runtime.slot
(** [build_slot rt ~shardable nf_progs i (mid, entry, nf)] builds slot
    [i] from its compiled program and nil sends [nf_progs.(i)]: replica
    0 runs [nf], further replicas (when [shardable mid entry.nf]: the
    [replicas] target, and elastic standbys up to [max_replicas]) run
    fresh instances. Replicas build in index order; the static ones
    split [rt.prng], standbys [rt.elastic_prng]. *)

val emit_send : Runtime.t -> Context.t -> Program.csend -> bool
(** One attempt at one compiled send, the [emit] of every compiled
    core: into an NF slot by its routing rule, or through the runtime's
    [merge_port] or [deliver_port]. Into slot [i], the rule steers the
    packet to a replica (the elastic map, else the RSS hash mod the
    replica count), runs the action program off-core if that replica is
    bypassed, else offers it to the replica's port; a link channel
    releasing a buffered packet re-resolves the same rule and offers
    straight to the ring. *)

val elastic_slot : Runtime.t -> Runtime.slot -> Program.csend Elastic.slot list
(** What the elastic controller sees of a scalable slot; [[]] for one
    that is not. *)

val replica_report : Runtime.slot -> report
