(** The interpretive reference: the executable semantics of the
    compiled dataplane, behind {!System.interpretive}. Every core walks
    the plan's tables per packet instead of running a compiled program. *)

val build :
  config:Runtime.config ->
  drops:Nfp_sim.Harness.drops ->
  ('m * Nfp_core.Tables.plan * 'nfs) array ->
  (int * Nfp_core.Tables.nf_entry * Nfp_nf.Nf.t) list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Nfp_packet.Packet.t -> unit) ->
  pid:int64 ->
  mid:int ->
  Nfp_packet.Packet.t ->
  unit
(** [build ~config ~drops table nf_impls engine ~output] builds the
    cores of [table]'s graphs (MID = index + 1) in the compiled
    dataplane's order — NF cores in [nf_impls] order, the mergers, the
    agent, the classifier — and returns the classifier's admission
    [admit ~pid ~mid pkt] for a packet graph [mid] matched. NF drops and
    ring refusals at admission are counted in [drops]. *)
