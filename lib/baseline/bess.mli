(** BESS-style run-to-completion baseline (paper §7, Table 4).

    The whole service chain is consolidated into a native run on one
    core — no virtualization hops, no rings between NFs — and the chain
    is replicated across [cores] cores with NIC RSS hashing packets to
    replicas. Each replica owns private NF state (the paper's noted
    RTC drawback: scaling replicates or splits state). *)

open Nfp_packet

val make :
  cores:int ->
  chain:(unit -> Nfp_nf.Nf.t list) ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
(** [chain ()] builds a fresh chain instance per core. *)
