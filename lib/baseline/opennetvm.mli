(** OpenNetVM-style sequential chaining baseline.

    The comparison system of the paper's evaluation: NFs run on their
    own cores, but every hop — NIC to first NF, NF to NF, last NF to
    NIC — is relayed by a centralized virtual-switch manager core. The
    switch's packet-RX/TX work bounds throughput regardless of chain
    length (Table 4 measures it flat at ≈9.4 Mpps), while each relayed
    hop adds a small queueing stop that NFP's distributed runtime
    avoids. *)

open Nfp_packet

val make :
  nfs:Nfp_nf.Nf.t list ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system
