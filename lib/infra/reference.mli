(** Reference executors for the result-correctness check (paper §6.4).

    The paper validates NFP by replaying tagged packets through both
    the sequential chain and the optimized service graph and comparing
    outputs. [run_sequential] is the ground truth; [run_plan] executes
    a compiled plan through the full dataplane (classifier, runtimes,
    copies, mergers) on a throwaway engine, ignoring timing. *)

open Nfp_packet

val run_sequential : nfs:Nfp_nf.Nf.t list -> Packet.t -> Packet.t option
(** Process through the chain in order; [None] when an NF drops. The
    input packet is mutated. *)

val run_plan :
  ?mergers:int ->
  plan:Nfp_core.Tables.plan ->
  nfs:(string -> Nfp_nf.Nf.t) ->
  Packet.t ->
  Packet.t option
(** One packet through the deployed plan with [mergers] merger cores
    (default 1); [None] when dropped. Kept for tests: [mergers], which
    the tests vary to show the result does not depend on it. *)
