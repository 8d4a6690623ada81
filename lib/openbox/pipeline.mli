(** Block pipelines, OpenBox graph merging, and block-level NFP
    parallelism (paper §7, Fig. 15).

    A modular NF is a pipeline of blocks. OpenBox merges two pipelines
    by sharing their common prefix; NFP then stages the remaining
    blocks with the same dependency analysis it applies to whole NFs,
    parallelizing independent blocks (Fig. 15 parallelizes the
    firewall's Alert with the IPS's DPI). *)

type t = Block.t list

val firewall : ?acl:Nfp_nf.Firewall.rule list -> unit -> t
(** Fig. 15's firewall: ReadPackets → HeaderClassifier → Alert →
    Output, with a 100-rule default ACL. Kept for tests: [acl], which
    the tests vary to keep two classifiers from merging. *)

val ips : ?acl:Nfp_nf.Firewall.rule list -> unit -> t
(** Fig. 15's IPS: ReadPackets → HeaderClassifier → DPI → Alert →
    Output, with the firewall's default ACL and
    [Ids.default_signatures 100]. Kept for tests: [acl], as for
    {!firewall}. *)

type merged = {
  shared : Block.t list;  (** common prefix, executed once *)
  tail : Block.t list;  (** remaining blocks of both pipelines *)
}

val merge : t -> t -> merged
(** OpenBox graph merging: share the longest common prefix of blocks
    performing identical work; concatenate the rest (left pipeline's
    leftovers first). Terminal Output blocks are shared too. *)

val stages : merged -> Block.t list list
(** NFP block-level parallelism over the merged tail: stage the blocks
    with Algorithm 1 on their profiles (shared prefix stays first). *)

val total_cycles : t -> int

val staged_cycles : Block.t list list -> int
(** Critical-path cost: sum over stages of the max block cost — the
    latency the parallelized graph pays. *)

val execute : Block.t list list -> Nfp_packet.Packet.t -> Block.outcome list
(** Run a staged pipeline (stages in order, blocks within a stage in
    listed order); stops at the first [Dropped]. Returns the outcomes
    observed. *)

val pp_stages : Format.formatter -> Block.t list list -> unit

val to_deployment :
  Block.t list list -> Nfp_core.Graph.t * (string -> Nfp_nf.Nf.t)
(** Lower a staged block pipeline onto the NFP dataplane: each block
    becomes an NF instance (alerts count in its state digest, DPI and
    classifier drops become NF drops), each stage a parallel group — so
    block-level parallelism can be measured end to end with
    {!Nfp_infra.System} like any service graph. *)
