(** Replication-strategy analysis over state-access profiles.

    Maestro (Pereira et al., "Automatic Parallelization of Software
    Network Functions") showed that classifying an NF's state accesses
    is enough to pick a safe intra-NF parallelization strategy
    automatically. This pass does the same over the declared
    {!Nfp_nf.State_access} profiles: the orchestrator asks it whether a
    bottleneck NF may be RSS-sharded across cores, and the differential
    suite (test_parallel_nf) holds the result to Khalid & Akella's
    correctness bar — a replicated run must stay trace-equivalent
    (delivery multisets + merged state digests) to the unreplicated
    one. *)

type strategy =
  | Shared_nothing
      (** replicate; an RSS stage pins each flow to one replica, and
          replica states recombine through {!Nfp_nf.Nf.t.merge} *)
  | Replicated_readonly
      (** replicate freely; state (if any) is immutable, so replicas
          are interchangeable and nothing needs merging *)
  | Sequential  (** unsafe to replicate; keep the single instance *)

val derive : Nfp_nf.Nf.t -> strategy
(** Strategy for the NF's declared profile: any [Global]+[General]
    component forces [Sequential]; otherwise any written component
    (commutative anywhere, or general writes confined to per-flow scope)
    yields [Shared_nothing]; all-read-only yields
    [Replicated_readonly]. An NF that declares no profile
    ([state_access = None]) is [Sequential] — silence is not evidence of
    safety. *)

val eligible : Nfp_nf.Nf.t -> bool
(** Whether the orchestrator may actually instantiate extra replicas:
    the derived strategy must allow it {e and} the NF must supply the
    machinery — [fresh] for both replicating strategies, plus
    [merge]/[snapshot]/[restore] for [Shared_nothing]. Kept for tests:
    the strategy tests check this gate per built-in NF; deployments ask
    {!shardable}, which adds the downstream check. *)

val migratable : Nfp_nf.Nf.t -> bool
(** Whether a replica's per-flow state can be moved to a peer at
    runtime: {!eligible} plus an [extract] half ([Shared_nothing]), or
    just [fresh] ([Replicated_readonly], where replicas are
    interchangeable and nothing needs to move). [Sequential] NFs never
    migrate. Gates the elastic controller: an NF may only scale
    out/in live when it is both [shardable] in its plan and
    [migratable]. *)

val shardable :
  plan:Tables.plan -> nf_of:(string -> Nfp_nf.Nf.t) -> string -> bool
(** The deployment-time verdict for one NF of a compiled plan:
    {!eligible}, {e and} no [Sequential]-strategy NF is reachable
    downstream of it (through NF hops and merger continuations).
    Sharding keeps per-flow order but changes the cross-flow
    interleaving every downstream core observes — invisible to
    shardable consumers, behaviour-changing for order-sensitive ones
    (FIFO caches, sequence counters, token buckets), so an
    order-sensitive consumer pins its whole upstream cone. *)

val to_string : strategy -> string
val pp : Format.formatter -> strategy -> unit
(** Kept for tests: the printer of the strategy testable. *)
