(** State-access profiles: what Table 2's action profiles say about
    packets, these say about NF-internal state.

    Each stateful NF declares its state as named components, each with
    a scope and an access mode. The replication analysis
    (Nfp_core.Replication) derives a safe intra-NF replication strategy
    from the declaration alone, Maestro-style: per-flow state shards
    behind an RSS stage, commutative state replicates and merges on
    digest, and any globally-ordered write pins the NF to a single
    sequential instance. *)

type scope =
  | Per_flow
      (** keyed by (a function of) the packet's 5-tuple: every access a
          packet triggers lands in the partition its flow hashes to, so
          flow-sharded replicas never touch each other's entries *)
  | Global  (** shared across flows *)

type mode =
  | Read_only  (** never written after construction (rulesets, FIBs) *)
  | Commutative
      (** writes commute and the NF's packet-visible behaviour never
          reads the value (counters, byte tallies): replicas may each
          hold a partial value, recombined by [Nf.merge] *)
  | General
      (** order-dependent read-modify-write that can influence output
          (allocators, token buckets, FIFO evictions) *)

type component = { label : string; scope : scope; mode : mode }

type t = component list
(** A declared profile. The empty list means "provably stateless". *)

val component : label:string -> scope:scope -> mode:mode -> component

val per_flow : mode -> string -> component
(** [per_flow mode label] — scope {!Per_flow}. Kept for tests: NFs
    declare per-flow state through [Nf.table], and the nf suite builds
    an expected profile with this. *)

val global : mode -> string -> component
(** [global mode label] — scope {!Global}. *)

val pp : Format.formatter -> t -> unit
