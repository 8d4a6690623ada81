(** The network-function abstraction.

    An NF is a named packet processor with a declared action profile and
    a cycle-cost model. Instances carry their own internal state
    (counters, tables, crypto contexts); construct one instance per
    deployed NF. The simulator charges [cost_cycles] per packet; the
    semantics come from [process]. *)

open Nfp_packet

type verdict =
  | Forward  (** packet (possibly modified in place) continues *)
  | Dropped  (** NF decided to drop; the runtime emits a nil packet *)

type state = ..
(** Opaque checkpoint payload. An NF whose state machinery {!make}
    derives from declared counters and tables uses this module's own
    constructors; an NF that writes its own extends this type. The
    recovery subsystem only moves values of this type between
    {!t.snapshot} and {!t.restore}. *)

type degrade = {
  d_label : string;  (** e.g. ["sampled-1/8"], ["passthrough"] *)
  d_cost_cycles : Packet.t -> int;  (** must be cheaper than the full mode *)
  d_process : Packet.t -> verdict;  (** the coarsened semantics *)
}
(** A cheaper processing mode an NF can fall back to when its core is
    under occupancy pressure — distinct from the fault-[Degrade]
    recovery policy (which swaps the whole graph for a sequential
    twin). The coarsened semantics must stay safe: never corrupt
    packets, never violate the chain's merge discipline. The runtime
    marks every packet that took the degraded path so differential
    tests can separate them from full-fidelity traffic. *)

type t = {
  name : string;  (** instance name, unique within a deployment *)
  kind : string;  (** NF type, e.g. "Firewall" — keys into the registry *)
  profile : Action.t list;  (** declared action profile (paper Table 2) *)
  cost_cycles : Packet.t -> int;
      (** per-packet processing cost charged by the simulator *)
  process : Packet.t -> verdict;  (** the packet-processing semantics *)
  state_digest : unit -> int;
      (** hash of internal state; the action inspector uses it to detect
          reads that have no packet-visible effect (e.g. counters), and
          the recovery equivalence suite uses it to prove a replayed NF
          re-converged with the fault-free run *)
  snapshot : (unit -> state) option;
      (** capture the NF's internal state as an immutable checkpoint;
          the returned value must not alias live mutable structures *)
  restore : (state -> unit) option;
      (** install a previously captured checkpoint; must copy out of the
          state value so one checkpoint can be restored repeatedly *)
  state_access : State_access.t option;
      (** declared state-access profile; [None] means the NF makes no
          claim about its state, which the replication analysis treats
          as unsafe to replicate (strategy [Sequential]) *)
  fresh : (unit -> t) option;
      (** factory for a brand-new instance with the same construction
          parameters and empty state — the orchestrator calls it once
          per extra replica when sharding an NF across cores *)
  merge : (state list -> state) option;
      (** combine the snapshots of all replicas into the state a single
          unreplicated instance would hold: per-flow entries are
          disjoint-unioned, commutative components summed. Must be
          insensitive to the order of the snapshot list. Required (with
          [snapshot]/[restore]) for the [Shared_nothing] strategy. *)
  degrade : degrade option;
      (** optional pressure-degrade mode; [None] means the NF always
          runs at full fidelity (overload can only queue or shed around
          it) *)
  extract : ((Flow.t -> bool) -> state) option;
      (** [extract pred] removes every per-flow entry whose flow
          satisfies [pred] from the live state and returns a state value
          carrying exactly those entries (commutative scalar components
          are returned as zeros — they stay where they were counted,
          since they sum under {!t.merge}). The elastic controller uses
          this as the source half of a live migration; {!absorb} is the
          destination half. NFs with no per-flow state return their
          zero state. Required (on top of the [Shared_nothing]
          machinery) for an NF to be migrated at runtime. *)
}

val shared : ('k -> 'v) -> 'k -> 'v
(** [shared build] is [build] memoized for the whole process: the first
    call with a key builds its value and every later call returns that
    same value. For immutable [Read_only] state that every instance
    can share, such as a FIB or a signature automaton. Builds run under
    a mutex, because [Harness.parallel_runs] creates instances from
    several domains. *)

type counters
(** Commutative counter components: int counters that the NF's packet
    path never reads (tallies, byte counts), declared once and
    incremented in {!cells} in place. *)

val counters : (string * int) list -> counters
(** [counters [(label, width); ...]]: one component per pair, [width]
    int cells wide (a load balancer's per-backend tally is one
    component of one cell per backend), laid out in {!cells} in
    declaration order, all zero. *)

val cells : counters -> int array
(** The live cells, shared with the NF built from them. *)

type table
(** Keyed state: a row of int cells per key, held in one
    {!Nfp_algo.Pair_table}. A [Per_flow] table is keyed by the
    packet's 5-tuple limbs ({!Nfp_packet.Packet.key_a},
    {!Nfp_packet.Packet.key_b}), so that a migration shard can rebuild
    each row's flow; a [Global] table takes any two non-negative ints
    (a gateway's address pair). *)

val table :
  label:string -> scope:State_access.scope -> mode:State_access.mode -> width:int -> table
(** An empty table whose rows are [width] cells wide.
    @raise Invalid_argument when [width < 1]. *)

val row : table -> a:int -> b:int -> int array
(** The live row of key [(a, b)], inserted as zeros when the key is
    new; the packet path updates it in place. Allocates only a new
    row. @raise Invalid_argument when [a < 0]. *)

val find_row : table -> a:int -> b:int -> int array
(** The live row of key [(a, b)], or [[||]] when the key is absent;
    never inserts and never allocates. *)

val rows : table -> int
(** The number of keys. *)

val make :
  name:string ->
  kind:string ->
  profile:Action.t list ->
  cost_cycles:(Packet.t -> int) ->
  ?state_digest:(unit -> int) ->
  ?snapshot:(unit -> state) ->
  ?restore:(state -> unit) ->
  ?state_access:State_access.t ->
  ?fresh:(unit -> t) ->
  ?merge:(state list -> state) ->
  ?degrade:degrade ->
  ?extract:((Flow.t -> bool) -> state) ->
  ?counters:counters ->
  ?tables:table list ->
  (Packet.t -> verdict) ->
  t
(** Profile is normalized. [state_digest] defaults to a constant.
    [snapshot]/[restore] default to [None]: the recovery subsystem only
    arms checkpoint/replay for NFs that provide both. [state_access],
    [fresh] and [merge] default to [None]: the replication analysis only
    shards NFs that declare their state and provide the machinery.
    [extract] defaults to [None]: such NFs replicate but never migrate
    at runtime.

    [counters] and [tables] derive the state machinery of an NF whose
    mutable state is declared counters and tables, from each part's
    scope and mode alone:
    - [snapshot] copies every cell, and [restore] copies them back;
    - [merge] sums the counters cell by cell and a [Commutative]
      table's rows key by key, and takes the union of any other
      table's rows, where a key held by two snapshots must have equal
      cells (@raise Invalid_argument ["Nf.merge: ..."] otherwise);
    - [extract pred] removes and returns the rows of a [Per_flow]
      table whose flow satisfies [pred], and the zero shard of
      everything else (a count stays where it was counted);
    - [state_digest ()] is [fold_left (fun d s -> combine d s) c ts],
      where [c] folds [Hashing.combine] over the counter cells from
      17, and each [s] in [ts], one per table in declaration order, is
      the sum over its rows [(a, b, r)] of
      [combine (mix2_int a b land max_int) (fold_left combine 17 r)],
      taken [land max_int];
    - [state_access] lists one entry per table, then the NF's own
      [state_access] entries (a read-only ruleset, an allocator), then
      one [State_access.global Commutative label] per counter
      component.
    @raise Invalid_argument when [counters] or [tables] comes with
    [state_digest], [snapshot], [restore], [merge] or [extract].

    Kept for tests: [merge] and [extract], which every built-in NF
    derives; the elastic and links suites pass them for a hand-written
    per-flow NF, and the nf suite checks their refusal. *)

val absorb : t -> state -> unit
(** [absorb t shard] merges a state shard (typically the result of
    another replica's {!t.extract}) into [t]'s live state:
    [restore (merge [snapshot (); shard])].
    @raise Invalid_argument when [t] lacks snapshot/restore/merge. *)
