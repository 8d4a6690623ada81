(** The bounded packet-identity memory behind [dedup_capacity], and
    the exactly-once filters a deployment builds on it.

    The delivery filter keys a memory by (PID, version), each merger's
    completed-merge memory by (PID, MID, merge point). Two generations
    of at most [capacity / 2] entries each; when the newer fills, the
    older is dropped and the generations rotate. Keys are two native
    int limbs, the first the 40-bit PID itself, so lookups and inserts
    allocate nothing. *)

type t

val create : int -> t
(** [create capacity] is a memory bounded by [capacity] entries (at
    least one per generation). *)

val merge_limb : mid:int -> merge_id:int -> int
(** The merger's second key limb: MID and merge point packed into
    one int ([merge_id] below 2{^32}). The delivery filter's second
    limb is the version itself. *)

val mem : t -> a:int -> b:int -> bool
(** Whether either generation holds the key. *)

val add : t -> a:int -> b:int -> unit
(** Insert a key not yet held, rotating first when the newer
    generation is full; a no-op for a key already held. *)

val length : t -> int
(** Entries across both generations. Kept for tests: the dedup tests
    read a memory's size. *)

(** {2 Exactly-once filters} *)

type filters
(** One deployment's filters, armed or not. *)

val filters : armed:bool -> capacity:int -> filters
(** Armed, every {!filter} is a fresh memory of [capacity] entries;
    disarmed, every filter is [None]. *)

val filter : filters -> t option
(** A new filter: [None], which has seen nothing and remembers nothing,
    when disarmed. *)

val seen : t option -> a:int -> b:int -> bool

val remember : t option -> a:int -> b:int -> unit

val entries : filters -> int
(** Entries across every filter made so far — the
    [health.dedup_entries] gauge. *)
