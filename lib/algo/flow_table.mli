(** Microflow cache: exact-match 5-tuple table with O(1) lookup.

    The classifier's first level (OVS-style microflow cache): maps a
    recently seen 5-tuple straight to a small non-negative int (the
    dataplane stores the packet's MID, with 0 reserved for "matched no
    rule"). Keys are the 5-tuple's two packed native-int limbs
    ({!Hashing.pack_a} / {!Hashing.pack_b}, or [Packet.key_a] /
    [Packet.key_b] straight from packet bytes). Open addressing, a
    short linear probe window, and eviction when the window fills —
    bounded memory, no resizing, no per-operation allocation. Keys are
    hashed with {!Hashing.tuple5_64}, the dataplane's one 5-tuple
    mixing function. *)

type t

val create : ?capacity:int -> unit -> t
(** Fixed-capacity table; [capacity] (default 65536) is rounded up to a
    power of two. @raise Invalid_argument when not positive. *)

val find_packed : t -> a:int -> b:int -> int
(** Exact-match lookup on the packed limbs; [-1] when absent. Bumps
    the hit or miss counter. *)

val put_packed : t -> a:int -> b:int -> int -> unit
(** Insert or overwrite on the packed limbs; evicts a resident entry
    when the probe window is full.
    @raise Invalid_argument on a negative value. *)

val hits : t -> int
val misses : t -> int
val evictions : t -> int
