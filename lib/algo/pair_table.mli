(** Hash map from pairs of non-negative native ints, allocation-free on
    lookup, insert and removal.

    Open addressing over native-int key limbs (the {!Flow_table}
    idiom, with both limbs of a slot side by side in one array), linear
    probing at load at most 1/2, backward-shift deletion (no
    tombstones). Unlike {!Flow_table} it is a map, not a cache: it
    never evicts, and it doubles when it fills. The dataplane keys its
    merge accumulations by packet ID plus a second limb packing the
    (MID, merge point) pair. *)

type 'a t

val create : unit -> 'a t
(** An empty table; its first 64 slots are allocated by the first
    insert. *)

val find : 'a t -> a:int -> b:int -> int
(** The slot holding key [(a, b)], or [-1] when absent. The slot stays
    valid until the next {!replace}, {!remove} or {!clear}. *)

val mem : 'a t -> a:int -> b:int -> bool
(** Kept for tests: the table tests check membership after removal and
    clearing. *)

val value : 'a t -> int -> 'a
(** The value in a slot returned by {!find}. *)

val replace : 'a t -> a:int -> b:int -> 'a -> unit
(** Insert or overwrite. @raise Invalid_argument when [a < 0]. *)

val remove : 'a t -> a:int -> b:int -> unit
(** A no-op when the key is absent. *)

val clear : 'a t -> unit
(** Drop every entry, keeping the table's size. *)

val length : 'a t -> int

val iter : (int -> int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] applies [f a b v] to every entry, in slot order (which
    depends on the hash and the insertion history, so callers must not
    depend on it). [f] must not insert into or remove from [t]. *)
