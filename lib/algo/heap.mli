(** Imperative binary min-heap keyed by a user-supplied comparison.

    [pop] returns the smallest element according to the ordering given
    at creation. The simulator's event queue is a specialized heap of its
    own, in [Nfp_sim.Engine]. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** [create ~cmp] is an empty heap ordered by [cmp]. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Smallest element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the smallest element. *)

val clear : 'a t -> unit
