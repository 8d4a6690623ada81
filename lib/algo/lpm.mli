(** Longest-prefix-match table over IPv4 addresses.

    A binary trie keyed by prefix bits; lookup returns the value bound to
    the longest matching prefix. This is the routing substrate of the L3
    forwarder NF (paper §6.1: "longest prefix matching table with 1000
    entries"). *)

type 'a t

val create : unit -> 'a t

val add : 'a t -> prefix:int32 -> len:int -> 'a -> unit
(** [add t ~prefix ~len v] binds value [v] to the [len]-bit prefix of
    [prefix]. A later [add] of the same prefix overwrites the binding.
    @raise Invalid_argument if [len] is outside [0, 32]. *)

val lookup : 'a t -> int32 -> 'a option
(** [lookup t addr] is the value of the longest prefix matching [addr]. *)

val lookup_int : 'a t -> int -> 'a option
(** {!lookup} on an address held in the low 32 bits of an [int] (as
    [Packet.dip_int] returns it); allocates nothing. *)
