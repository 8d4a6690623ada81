(** Longest-prefix-match table over IPv4 addresses.

    An immutable multibit trie of stride 4 in one flat [int array],
    built once from the whole route list; lookup returns the value bound
    to the longest matching prefix. This is the routing substrate of the
    L3 forwarder NF (paper §6.1: "longest prefix matching table with
    1000 entries"). *)

type 'a t

val of_list : (int32 * int * 'a) list -> 'a t
(** [of_list [(prefix, len, v); ...]] binds each [v] to the [len]-bit
    prefix of its [prefix]; bits past [len] are ignored. Of two routes
    with the same prefix and length, the later one in the list wins.
    @raise Invalid_argument if a [len] is outside [0, 32] or the list
    holds more than 2{^24} routes. *)

val lookup : 'a t -> int32 -> 'a option
(** [lookup t addr] is the value of the longest prefix matching [addr]. *)

val lookup_int : 'a t -> int -> 'a option
(** {!lookup} on an address held in the low 32 bits of an [int] (as
    [Packet.dip_int] returns it); allocates nothing. *)
