(** Per-packet shared-memory context.

    Stands in for the huge-page shared memory region of the paper's
    infrastructure (§5): all versions of one packet live here, and NFs,
    runtimes and mergers pass references to this context through rings
    rather than copying buffers. *)

open Nfp_packet

type t

val create : pid:int64 -> mid:int -> versions:int -> Packet.t -> t
(** Store the original packet as version 1 and stamp its metadata
    (MID/PID, version 1) the way the classifier does. [versions] is the
    plan's [version_count]: the context holds versions [1 .. versions].
    @raise Invalid_argument unless [1 <= versions <= Meta.max_version]. *)

val pid : t -> int64
(** Version 1's metadata PID. *)

val mid : t -> int
(** The service graph (Match ID) this packet was classified into:
    version 1's metadata MID. *)

val slot : t -> int -> Packet.t
(** Version lookup (1-based) that allocates nothing: a missing or
    out-of-range version is {!Packet.absent}. *)

val get : t -> int -> Packet.t option
(** {!slot} as an option: missing versions are [None]. *)

val copy : t -> src:int -> dst:int -> full:bool -> int
(** Materialize version [dst] from [src] (header-only unless [full]),
    tagging its metadata version; returns the number of bytes copied.
    @raise Invalid_argument when [src] does not exist, or [dst] is
    version 1 or past the plan's version count. *)

val versions : t -> (int * Packet.t) list
(** Extant versions in ascending order. Kept for tests: the context
    tests read which versions a context holds. *)
