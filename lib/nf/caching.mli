(** Content cache (paper Table 2: Nginx — reads SIP, DIP and payload).

    Read-only: records request keys (payload hashes per destination)
    and counts hits/misses, standing in for an Nginx-style cache whose
    packet-visible behaviour is pure observation. *)

type stats = { hits : unit -> int; misses : unit -> int; entries : unit -> int }

val create : ?name:string -> ?capacity:int -> unit -> Nf.t * stats
(** FIFO eviction beyond [capacity] (default 4096) keys. Kept for
    tests: [capacity], which the eviction test shrinks to 2. *)
