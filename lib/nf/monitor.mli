(** Per-flow traffic monitor (paper §6.1: "maintains per-flow counters…
    The counter table uses the hash value of the 5-tuple as the key").

    Read-only on the 5-tuple fields (Table 2's NetFlow row), the
    canonical parallelizable NF of the paper's running example. Its
    per-flow counters are a [Per_flow Commutative] {!Nf.table} and its
    packet total a counter, so {!Nf.make} derives its checkpoint, merge,
    migration shard and digest. *)

type counter = { packets : int; bytes : int }

type stats = {
  flows : unit -> int;
  lookup : Nfp_packet.Flow.t -> counter option;
  total_packets : unit -> int;
}

val create : ?name:string -> unit -> Nf.t * stats
