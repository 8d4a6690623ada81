(** Per-flow traffic monitor (paper §6.1: "maintains per-flow counters…
    The counter table uses the hash value of the 5-tuple as the key").

    Read-only on the 5-tuple fields (Table 2's NetFlow row), the
    canonical parallelizable NF of the paper's running example. *)

type counter = { packets : int; bytes : int }

type stats = {
  flows : unit -> int;
  lookup : Nfp_packet.Flow.t -> counter option;
  total_packets : unit -> int;
}

type Nf.state += State of (Nfp_packet.Flow.t, counter) Hashtbl.t * int
(** The checkpoint, merge and migration format: per-flow counters and
    the global packet total. The live table is keyed by the packet's
    5-tuple limbs ({!Nfp_packet.Packet.key_a}/[key_b]) and converts to
    and from this form only at those boundaries. *)

val create : ?name:string -> unit -> Nf.t * stats
