(** Two-level flow classifier: microflow cache over a tuple-space
    matcher.

    Classifies a 5-tuple against an ordered {!Flow_match} rule table
    with first-match-wins priority — the paper's Classification Table
    (§5.1, Fig. 4) — in amortized O(1) per packet instead of a linear
    scan per packet:

    - level 1, an exact-match microflow cache
      ({!Nfp_algo.Flow_table}): a recently seen flow maps straight to
      its MID (or to the cached negative "no rule" result);
    - level 2, the {!Tuple_space} matcher: rules grouped by mask
      shape (prefix lengths, port-range kind, proto presence), so a
      cache miss probes one table per distinct shape rather than every
      rule.

    Both levels read only the two limbs, so neither a hit nor a miss of
    {!classify_packet} allocates.

    Priority is preserved exactly, as {!Tuple_space} keeps it.
    [test/test_classifier.ml] holds {!classify} to
    packet-for-packet agreement with {!scan} on randomized tables. *)

type t

type outcome =
  | Hit  (** resolved by the microflow cache *)
  | Miss of int  (** resolved by the tuple space; payload = groups probed *)

val create : ?cache_capacity:int -> Flow_match.t array -> t
(** Build the tuple space for an ordered rule table (index 0 has the
    highest priority) with an empty cache of [cache_capacity] (default
    65536) flows. *)

val classify : t -> Flow.t -> int option * outcome
(** First-match lookup: [Some mid] is the 1-based rule position, [None]
    means no rule matches. Negative results are cached too. Kept for
    tests: the flow-level form the differential tests hold against
    {!scan}; the dataplane calls {!classify_packet}. *)

val classify_packet : t -> Packet.t -> int
(** Allocation-free form of {!classify} for the per-packet front end:
    reads the 5-tuple straight from [pkt]'s bytes and allocates nothing,
    on a microflow-cache hit and on a miss alike (no Flow.t, no option,
    no outcome). Returns the resolved 1-based MID, 0 when no rule
    matches; identical result and counter movement to {!classify} on
    the packet's flow. The probe accounting {!classify} returns in its
    outcome is read back through {!last_probes}. *)

val last_probes : t -> int
(** Tuple-space groups probed by the most recent {!classify} or
    {!classify_packet}: [-1] for a cache hit. *)

val scan : Flow_match.t array -> Flow.t -> int option * int
(** Reference linear scan; also returns the number of rules examined
    (for cost accounting). *)

val group_count : t -> int
(** Distinct mask shapes — the tables probed on a worst-case miss. *)

val cache_hits : t -> int

val cache_misses : t -> int

val cache_evictions : t -> int
