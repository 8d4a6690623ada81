(** Tuple-space first-match over an ordered {!Flow_match} rule table,
    with no cache: level 2 of {!Classifier}, and the whole of the
    Firewall's compiled ACL.

    Rules are grouped by mask shape (prefix lengths, port-range kind,
    proto presence), so a lookup probes one table per distinct shape
    rather than every rule. A shape is a pair of masks over the two
    packed key limbs of the 5-tuple (prefix bits, exact-port bits,
    proto bits), and each group keeps one {!Nfp_algo.Pair_table} from
    the masked limbs to a flat, ascending array of rule indices. Port
    ranges are unmaskable and are checked against per-rule int bounds.

    Priority is preserved exactly: each group resolves to its lowest
    matching rule index and the winner is the minimum across groups
    (groups whose lowest index cannot beat the match in hand are
    skipped). The matcher is immutable once built, so one value can be
    shared by any number of users, across domains. *)

type t

val create : Flow_match.t array -> t
(** Build the tuple space for an ordered rule table (index 0 has the
    highest priority). A [Some (lo, hi)] port range must lie in
    [[0, 0xffff]] with [lo <= hi]; {!Classifier} gets that from
    {!Flow_match.make}, the Firewall normalizes its own ranges. *)

val find : t -> int -> int -> int
(** [find t a b]: the lowest index of a rule matching the 5-tuple
    packed in limbs [a] ({!Nfp_algo.Hashing.pack_a_int}) and [b]
    ({!Nfp_algo.Hashing.pack_b_int}), or [-1] when none matches.
    Allocates nothing. *)

val probed : t -> int -> int
(** [probed t (find t a b)]: the number of groups that lookup probed,
    for cost accounting. *)

val group_count : t -> int
(** Distinct mask shapes — the tables probed on a worst-case miss. *)
