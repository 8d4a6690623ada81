(** Non-cryptographic hashes used across the dataplane.

    The merger agent hashes the immutable PID to pick a merger instance
    (paper §5.3); the load balancer and monitor hash 5-tuples. *)

val fnv1a32 : string -> int
(** 32-bit FNV-1a over a string; result in [0, 2^32). *)

val fnv1a32_bytes : bytes -> pos:int -> len:int -> int
(** FNV-1a over a byte range. @raise Invalid_argument on overrun. *)

val mix64 : int64 -> int64
(** SplitMix64 finaliser: avalanching 64-bit mix, used for PID hashing. *)

val slot_of_pid : int64 -> int -> int
(** [slot_of_pid pid n] is the instance in [0, n) a PID hashes to
    ({!mix64}, sign bit cleared, mod [n]; [n < 1] counts as 1): the
    merger agent's choice of merger instance, and the BESS baseline's
    NIC RSS choice of run-to-completion core. *)

val combine : int -> int -> int
(** Order-dependent combination of two hash values. *)

val pack_a : int32 -> int -> int -> int
(** [pack_a sip sport proto]: first limb of the packed 104-bit 5-tuple
    (fits a 63-bit native int, so packing never allocates). *)

val pack_b : int32 -> int -> int
(** [pack_b dip dport]: second limb. *)

val pack_a_int : int -> int -> int -> int
val pack_b_int : int -> int -> int
(** The same limbs from addresses already held as unsigned 32-bit
    native ints — identical bits to {!pack_a}/{!pack_b}, no int32. *)

val tuple5_64 : int32 -> int32 -> int -> int -> int -> int64
(** [tuple5_64 sip dip sport dport proto] is the dataplane's one
    5-tuple mixing function: the 104-bit tuple packed into two native
    limbs and avalanched through {!mix64}. ECMP hashing, monitor flow
    keying and the classifier's microflow cache all key off this value
    (directly or via its {!tuple5} truncation), so a distribution
    regression shows up everywhere at once — test_algo holds it to
    avalanche and bucket-spread bounds. *)

val tuple5 : int32 -> int32 -> int -> int -> int -> int
(** [tuple5 sip dip sport dport proto] hashes a 5-tuple to a
    non-negative int, ECMP-style: {!tuple5_64} truncated to the native
    int width. *)

val mix2_int : int -> int -> int
(** [mix2_int a b] is the low 63 bits of
    [mix64 (Int64.logxor (mix64 (Int64.of_int a)) (Int64.of_int b))] —
    i.e. [Int64.to_int (tuple5_64 ...)] given the already-packed key
    limbs [a] = {!pack_a} and [b] = {!pack_b} — computed entirely in
    native ints. Bit-identical to the Int64 form (test_algo proves it
    exhaustively against {!tuple5_64}); exists because the Int64 form
    boxes every intermediate on a non-flambda compiler and the
    microflow cache hashes on the classifier's per-packet hit path. *)

val rss2_int : int -> int -> int
(** [rss2_int a b] hashes the packed 5-tuple limbs on an independent
    stream: [mix2_int (a lxor seed_a) (b lxor seed_b)] for two fixed
    seeds, truncated to the non-negative int range. The
    orchestrator's RSS shard stage steers each flow to an NF replica
    with [rss2_int a b mod replicas]; seeding the limbs decorrelates
    that choice from the microflow cache's bucket placement, which uses
    unseeded {!mix2_int} on the same limbs (test_algo checks the joint
    distribution stays uniform). *)
