(* Two-level flow classifier for the Classification Table (paper §5.1).

   Level 1 is an exact-match microflow cache (Nfp_algo.Flow_table):
   recently seen 5-tuples map straight to their result, including the
   negative "no rule matches" result. Level 2 is the [Tuple_space]
   matcher, probed on a cache miss. Both levels work on the two packed
   key limbs of the 5-tuple, which a packet yields straight from its
   bytes, so a hit and a miss alike allocate nothing. *)

type t = {
  space : Tuple_space.t;
  cache : Nfp_algo.Flow_table.t;
  (* Probe count of the most recent lookup: -1 for a cache hit,
     otherwise the number of tuple-space groups probed. Out-of-band so
     the allocation-free entry point can stay int-valued. *)
  mutable last_probes : int;
}

type outcome = Hit | Miss of int

let create ?(cache_capacity = 1 lsl 16) rules =
  {
    space = Tuple_space.create rules;
    cache = Nfp_algo.Flow_table.create ~capacity:cache_capacity ();
    last_probes = -1;
  }

(* Linear first-match scan: the executable reference the tuple space is
   held to. Returns the 1-based MID and the number of rules examined. *)
let scan rules (f : Flow.t) =
  let n = Array.length rules in
  let rec go i = if i >= n then (None, n) else if Flow_match.matches rules.(i) f then (Some (i + 1), i + 1) else go (i + 1) in
  go 0

(* The one lookup path behind both entry points: the 1-based MID of the
   5-tuple packed in limbs [a]/[b], 0 when no rule matches. *)
let lookup t a b =
  match Nfp_algo.Flow_table.find_packed t.cache ~a ~b with
  | -1 ->
      let found = Tuple_space.find t.space a b in
      t.last_probes <- Tuple_space.probed t.space found;
      let mid = found + 1 in
      Nfp_algo.Flow_table.put_packed t.cache ~a ~b mid;
      mid
  | mid ->
      t.last_probes <- -1;
      mid

let classify t (f : Flow.t) =
  let mid =
    lookup t
      (Nfp_algo.Hashing.pack_a f.sip f.sport f.proto)
      (Nfp_algo.Hashing.pack_b f.dip f.dport)
  in
  ((if mid = 0 then None else Some mid), if t.last_probes < 0 then Hit else Miss t.last_probes)

(* Allocation-free classification for the dataplane front end: the
   limbs come straight from packet bytes, and neither a cache hit nor a
   tuple-space walk builds a Flow.t, an option or an outcome. *)
let classify_packet t pkt = lookup t (Packet.key_a pkt) (Packet.key_b pkt)

let last_probes t = t.last_probes

let group_count t = Tuple_space.group_count t.space
let cache_hits t = Nfp_algo.Flow_table.hits t.cache
let cache_misses t = Nfp_algo.Flow_table.misses t.cache
let cache_evictions t = Nfp_algo.Flow_table.evictions t.cache
