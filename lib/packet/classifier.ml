(* Two-level flow classifier for the Classification Table (paper §5.1).

   Level 1 is an exact-match microflow cache (Nfp_algo.Flow_table):
   recently seen 5-tuples map straight to their result, including the
   negative "no rule matches" result. Level 2 is a tuple-space matcher:
   rules are grouped by mask shape — (sip prefix length, dip prefix
   length, port kind, port kind, proto presence) — and each group keeps
   one hash table from the masked key to its rules, so a cache miss
   probes one table per distinct shape instead of scanning every rule.

   First-match priority is preserved exactly: each group's bucket list
   is ascending by rule index, groups are scanned in ascending order of
   their lowest rule index, and the probe stops as soon as no remaining
   group can beat the best match found. Port ranges are not maskable,
   so range dimensions contribute nothing to a group's key and are
   verified per candidate rule inside the bucket. *)

type port_kind = Wild | Exact | Range

type entry = { e_index : int; e_match : Flow_match.t }

type group = {
  g_sip_len : int;  (* 0 = wildcard *)
  g_dip_len : int;
  g_sport : port_kind;
  g_dport : port_kind;
  g_proto : bool;
  g_min_index : int;  (* lowest rule index in the group *)
  g_table : (int * int, entry list) Hashtbl.t;
}

type t = {
  groups : group array;  (* ascending by g_min_index *)
  cache : Nfp_algo.Flow_table.t;
  rules : int;
  (* Probe count of the most recent [classify_packet]: -1 for a cache
     hit, otherwise the number of tuple-space groups probed. Out-of-band
     so the allocation-free entry point can stay int-valued. *)
  mutable last_probes : int;
}

type outcome = Hit | Miss of int

(* /0 prefixes match everything; normalize them to wildcard so they
   land in the same group shape as an absent prefix. *)
let prefix_len = function None | Some (_, 0) -> 0 | Some (_, len) -> len

let port_kind = function
  | None -> Wild
  | Some (lo, hi) -> if lo = hi then Exact else Range

let mask_of_len len = if len = 0 then 0l else Int32.shift_left (-1l) (32 - len)

let masked_key g (m : Flow_match.t) =
  let ip prefix len =
    match prefix with
    | None -> 0l
    | Some (p, _) -> Int32.logand p (mask_of_len len)
  in
  let port kind range = match (kind, range) with Exact, Some (lo, _) -> lo | _ -> 0 in
  ( Nfp_algo.Hashing.pack_a (ip m.sip_prefix g.g_sip_len)
      (port g.g_sport m.sport_range)
      (match (g.g_proto, m.proto) with true, Some p -> p | _ -> 0),
    Nfp_algo.Hashing.pack_b (ip m.dip_prefix g.g_dip_len) (port g.g_dport m.dport_range) )

let flow_key g (f : Flow.t) =
  ( Nfp_algo.Hashing.pack_a
      (Int32.logand f.sip (mask_of_len g.g_sip_len))
      (match g.g_sport with Exact -> f.sport | Wild | Range -> 0)
      (if g.g_proto then f.proto else 0),
    Nfp_algo.Hashing.pack_b
      (Int32.logand f.dip (mask_of_len g.g_dip_len))
      (match g.g_dport with Exact -> f.dport | Wild | Range -> 0) )

let shape_of (m : Flow_match.t) =
  ( prefix_len m.sip_prefix,
    prefix_len m.dip_prefix,
    port_kind m.sport_range,
    port_kind m.dport_range,
    m.proto <> None )

let create ?(cache_capacity = 1 lsl 16) rules =
  let shapes = Hashtbl.create 16 in
  Array.iteri
    (fun i m ->
      let s = shape_of m in
      let g =
        match Hashtbl.find_opt shapes s with
        | Some g -> g
        | None ->
            let sip_len, dip_len, sk, dk, proto = s in
            let g =
              {
                g_sip_len = sip_len;
                g_dip_len = dip_len;
                g_sport = sk;
                g_dport = dk;
                g_proto = proto;
                g_min_index = i;
                g_table = Hashtbl.create 64;
              }
            in
            Hashtbl.replace shapes s g;
            g
      in
      let key = masked_key g m in
      let bucket = try Hashtbl.find g.g_table key with Not_found -> [] in
      (* Rules arrive in ascending index order; appending keeps each
         bucket sorted, so its first full match is the group minimum. *)
      Hashtbl.replace g.g_table key (bucket @ [ { e_index = i; e_match = m } ]))
    rules;
  let groups =
    Hashtbl.fold (fun _ g acc -> g :: acc) shapes []
    |> List.sort (fun a b -> compare a.g_min_index b.g_min_index)
    |> Array.of_list
  in
  {
    groups;
    cache = Nfp_algo.Flow_table.create ~capacity:cache_capacity ();
    rules = Array.length rules;
    last_probes = -1;
  }

(* Linear first-match scan: the executable reference the tuple space is
   held to. Returns the 1-based MID and the number of rules examined. *)
let scan rules (f : Flow.t) =
  let n = Array.length rules in
  let rec go i = if i >= n then (None, n) else if Flow_match.matches rules.(i) f then (Some (i + 1), i + 1) else go (i + 1) in
  go 0

let lookup_groups t (f : Flow.t) =
  let best = ref max_int and probed = ref 0 in
  let n = Array.length t.groups in
  (let rec go gi =
     if gi < n then begin
       let g = t.groups.(gi) in
       (* No rule in this or any later group can beat the match in
          hand: groups are ascending by their lowest index. *)
       if g.g_min_index < !best then begin
         incr probed;
         (match Hashtbl.find_opt g.g_table (flow_key g f) with
         | None -> ()
         | Some bucket -> (
             match
               List.find_opt (fun e -> Flow_match.matches e.e_match f) bucket
             with
             | Some e -> if e.e_index < !best then best := e.e_index
             | None -> ()));
         go (gi + 1)
       end
     end
   in
   go 0);
  ((if !best = max_int then None else Some (!best + 1)), !probed)

let classify t (f : Flow.t) =
  match
    Nfp_algo.Flow_table.find t.cache ~sip:f.sip ~dip:f.dip ~sport:f.sport
      ~dport:f.dport ~proto:f.proto
  with
  | Some 0 -> (None, Hit)
  | Some mid -> (Some mid, Hit)
  | None ->
      let result, probed = lookup_groups t f in
      Nfp_algo.Flow_table.put t.cache ~sip:f.sip ~dip:f.dip ~sport:f.sport
        ~dport:f.dport ~proto:f.proto
        (match result with Some mid -> mid | None -> 0);
      (result, Miss probed)

(* Allocation-free classification for the dataplane front end: a
   cache hit packs the 5-tuple straight from packet bytes into the two
   key limbs and probes the microflow cache without building a Flow.t,
   an option or an outcome — no allocation at all. Only a miss (which
   pays a tuple-space walk anyway) materializes the flow. Returns the
   resolved 1-based MID, 0 when no rule matches; probe accounting is
   read back through [last_probes]. Counters move exactly as
   [classify]'s do. *)
let classify_packet t pkt =
  let a = Packet.key_a pkt and b = Packet.key_b pkt in
  match Nfp_algo.Flow_table.find_packed t.cache ~a ~b with
  | -1 ->
      let f = Packet.flow pkt in
      let result, probed = lookup_groups t f in
      let mid = match result with Some mid -> mid | None -> 0 in
      Nfp_algo.Flow_table.put_packed t.cache ~a ~b mid;
      t.last_probes <- probed;
      mid
  | mid ->
      t.last_probes <- -1;
      mid

let last_probes t = t.last_probes

let group_count t = Array.length t.groups
let rule_count t = t.rules
let cache_hits t = Nfp_algo.Flow_table.hits t.cache
let cache_misses t = Nfp_algo.Flow_table.misses t.cache
let cache_evictions t = Nfp_algo.Flow_table.evictions t.cache
