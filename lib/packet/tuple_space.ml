(* Tuple-space first-match over an ordered rule table, with no cache:
   the Classifier's level 2 and the Firewall's whole ACL.

   Rules are grouped by mask shape — (sip prefix length, dip prefix
   length, port kind, port kind, proto presence) — so a lookup probes
   one table per distinct shape instead of scanning every rule. Lookups
   work on the two packed key limbs of the 5-tuple ([Hashing.pack_a] =
   sip<<24 | sport<<8 | proto, [pack_b] = dip<<16 | dport), which a
   packet yields straight from its bytes. A shape is a pair of limb
   masks (prefix bits, exact-port bits, proto bits when the shape has a
   proto), and each group keeps one [Pair_table] from the masked limbs
   to a flat bucket of rule indices. Key equality proves the prefixes,
   the exact ports and the proto, so a candidate only has its port
   ranges left to check, against per-rule int bounds. A lookup
   allocates nothing.

   First-match priority is preserved exactly: each bucket is ascending
   by rule index, groups are scanned in ascending order of their lowest
   rule index, and the probe stops as soon as no remaining group can
   beat the best match found. *)

module Pair_table = Nfp_algo.Pair_table

type group = {
  g_mask_a : int;  (* limb-a bits the shape keys on *)
  g_mask_b : int;  (* limb-b bits the shape keys on *)
  g_min_index : int;  (* lowest rule index in the group *)
  g_table : int array Pair_table.t;  (* masked limbs -> rule indices, ascending *)
}

type t = {
  groups : group array;  (* ascending by g_min_index *)
  (* Inclusive port bounds per rule; an absent range spans
     [0, 0xffff]. *)
  sport_lo : int array;
  sport_hi : int array;
  dport_lo : int array;
  dport_hi : int array;
}

(* /0 prefixes match everything; normalize them to wildcard so they
   land in the same group shape as an absent prefix. *)
let prefix_len = function None | Some (_, 0) -> 0 | Some (_, len) -> len

let prefix_mask len = (0xffffffff lsl (32 - len)) land 0xffffffff

(* Wild 0, exact 1, range 2. *)
let port_kind = function None -> 0 | Some (lo, hi) -> if lo = hi then 1 else 2

(* The shape as one int: 6 bits per prefix length, 2 per port kind,
   1 for proto presence. *)
let shape_code (m : Flow_match.t) =
  (prefix_len m.sip_prefix lsl 11)
  lor (prefix_len m.dip_prefix lsl 5)
  lor (port_kind m.sport_range lsl 3)
  lor (port_kind m.dport_range lsl 1)
  lor if m.proto = None then 0 else 1

let limb_masks (m : Flow_match.t) =
  let exact range = if port_kind range = 1 then 0xffff else 0 in
  ( Nfp_algo.Hashing.pack_a_int
      (prefix_mask (prefix_len m.sip_prefix))
      (exact m.sport_range)
      (if m.proto = None then 0 else 0xff),
    Nfp_algo.Hashing.pack_b_int (prefix_mask (prefix_len m.dip_prefix)) (exact m.dport_range) )

(* A rule's fields packed like a 5-tuple; masking with its shape's
   limb masks gives its key. *)
let rule_limbs (m : Flow_match.t) =
  let addr = function None -> 0 | Some (p, _) -> Int32.to_int p land 0xffffffff in
  let lo = function None -> 0 | Some (lo, _) -> lo in
  ( Nfp_algo.Hashing.pack_a_int (addr m.sip_prefix) (lo m.sport_range)
      (Option.value m.proto ~default:0),
    Nfp_algo.Hashing.pack_b_int (addr m.dip_prefix) (lo m.dport_range) )

(* A group under construction: its buckets hold rule indices newest
   first. *)
type draft = { d_mask_a : int; d_mask_b : int; d_min_index : int; d_members : int list Pair_table.t }

let create rules =
  (* Rules arrive in ascending index order, so shapes are met in
     ascending order of their lowest rule index. *)
  let shapes = Pair_table.create () and drafts = ref [] in
  Array.iteri
    (fun i m ->
      let code = shape_code m in
      let d =
        match Pair_table.find shapes ~a:code ~b:0 with
        | -1 ->
            let d_mask_a, d_mask_b = limb_masks m in
            let d = { d_mask_a; d_mask_b; d_min_index = i; d_members = Pair_table.create () } in
            Pair_table.replace shapes ~a:code ~b:0 d;
            drafts := d :: !drafts;
            d
        | s -> Pair_table.value shapes s
      in
      let a, b = rule_limbs m in
      let a = a land d.d_mask_a and b = b land d.d_mask_b in
      let s = Pair_table.find d.d_members ~a ~b in
      Pair_table.replace d.d_members ~a ~b (i :: (if s < 0 then [] else Pair_table.value d.d_members s)))
    rules;
  let group d =
    let table = Pair_table.create () in
    Pair_table.iter
      (fun a b newest_first -> Pair_table.replace table ~a ~b (Array.of_list (List.rev newest_first)))
      d.d_members;
    { g_mask_a = d.d_mask_a; g_mask_b = d.d_mask_b; g_min_index = d.d_min_index; g_table = table }
  in
  let bounds range =
    let lo = Array.make (Array.length rules) 0 and hi = Array.make (Array.length rules) 0xffff in
    Array.iteri
      (fun i m ->
        match range m with
        | Some (l, h) ->
            lo.(i) <- l;
            hi.(i) <- h
        | None -> ())
      rules;
    (lo, hi)
  in
  let sport_lo, sport_hi = bounds (fun (m : Flow_match.t) -> m.sport_range)
  and dport_lo, dport_hi = bounds (fun (m : Flow_match.t) -> m.dport_range) in
  { groups = Array.of_list (List.rev_map group !drafts); sport_lo; sport_hi; dport_lo; dport_hi }

(* The walk is top-level recursion over int arguments: a local
   [let rec] would allocate its closure per lookup. *)

(* The first rule of an ascending bucket whose port ranges hold, or
   [max_int]. *)
let rec first_fit t bucket j sport dport =
  if j = Array.length bucket then max_int
  else
    let r = bucket.(j) in
    if t.sport_lo.(r) <= sport && sport <= t.sport_hi.(r) && t.dport_lo.(r) <= dport
       && dport <= t.dport_hi.(r)
    then r
    else first_fit t bucket (j + 1) sport dport

(* Lowest matching rule index, or [max_int]. A group is probed only
   while its lowest index can beat the match in hand: groups are
   ascending by it, so once one cannot, no later one can. *)
let rec walk t a b gi best =
  if gi < Array.length t.groups && t.groups.(gi).g_min_index < best then begin
    let g = t.groups.(gi) in
    let s = Pair_table.find g.g_table ~a:(a land g.g_mask_a) ~b:(b land g.g_mask_b) in
    let best =
      if s < 0 then best
      else
        let r =
          first_fit t (Pair_table.value g.g_table s) 0 ((a lsr 8) land 0xffff) (b land 0xffff)
        in
        if r < best then r else best
    in
    walk t a b (gi + 1) best
  end
  else best

let find t a b =
  let best = walk t a b 0 max_int in
  if best = max_int then -1 else best

(* The walk probes a prefix of the groups: every group whose lowest
   index is at most the winner (minimum indices are distinct, and the
   winner's own group is the last of them), or all of them when nothing
   matches. *)
let rec count_upto t best gi =
  if gi < Array.length t.groups && t.groups.(gi).g_min_index <= best then count_upto t best (gi + 1)
  else gi

let probed t found = if found < 0 then Array.length t.groups else count_upto t found 0

let group_count t = Array.length t.groups
