(* Differential tests for the two-level classifier: [Classifier.classify]
   (microflow cache over a tuple-space matcher) must assign the same MID
   as the [Classifier.scan] linear reference, packet for packet, on
   randomized overlapping rule tables — including port-range rules,
   boundary ports, and caches small enough to thrash. A system-level
   check holds a [`Cached] multi-graph deployment observationally
   identical to the [`Scan] one. *)

open Nfp_packet
module Prng = Nfp_algo.Prng
module Registry = Nfp_nf.Registry

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Random tables and flows over a deliberately small universe so that  *)
(* rules overlap and flows actually hit them.                          *)
(* ------------------------------------------------------------------ *)

let ip a b c d =
  Int32.logor
    (Int32.shift_left (Int32.of_int (a land 0xff)) 24)
    (Int32.of_int (((b land 0xff) lsl 16) lor ((c land 0xff) lsl 8) lor (d land 0xff)))

(* Addresses live in 10.{0,1}.{0..3}.{0..15}; ports in a handful of
   interesting values; protos in {1, 6, 17}. *)
let random_flow prng =
  let addr () = ip 10 (Prng.int prng ~bound:2) (Prng.int prng ~bound:4) (Prng.int prng ~bound:16) in
  let port () =
    match Prng.int prng ~bound:6 with
    | 0 -> 0
    | 1 -> 65535
    | 2 -> 80
    | 3 -> 443
    | _ -> Prng.int prng ~bound:1024
  in
  let proto = [| 1; 6; 17 |].(Prng.int prng ~bound:3) in
  Flow.make ~sip:(addr ()) ~dip:(addr ()) ~sport:(port ()) ~dport:(port ()) ~proto

let random_prefix prng =
  let len = [| 0; 8; 16; 24; 28; 32; Prng.int prng ~bound:33 |].(Prng.int prng ~bound:7) in
  (ip 10 (Prng.int prng ~bound:2) (Prng.int prng ~bound:4) (Prng.int prng ~bound:16), len)

let random_range prng =
  match Prng.int prng ~bound:5 with
  | 0 -> (0, 0)
  | 1 -> (65535, 65535)
  | 2 ->
      let p = Prng.int prng ~bound:1024 in
      (p, p)
  | 3 -> (0, Prng.int prng ~bound:65536)
  | _ ->
      let a = Prng.int prng ~bound:1024 in
      (a, a + Prng.int prng ~bound:(65536 - a))

let random_rule ?(force_ranges = false) prng =
  let opt bound v = if force_ranges || Prng.int prng ~bound = 0 then Some (v ()) else None in
  Flow_match.make
    ?sip_prefix:(opt 2 (fun () -> random_prefix prng))
    ?dip_prefix:(opt 2 (fun () -> random_prefix prng))
    ?sport_range:(if force_ranges then Some (random_range prng) else opt 3 (fun () -> random_range prng))
    ?dport_range:(opt 3 (fun () -> random_range prng))
    ?proto:(opt 2 (fun () -> [| 1; 6; 17 |].(Prng.int prng ~bound:3)))
    ()

let random_table ?force_ranges prng n = Array.init n (fun _ -> random_rule ?force_ranges prng)

let mid = Alcotest.option Alcotest.int

(* The differential itself: a stream that mixes a recurring flow pool
   (cache hits) with fresh flows (cache misses), checked packet for
   packet against the linear scan. Returns the classifier for counter
   assertions. *)
let differential ?cache_capacity ?force_ranges ~seed ~rules ~packets () =
  let prng = Prng.create ~seed in
  let table = random_table ?force_ranges prng rules in
  let clf = Classifier.create ?cache_capacity table in
  let pool = Array.init 97 (fun _ -> random_flow prng) in
  for i = 1 to packets do
    let flow =
      if Prng.int prng ~bound:4 < 3 then pool.(Prng.int prng ~bound:(Array.length pool))
      else random_flow prng
    in
    let expected, _ = Classifier.scan table flow in
    let got, _ = Classifier.classify clf flow in
    if expected <> got then
      check mid (Format.asprintf "packet %d: %a" i Flow.pp flow) expected got
  done;
  check Alcotest.int "every packet hit or missed the cache" packets
    (Classifier.cache_hits clf + Classifier.cache_misses clf);
  clf

let differential_tests =
  [
    Alcotest.test_case "12k packets, 64 overlapping rules" `Quick (fun () ->
        ignore (differential ~seed:1L ~rules:64 ~packets:12_000 ()));
    Alcotest.test_case "port-range-heavy table (unmaskable shapes)" `Quick (fun () ->
        ignore (differential ~force_ranges:true ~seed:2L ~rules:48 ~packets:12_000 ()));
    Alcotest.test_case "tiny cache: evictions do not change answers" `Quick (fun () ->
        let clf = differential ~cache_capacity:16 ~seed:3L ~rules:64 ~packets:12_000 () in
        check Alcotest.bool "cache thrashes" true (Classifier.cache_evictions clf > 0));
    Alcotest.test_case "single catch-all rule" `Quick (fun () ->
        let table = [| Flow_match.any |] in
        let clf = Classifier.create table in
        let prng = Prng.create ~seed:4L in
        for _ = 1 to 500 do
          let f = random_flow prng in
          check mid "catch-all" (Some 1) (fst (Classifier.classify clf f))
        done);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60 ~name:"random tables agree with scan"
         QCheck.(pair (int_range 1 40) (int_bound 10_000))
         (fun (rules, seed) ->
           ignore
             (differential ~cache_capacity:64 ~seed:(Int64.of_int (seed + 7)) ~rules
                ~packets:400 ());
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Structure: priority, caching and counters                           *)
(* ------------------------------------------------------------------ *)

let flow_a = Flow.make ~sip:(ip 10 0 0 1) ~dip:(ip 10 1 0 1) ~sport:1000 ~dport:80 ~proto:6

let structure_tests =
  [
    Alcotest.test_case "lowest rule index wins across groups" `Quick (fun () ->
        (* Rule 1 (broad, proto-only shape) must shadow rule 2 (exact
           shape) even though the exact-match group is more specific. *)
        let table = [| Flow_match.make ~proto:6 (); Flow_match.of_flow flow_a |] in
        let clf = Classifier.create table in
        check mid "shadowed" (Some 1) (fst (Classifier.classify clf flow_a));
        (* Reversing the table order flips the winner. *)
        let table' = [| Flow_match.of_flow flow_a; Flow_match.make ~proto:6 () |] in
        let clf' = Classifier.create table' in
        check mid "exact first" (Some 1) (fst (Classifier.classify clf' flow_a));
        check mid "broad catches the rest" (Some 2)
          (fst (Classifier.classify clf' (Flow.reverse flow_a))));
    Alcotest.test_case "repeat flows are cache hits" `Quick (fun () ->
        let clf = Classifier.create [| Flow_match.make ~proto:6 () |] in
        let r1, o1 = Classifier.classify clf flow_a in
        let r2, o2 = Classifier.classify clf flow_a in
        check mid "same mid" r1 r2;
        check Alcotest.bool "first misses" true (match o1 with Classifier.Miss _ -> true | _ -> false);
        check Alcotest.bool "second hits" true (o2 = Classifier.Hit);
        check Alcotest.int "hits" 1 (Classifier.cache_hits clf);
        check Alcotest.int "misses" 1 (Classifier.cache_misses clf));
    Alcotest.test_case "negative results are cached too" `Quick (fun () ->
        let clf = Classifier.create [| Flow_match.make ~proto:17 () |] in
        let r1, o1 = Classifier.classify clf flow_a in
        let r2, o2 = Classifier.classify clf flow_a in
        check mid "no match" None r1;
        check mid "still no match" None r2;
        check Alcotest.bool "first misses" true (o1 <> Classifier.Hit);
        check Alcotest.bool "second hits" true (o2 = Classifier.Hit));
    Alcotest.test_case "group count tracks distinct mask shapes" `Quick (fun () ->
        let table =
          [|
            Flow_match.make ~proto:6 ();
            Flow_match.make ~proto:17 ();  (* same shape as above *)
            Flow_match.make ~sip_prefix:(ip 10 0 0 0, 24) ();
            Flow_match.make ~sip_prefix:(ip 10 1 0 0, 24) ();  (* same shape *)
            Flow_match.make ~dport_range:(0, 1023) ();
          |]
        in
        let clf = Classifier.create table in
        check Alcotest.int "shapes" 3 (Classifier.group_count clf));
    Alcotest.test_case "a /0 prefix is the same shape as no prefix" `Quick (fun () ->
        let table =
          [|
            Flow_match.make ~sip_prefix:(ip 10 0 0 0, 0) ~proto:6 ();
            Flow_match.make ~proto:6 ();
          |]
        in
        let clf = Classifier.create table in
        check Alcotest.int "shapes" 1 (Classifier.group_count clf);
        check mid "first wins" (Some 1) (fst (Classifier.classify clf flow_a)));
  ]

(* ------------------------------------------------------------------ *)
(* Probe count: modeled output, charged per group probed               *)
(* ------------------------------------------------------------------ *)

(* An executable model of the tuple-space skip rule, built from the
   rules alone: group the rules by mask shape (a /0 prefix is no
   prefix), order the groups by their lowest index, and probe them in
   that order while a group's lowest index is below the best match so
   far. Returns the groups probed. *)
let model_probes table =
  let len = function None | Some (_, 0) -> 0 | Some (_, l) -> l in
  let kind = function None -> `Wild | Some (lo, hi) -> if lo = hi then `Exact else `Range in
  let shape (m : Flow_match.t) =
    (len m.sip_prefix, len m.dip_prefix, kind m.sport_range, kind m.dport_range, m.proto <> None)
  in
  (* (shape, rule indices ascending), by first appearance. *)
  let groups =
    Array.to_list (Array.mapi (fun i m -> (i, m)) table)
    |> List.fold_left
         (fun acc (i, m) ->
           if List.mem_assoc (shape m) acc then
             List.map (fun (s, is) -> if s = shape m then (s, is @ [ i ]) else (s, is)) acc
           else acc @ [ (shape m, [ i ]) ])
         []
    |> List.map snd
  in
  fun flow ->
    let rec walk best probed = function
      | (min :: _ as members) :: rest when min < best ->
          let best =
            List.fold_left
              (fun b i -> if i < b && Flow_match.matches table.(i) flow then i else b)
              best members
          in
          walk best (probed + 1) rest
      | _ -> probed
    in
    walk max_int 0 groups

let probe_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:100 ~name:"probe counts follow the skip rule"
         QCheck.(pair (int_range 1 40) (int_bound 100_000))
         (fun (rules, seed) ->
           let prng = Prng.create ~seed:(Int64.of_int (seed + 11)) in
           let table = random_table ~force_ranges:(seed land 1 = 1) prng rules in
           let model = model_probes table in
           let by_flow = Classifier.create table and by_packet = Classifier.create table in
           (* Flows read back from packets: an ICMP packet carries no
              ports, so its flow has both ports 0. *)
           let pool =
             Array.init 50 (fun _ -> Packet.create ~flow:(random_flow prng) ~payload:"" ())
           in
           let seen = Hashtbl.create 64 in
           for i = 1 to 300 do
             let pkt = pool.(Prng.int prng ~bound:(Array.length pool)) in
             let flow = Packet.flow pkt in
             let expected = if Hashtbl.mem seen flow then -1 else model flow in
             Hashtbl.replace seen flow ();
             let _, outcome = Classifier.classify by_flow flow in
             let n = match outcome with Classifier.Hit -> -1 | Classifier.Miss n -> n in
             let after_flow = Classifier.last_probes by_flow in
             ignore (Classifier.classify_packet by_packet pkt);
             let after_packet = Classifier.last_probes by_packet in
             if (n, after_flow, after_packet) <> (expected, expected, expected) then
               Alcotest.failf
                 "packet %d (%a): model %d, classify %d, then last_probes %d, classify_packet %d"
                 i Flow.pp flow expected n after_flow after_packet
           done;
           (* The model's hit rule assumes a cache that never evicts. *)
           check Alcotest.int "no evictions" 0 (Classifier.cache_evictions by_flow);
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation budget                                                   *)
(* ------------------------------------------------------------------ *)

let alloc_tests =
  [
    Alcotest.test_case "classify_packet allocates nothing on hits and misses" `Quick
      (fun () ->
        (* Tenant t owns dip 10.0.t.0/24; odd tenants pin UDP and
           tenants with bit 1 set carry a source-port range: four mask
           shapes. Flows of tenants 64-79 match no rule. *)
        let tenants = 64 in
        let table =
          Array.init tenants (fun t ->
              Flow_match.make
                ~dip_prefix:(ip 10 0 t 0, 24)
                ?proto:(if t land 1 = 1 then Some 17 else None)
                ?sport_range:(if t land 2 = 2 then Some (1024, 65535) else None)
                ())
        in
        let clf = Classifier.create ~cache_capacity:8 table in
        check Alcotest.int "shapes" 4 (Classifier.group_count clf);
        (* Each flow arrives twice in a row: the repeat hits the cache,
           and the 8-entry cache has evicted it by its next turn. *)
        let packets =
          Array.init 1024 (fun i ->
              let fid = i / 2 in
              let t = fid mod (tenants + 16) in
              let flow =
                Flow.make ~sip:(ip 10 200 (fid lsr 8) fid) ~dip:(ip 10 0 t (fid land 0xff))
                  ~sport:(500 + (fid * 7 mod 2000)) ~dport:80
                  ~proto:(if t land 1 = 1 then 17 else 6)
              in
              Packet.create ~flow ~payload:"" ())
        in
        let pass () =
          for i = 0 to Array.length packets - 1 do
            ignore (Classifier.classify_packet clf packets.(i))
          done
        in
        pass ();
        let hits = Classifier.cache_hits clf and misses = Classifier.cache_misses clf in
        let before = Gc.minor_words () in
        pass ();
        let words = Gc.minor_words () -. before in
        let hits = Classifier.cache_hits clf - hits and misses = Classifier.cache_misses clf - misses in
        check Alcotest.bool "both hits and misses measured" true (hits > 0 && misses > 0);
        check Alcotest.bool "the cache thrashes" true (Classifier.cache_evictions clf > 0);
        if words > 0.0 then
          Alcotest.failf "allocation regression: %d hits and %d misses allocated %.0f words" hits
            misses words);
  ]

(* ------------------------------------------------------------------ *)
(* System level: `Cached` vs `Scan` front ends are observationally     *)
(* identical (costs default to zero, so even timestamps must agree).   *)
(* ------------------------------------------------------------------ *)

type trace = {
  outs : (int64 * string) list;
  delivered : int;
  unmatched : int;
  duration_ns : float;
}

let trace ~classify ~graphs ~packets =
  let outs = ref [] in
  let make engine ~output =
    Nfp_infra.System.make_multi ~classify ~graphs engine ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let g =
    Nfp_traffic.Pktgen.create { Nfp_traffic.Pktgen.default with flows = 64 }
  in
  let r =
    Nfp_sim.Harness.run ~make
      ~gen:(Nfp_traffic.Pktgen.packet g)
      ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets ()
  in
  {
    outs = List.rev !outs;
    delivered = r.delivered;
    unmatched = r.unmatched;
    duration_ns = r.duration_ns;
  }

let system_tests =
  [
    Alcotest.test_case "`Cached and `Scan front ends trace identically" `Quick (fun () ->
        let p1 = Oracle.plan_of "NF(m1, Monitor)\nPosition(m1, first)" in
        let p2 =
          Oracle.plan_of "NF(fw, Firewall)\nNF(lb, LoadBalancer)\nChain(fw, lb)"
        in
        let graphs =
          [
            (Flow_match.make ~proto:17 (), p1, Registry.instances [ ("m1", "Monitor") ]);
            ( Flow_match.make ~proto:6 ~dport_range:(0, 32767) (),
              p2,
              Registry.instances [ ("fw", "Firewall"); ("lb", "LoadBalancer") ] );
          ]
        in
        let a = trace ~classify:`Cached ~graphs ~packets:800 in
        let b = trace ~classify:`Scan ~graphs ~packets:800 in
        check Alcotest.int "delivered" a.delivered b.delivered;
        check Alcotest.int "unmatched" a.unmatched b.unmatched;
        check (Alcotest.float 0.0) "duration" a.duration_ns b.duration_ns;
        check Alcotest.int "output count" (List.length a.outs) (List.length b.outs);
        List.iter2
          (fun (pid_a, bytes_a) (pid_b, bytes_b) ->
            check Alcotest.int64 "output pid" pid_a pid_b;
            check Alcotest.string "output bytes" bytes_a bytes_b)
          a.outs b.outs);
  ]

let () =
  Alcotest.run "nfp_classifier"
    [
      ("differential", differential_tests);
      ("structure", structure_tests);
      ("probes", probe_tests);
      ("allocation", alloc_tests);
      ("system", system_tests);
    ]
