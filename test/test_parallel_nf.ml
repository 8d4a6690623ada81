(* Intra-NF replication equivalence: an NF the state-access analysis
   clears for sharding, deployed as N RSS-steered replicas, must be
   observationally identical to the single-instance deployment — same
   delivery multiset (pid, bytes), same completion/drop ledger, and a
   merged state digest equal to the digest a lone instance would hold.
   The comparison runs through the [?replication] report so replicated
   and unreplicated runs are scored on the same footing: the report
   yields the instance digest at one replica and the merge-restored
   digest at several. *)

open Nfp_packet
open Nfp_core
module Sys = Nfp_infra.System

let check = Alcotest.check

(* Run unreplicated and replicated (optionally also faulted), hold the
   replicated run to the oracle, and hand back its ledger and
   replication report. *)
let equivalence ?fault ?nfs ~text ~bindings ~replicas ?(rate = 0.5) ?(packets = 2000) () =
  let plan = Oracle.plan_of text in
  let arrivals = Nfp_sim.Harness.Uniform rate in
  let baseline, _ = Oracle.observe ?nfs ~plan ~bindings ~arrivals ~packets () in
  let replication = ref (fun () -> []) in
  let sharded, rr =
    Oracle.observe ?fault ?nfs ~replicas ~replication ~plan ~bindings ~arrivals ~packets ()
  in
  Oracle.check_equivalent "sharded run" baseline sharded;
  (rr, !replication ())

let find_rr report name =
  List.find (fun (rr : Sys.replica_report) -> rr.rr_nf = name) report

let strategy = Alcotest.testable Replication.pp ( = )

(* ------------------------------------------------------------------ *)
(* Strategy derivation over the whole registry                         *)
(* ------------------------------------------------------------------ *)

let expected_strategies =
  Replication.
    [
      ("Firewall", Shared_nothing, true);
      ("IDS", Shared_nothing, true);
      ("IPS", Shared_nothing, true);
      ("Gateway", Shared_nothing, true);
      ("LoadBalancer", Shared_nothing, true);
      ("Monitor", Shared_nothing, true);
      ("Proxy", Shared_nothing, true);
      ("Compression", Shared_nothing, true);
      (* Global general-write state pins these to a single instance. *)
      ("Caching", Sequential, false);
      ("VPN", Sequential, false);
      ("NAT", Sequential, false);
      ("TrafficShaper", Sequential, false);
      ("Forwarder", Sequential, false);
    ]

let strategy_tests =
  [
    Alcotest.test_case "every built-in NF derives its expected strategy" `Quick
      (fun () ->
        List.iter
          (fun (kind, want, want_eligible) ->
            match Nfp_nf.Registry.instantiate kind ~name:"x" with
            | None -> Alcotest.failf "no implementation for %s" kind
            | Some nf ->
                check strategy kind want (Replication.derive nf);
                check Alcotest.bool
                  (Printf.sprintf "%s eligible" kind)
                  want_eligible (Replication.eligible nf))
          expected_strategies);
    Alcotest.test_case "hashed port allocation frees NAT to shard" `Quick (fun () ->
        (* The global port cursor is the only thing pinning NAT down;
           flow-hashed allocation removes it from the profile. *)
        let nf, _ = Nfp_nf.Nat.create ~alloc:`Hashed () in
        check strategy "NAT+hashed" Replication.Shared_nothing (Replication.derive nf);
        check Alcotest.bool "NAT+hashed eligible" true (Replication.eligible nf));
    Alcotest.test_case "an undeclared NF is never replicated" `Quick (fun () ->
        let nf =
          Nfp_nf.Nf.make ~name:"opaque" ~kind:"Opaque" ~profile:[]
            ~cost_cycles:(fun _ -> 100)
            (fun _ -> Nfp_nf.Nf.Forward)
        in
        check strategy "no profile" Replication.Sequential (Replication.derive nf);
        check Alcotest.bool "not eligible" false (Replication.eligible nf));
  ]

(* ------------------------------------------------------------------ *)
(* Merge round-trip at the NF level, no simulator                      *)
(* ------------------------------------------------------------------ *)

(* Snapshot every shard, merge, restore into a fresh scratch instance —
   exactly what the orchestrator's report does — and digest. *)
let merged_digest (nf0 : Nfp_nf.Nf.t) shards =
  let snaps = List.map (fun (nf : Nfp_nf.Nf.t) -> (Option.get nf.snapshot) ()) shards in
  let scratch = (Option.get nf0.fresh) () in
  (Option.get scratch.restore) ((Option.get nf0.merge) snaps);
  scratch.state_digest ()

let merge_round_trip kind =
  Alcotest.test_case (Printf.sprintf "%s shards merge to the lone-instance digest" kind)
    `Quick (fun () ->
      let inst () = Option.get (Nfp_nf.Registry.instantiate kind ~name:"m") in
      let lone = inst () in
      let shards = List.init 3 (fun _ -> inst ()) in
      (* Two identical packet streams (the generator is seeded): one
         fed whole to the lone instance, one dealt across the shards.
         Commutative merges must not care how the deal interleaved. *)
      let feed gen (nfs : Nfp_nf.Nf.t array) n =
        for i = 0 to n - 1 do
          ignore (nfs.(i mod Array.length nfs).process (gen i))
        done
      in
      feed (Oracle.traffic ()) [| lone |] 600;
      feed (Oracle.traffic ()) (Array.of_list shards) 600;
      check Alcotest.int "merged digest" (lone.state_digest ())
        (merged_digest lone shards))

(* A counter-only NF migrates the zero shard: its counters stay where
   they were counted and sum under [merge]. On an instance fed 600
   packets, [extract] must leave the live digest alone, hand back a
   shard that changes nothing when absorbed, and a fresh replica that
   absorbs it must merge with the source to the lone instance's digest. *)
let counter_shard kind =
  Alcotest.test_case (Printf.sprintf "%s migrates the zero shard" kind) `Quick (fun () ->
      let inst () = Option.get (Nfp_nf.Registry.instantiate kind ~name:"m") in
      let nf = inst () in
      let gen = Oracle.traffic () in
      for i = 0 to 599 do
        ignore (nf.process (gen i))
      done;
      let lone = nf.state_digest () in
      let shard = (Option.get nf.extract) (fun _ -> true) in
      check Alcotest.int "extract leaves the live digest" lone (nf.state_digest ());
      Nfp_nf.Nf.absorb nf shard;
      check Alcotest.int "absorbing the shard changes nothing" lone (nf.state_digest ());
      let replica = inst () in
      Nfp_nf.Nf.absorb replica shard;
      check Alcotest.int "merged digest" lone (merged_digest nf [ nf; replica ]))

(* Per-flow general state (NAT's bindings) shards only by flow: deal
   the packets by flow hash, so each flow's binding lives in one shard,
   and the union of the shards is the lone instance's table. *)
let hashed_nat_round_trip =
  Alcotest.test_case "hashed NAT shards merge to the lone-instance digest" `Quick
    (fun () ->
      let inst () = fst (Nfp_nf.Nat.create ~alloc:`Hashed ()) in
      let lone = inst () and shards = Array.init 3 (fun _ -> inst ()) in
      let gen = Oracle.traffic () and again = Oracle.traffic () in
      for i = 0 to 599 do
        ignore (lone.process (gen i));
        let p = again i in
        ignore (shards.(Packet.flow_hash p mod 3).process p)
      done;
      check Alcotest.int "merged digest" (lone.state_digest ())
        (merged_digest lone (Array.to_list shards)))

(* A partial migration of Monitor's per-flow counters: the carved flows
   leave the source, a fresh replica absorbs them, and the two merge
   back to the lone instance; absorbing the shard into the source
   restores it exactly. *)
let monitor_partial_shard =
  Alcotest.test_case "Monitor migrates a partial shard" `Quick (fun () ->
      let nf, stats = Nfp_nf.Monitor.create () in
      let gen = Oracle.traffic () in
      for i = 0 to 599 do
        ignore (nf.process (gen i))
      done;
      let lone = nf.state_digest () and flows = stats.flows () in
      let shard = (Option.get nf.extract) (fun f -> Flow.hash f mod 2 = 0) in
      let replica, replica_stats = Nfp_nf.Monitor.create () in
      Nfp_nf.Nf.absorb replica shard;
      check Alcotest.bool "some flows moved" true (replica_stats.flows () > 0);
      check Alcotest.bool "some flows stayed" true (stats.flows () > 0);
      check Alcotest.int "every flow in one place" flows
        (stats.flows () + replica_stats.flows ());
      check Alcotest.int "merged digest" lone (merged_digest nf [ nf; replica ]);
      Nfp_nf.Nf.absorb nf shard;
      check Alcotest.int "absorbed back" lone (nf.state_digest ()))

let merge_tests =
  List.map merge_round_trip
    [ "Monitor"; "Gateway"; "LoadBalancer"; "Firewall"; "Compression"; "IDS"; "IPS"; "Proxy" ]
  @ List.map counter_shard
      [ "Firewall"; "IDS"; "IPS"; "Compression"; "Proxy"; "LoadBalancer"; "Gateway" ]
  @ [ hashed_nat_round_trip; monitor_partial_shard ]

(* ------------------------------------------------------------------ *)
(* Differential: replicated deployments match unreplicated runs        *)
(* ------------------------------------------------------------------ *)

let seq_text = "NF(vpn, VPN)\nNF(cache, Caching)\nNF(nat, NAT)\nChain(vpn, cache, nat)"

let seq_bindings = [ ("vpn", "VPN"); ("cache", "Caching"); ("nat", "NAT") ]

let differential_tests =
  [
    Alcotest.test_case "four-way sharding preserves trace and merged digests" `Quick
      (fun () ->
        let _, report =
          equivalence ~text:Oracle.we_text ~bindings:Oracle.we_bindings ~replicas:4 ()
        in
        let mon = find_rr report "mon" in
        check Alcotest.int "mon deployed 4 replicas" 4 mon.rr_replicas;
        check strategy "mon strategy" Replication.Shared_nothing mon.rr_strategy;
        let busy = List.length (List.filter (fun p -> p > 0) mon.rr_processed) in
        check Alcotest.bool
          (Printf.sprintf "flows actually spread over shards (%d busy)" busy)
          true (busy >= 2));
    Alcotest.test_case "a mixed chain replicates only the eligible NFs" `Quick
      (fun () ->
        let _, report =
          equivalence ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings ~replicas:3 ()
        in
        check Alcotest.int "vpn stays single" 1 (find_rr report "vpn").rr_replicas;
        List.iter
          (fun name ->
            check Alcotest.int
              (Printf.sprintf "%s sharded" name)
              3 (find_rr report name).rr_replicas)
          [ "mon"; "fw"; "lb" ]);
    Alcotest.test_case "sequential-strategy NFs are never replicated" `Quick (fun () ->
        let _, report =
          equivalence ~text:seq_text ~bindings:seq_bindings ~replicas:4 ()
        in
        List.iter
          (fun (rr : Sys.replica_report) ->
            check strategy
              (Printf.sprintf "%s strategy" rr.rr_nf)
              Replication.Sequential rr.rr_strategy;
            check Alcotest.int (Printf.sprintf "%s replicas" rr.rr_nf) 1 rr.rr_replicas)
          report);
    Alcotest.test_case "an order-sensitive consumer pins its upstream cone" `Quick
      (fun () ->
        (* The LB's 5-tuple rewrite forces the cache after it in the
           compiled graph, and the cache's FIFO eviction depends on the
           global arrival order: sharding the LB would change the
           interleaving the cache sees, so the LB must stay single even
           though its own profile clears it. *)
        let text = "NF(lb, LoadBalancer)\nNF(cache, Caching)\nChain(lb, cache)" in
        let bindings = [ ("lb", "LoadBalancer"); ("cache", "Caching") ] in
        let _, report = equivalence ~text ~bindings ~replicas:4 () in
        let lb = find_rr report "lb" in
        check strategy "lb profile still clears it" Replication.Shared_nothing
          lb.rr_strategy;
        check Alcotest.int "lb pinned by the downstream cache" 1 lb.rr_replicas);
    Alcotest.test_case "hashed NAT shards and keeps the trace" `Quick (fun () ->
        let nfs =
          Oracle.instances_with "nat" (fun () ->
              fst (Nfp_nf.Nat.create ~name:"nat" ~alloc:`Hashed ()))
        in
        let text = "NF(nat, NAT)\nNF(mon, Monitor)\nChain(nat, mon)" in
        let bindings = [ ("nat", "NAT"); ("mon", "Monitor") ] in
        let _, report = equivalence ~nfs ~text ~bindings ~replicas:3 () in
        let nat = find_rr report "nat" in
        check strategy "nat strategy" Replication.Shared_nothing nat.rr_strategy;
        check Alcotest.int "nat deployed 3 replicas" 3 nat.rr_replicas);
    Alcotest.test_case "replicas=1 is bit-identical to the default build" `Quick
      (fun () ->
        let run ?replicas () =
          fst
            (Oracle.observe ?replicas ~plan:(Oracle.plan_of Oracle.we_text)
               ~bindings:Oracle.we_bindings ~arrivals:(Nfp_sim.Harness.Uniform 0.5)
               ~packets:1500 ())
        in
        Oracle.check_equivalent "identical observation" (run ()) (run ~replicas:1 ()));
    Alcotest.test_case "interpretive path refuses the replicas knob" `Quick (fun () ->
        let plan = Oracle.plan_of Oracle.we_text in
        let lookup = Nfp_nf.Registry.instances Oracle.we_bindings in
        Alcotest.check_raises "invalid_arg"
          (Invalid_argument "System.interpretive: replicas must be 1")
          (fun () ->
            ignore
              (Nfp_sim.Harness.run
                 ~make:(fun engine ~output ->
                   Sys.interpretive
                     ~config:{ Sys.default_config with replicas = 4 }
                     ~graphs:[ (Nfp_packet.Flow_match.any, plan, lookup) ]
                     engine ~output)
                 ~gen:(Oracle.traffic ())
                 ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:10 ())));
  ]

(* ------------------------------------------------------------------ *)
(* Replication composes with faults and lossless recovery              *)
(* ------------------------------------------------------------------ *)

let fault_tests =
  [
    Alcotest.test_case "crash of one shard replica recovers losslessly" `Quick
      (fun () ->
        (* mid1:mon@2 is the third RSS shard of the monitor — a core
           that only exists because of replication. *)
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon@2" ])
        in
        let rr, _ =
          equivalence ~fault ~text:Oracle.we_text ~bindings:Oracle.we_bindings ~replicas:4 ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes;
        check Alcotest.bool "replay happened" true (rr.health.replayed > 0);
        check Alcotest.int "nothing flushed" 0 rr.health.drops.flush_lost);
    Alcotest.test_case "replica 0 and a shard crash together" `Quick (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan
               [
                 Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon";
                 Nfp_sim.Fault.crash ~at_ns:900_000.0 "mid1:lb@1";
               ])
        in
        let rr, _ =
          equivalence ~fault ~text:Oracle.we_text ~bindings:Oracle.we_bindings ~replicas:2 ()
        in
        check Alcotest.int "both crashes took effect" 2 rr.health.crashes);
    Alcotest.test_case "ledger invariant holds under a storm across replicas" `Quick
      (fun () ->
        let cores =
          List.concat_map
            (fun nf ->
              List.init 4 (fun r ->
                  if r = 0 then Printf.sprintf "mid1:%s" nf
                  else Printf.sprintf "mid1:%s@%d" nf r))
            [ "ids"; "mon"; "lb" ]
        in
        let storm =
          Nfp_sim.Fault.storm ~seed:11L ~cores ~mtbf_ns:3_000_000.0
            ~horizon_ns:3_000_000.0 ()
        in
        let replication = ref (fun () -> []) in
        let _, r =
          Oracle.observe ~fault:(Oracle.lossless_fault storm) ~replicas:4 ~replication
            ~plan:(Oracle.plan_of Oracle.we_text) ~bindings:Oracle.we_bindings
            ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:3000 ()
        in
        check Alcotest.bool "storm produced crashes" true (r.health.crashes > 0);
        check Alcotest.int "no packet wedged in flight" 0 r.in_flight;
        check Alcotest.int "nothing flushed" 0 r.health.drops.flush_lost;
        check Alcotest.int "every packet in exactly one bucket" r.offered
          (r.completed + r.ring_drops + r.nf_drops + r.unmatched);
        let mon = find_rr (!replication ()) "mon" in
        check Alcotest.int "per-replica counts cover all shards" 4
          (List.length mon.rr_processed));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random policy x replica count x crash plan converge       *)
(* ------------------------------------------------------------------ *)

(* A policy case of 2-4 NFs, a replica count, and 0-2 crashes on random
   (NF, replica) cores; naming a replica the strategy never deployed is
   legal and simply never fires. *)
let random_case_arbitrary =
  QCheck.make
    ~print:(fun (case, replicas, crashes) ->
      Printf.sprintf "%s; replicas %d; crashes %s" (Oracle.print_policy case) replicas
        (String.concat ","
           (List.map (fun (i, r, t) -> Printf.sprintf "n%d@%d@%.0f" i r t) crashes)))
    QCheck.Gen.(
      let* case = Oracle.policy_gen ~max_nfs:4 in
      let* replicas = int_range 2 4 in
      let* crashes =
        list_size (int_range 0 2)
          (triple
             (int_range 0 (List.length (fst case) - 1))
             (int_range 0 3) (float_range 300_000.0 2_000_000.0))
      in
      return (case, replicas, crashes))

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:10
         ~name:"sharded + crashed runs converge with the unreplicated fault-free run"
         random_case_arbitrary
         (fun (case, replicas, crashes) ->
           match Oracle.plan_of_case case with
           | None -> QCheck.assume_fail ()
           | Some plan ->
               let crash_plan =
                 Nfp_sim.Fault.plan
                   (List.map
                      (fun (i, r, at_ns) ->
                        let core =
                          if r = 0 then Printf.sprintf "mid1:n%d" i
                          else Printf.sprintf "mid1:n%d@%d" i r
                        in
                        Nfp_sim.Fault.crash ~at_ns core)
                      crashes)
               in
               let run ?fault ?replicas () =
                 fst
                   (Oracle.observe ?fault ?replicas ~plan ~bindings:(Oracle.bindings_of case)
                      ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:1200 ())
               in
               Oracle.converges (run ())
                 (run ~fault:(Oracle.lossless_fault crash_plan) ~replicas ())));
  ]

let () =
  Alcotest.run "nfp_parallel_nf"
    [
      ("strategy", strategy_tests);
      ("merge", merge_tests);
      ("differential", differential_tests);
      ("faults", fault_tests);
      ("property", property_tests);
    ]
