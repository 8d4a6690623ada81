(* Tests for nfp_infra: the per-packet context, the deployed dataplane,
   and result-correctness against the sequential reference (§6.4). *)

open Nfp_packet
open Nfp_core
module Registry = Nfp_nf.Registry

let check = Alcotest.check

let ip s = Option.get (Flow.ip_of_string s)

let flow ?(sip = "10.0.1.1") ?(dip = "10.8.2.10") ?(sport = 12000) ?(dport = 61080)
    ?(proto = 6) () =
  Flow.make ~sip:(ip sip) ~dip:(ip dip) ~sport ~dport ~proto

let pkt ?(payload = "PAYLOAD-0123") ?flow:(f = flow ()) () =
  Packet.create ~flow:f ~payload ()

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

let context_tests =
  [
    Alcotest.test_case "create stores version 1 with metadata" `Quick (fun () ->
        let p = pkt () in
        let ctx = Nfp_infra.Context.create ~pid:42L ~mid:3 ~versions:1 p in
        check Alcotest.int64 "pid" 42L (Nfp_infra.Context.pid ctx);
        match Nfp_infra.Context.get ctx 1 with
        | Some q ->
            check Alcotest.int "version" 1 (Packet.version q);
            check Alcotest.int "mid" 3 (Packet.mid q)
        | None -> Alcotest.fail "version 1 missing");
    Alcotest.test_case "missing versions are None" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:1 (pkt ()) in
        check Alcotest.bool "v2" true (Nfp_infra.Context.get ctx 2 = None);
        check Alcotest.bool "v0" true (Nfp_infra.Context.get ctx 0 = None);
        check Alcotest.bool "v99" true (Nfp_infra.Context.get ctx 99 = None));
    Alcotest.test_case "header-only copy materializes a trimmed version" `Quick (fun () ->
        let ctx =
          Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:3 (pkt ~payload:(String.make 500 'x') ())
        in
        let bytes = Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:false in
        check Alcotest.int "54 bytes" 54 bytes;
        match Nfp_infra.Context.get ctx 2 with
        | Some c ->
            check Alcotest.int "trimmed" 54 (Packet.wire_length c);
            check Alcotest.int "tagged" 2 (Packet.version c)
        | None -> Alcotest.fail "copy missing");
    Alcotest.test_case "full copy keeps the payload" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:3 (pkt ~payload:"full copy" ()) in
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:3 ~full:true);
        match Nfp_infra.Context.get ctx 3 with
        | Some c -> check Alcotest.string "payload" "full copy" (Packet.payload c)
        | None -> Alcotest.fail "copy missing");
    Alcotest.test_case "copies are independent buffers" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:3 (pkt ()) in
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:true);
        let v2 = Option.get (Nfp_infra.Context.get ctx 2) in
        Packet.set_sip v2 77l;
        let v1 = Option.get (Nfp_infra.Context.get ctx 1) in
        check Alcotest.bool "v1 intact" true (Packet.sip v1 <> 77l));
    Alcotest.test_case "versions listing is sorted" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:3 (pkt ()) in
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:3 ~full:false);
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:false);
        check Alcotest.(list int) "sorted" [ 1; 2; 3 ]
          (List.map fst (Nfp_infra.Context.versions ctx)));
    Alcotest.test_case "a plan-sized context holds only its plan's versions" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:2 (pkt ()) in
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:false);
        List.iter
          (fun dst ->
            Alcotest.check_raises "no such slot"
              (Invalid_argument "Context.copy: destination version out of range") (fun () ->
                ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst ~full:false)))
          [ 1; 3; 15 ];
        check Alcotest.(list int) "versions" [ 1; 2 ]
          (List.map fst (Nfp_infra.Context.versions ctx));
        check Alcotest.int64 "pid read from version 1" 1L (Nfp_infra.Context.pid ctx);
        List.iter
          (fun versions ->
            Alcotest.check_raises "out of range"
              (Invalid_argument "Context.create: version count out of range") (fun () ->
                ignore (Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions (pkt ()))))
          [ 0; 16 ]);
    Alcotest.test_case "copy from a missing source fails" `Quick (fun () ->
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:1 (pkt ()) in
        Alcotest.check_raises "missing"
          (Invalid_argument "Context.copy: source version missing") (fun () ->
            ignore (Nfp_infra.Context.copy ctx ~src:9 ~dst:2 ~full:false)));
  ]

(* ------------------------------------------------------------------ *)
(* Deployment helpers                                                  *)
(* ------------------------------------------------------------------ *)

let compile_ok text =
  match Compiler.compile_text text with
  | Ok o -> o
  | Error es -> Alcotest.failf "compile failed: %s" (String.concat "; " es)

let plan_of_output o =
  match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "plan: %s" e

let run_both ~text ~bindings ~chain_order packets_list =
  (* Run each packet through a fresh sequential chain and a fresh
     deployment of the compiled plan; compare outcomes pairwise. *)
  let o = compile_ok text in
  let plan = plan_of_output o in
  let seq_lookup = Registry.instances bindings in
  let par_lookup = Registry.instances bindings in
  List.map
    (fun p ->
      let seq =
        Nfp_infra.Reference.run_sequential ~nfs:(List.map seq_lookup chain_order)
          (Packet.full_copy p)
      in
      let par = Nfp_infra.Reference.run_plan ~plan ~nfs:par_lookup (Packet.full_copy p) in
      (seq, par))
    packets_list

let outcomes_agree (seq, par) =
  match (seq, par) with
  | None, None -> true
  | Some a, Some b -> Packet.equal_wire a b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Reference execution / result correctness                            *)
(* ------------------------------------------------------------------ *)

let reference_tests =
  [
    Alcotest.test_case "run_sequential stops at a drop" `Quick (fun () ->
        let deny = Nfp_nf.Firewall.any_rule ~permit:false in
        let fw, _ = Nfp_nf.Firewall.create ~acl:[ deny ] () in
        let mon, stats = Nfp_nf.Monitor.create () in
        check Alcotest.bool "dropped" true
          (Nfp_infra.Reference.run_sequential ~nfs:[ fw; mon ] (pkt ()) = None);
        check Alcotest.int "monitor never saw it" 0 (stats.total_packets ()));
    Alcotest.test_case "north-south graph matches sequential execution" `Quick (fun () ->
        let packets = List.init 30 (fun i -> pkt ~flow:(flow ~sport:(10000 + i) ()) ()) in
        let results = run_both ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~chain_order:[ "vpn"; "mon"; "fw"; "lb" ] packets
        in
        check Alcotest.bool "all agree" true (List.for_all outcomes_agree results);
        check Alcotest.bool "some delivered" true
          (List.exists (fun (s, _) -> s <> None) results));
    Alcotest.test_case "west-east graph matches despite the copy" `Quick (fun () ->
        let packets = List.init 30 (fun i -> pkt ~flow:(flow ~dport:(61000 + i) ()) ()) in
        let results = run_both ~text:Oracle.we_text ~bindings:Oracle.we_bindings
            ~chain_order:[ "ids"; "mon"; "lb" ] packets
        in
        check Alcotest.bool "all agree" true (List.for_all outcomes_agree results));
    Alcotest.test_case "ACL-dropped packets drop in both executions" `Quick (fun () ->
        (* dports below 1000 hit the synthetic ACL's deny bands for
           some rules; craft one that definitely matches rule 0. *)
        let denied =
          pkt ~flow:(flow ~sip:"10.0.0.5" ~dport:25 ()) ()
        in
        let results = run_both ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~chain_order:[ "vpn"; "mon"; "fw"; "lb" ] [ denied ]
        in
        List.iter
          (fun (s, p) ->
            check Alcotest.bool "agree" true (outcomes_agree (s, p));
            check Alcotest.bool "dropped" true (s = None))
          results);
    Alcotest.test_case "internal NF state matches after parallel execution" `Quick
      (fun () ->
        (* The result-correctness principle covers NF state too: run the
           same traffic through both and compare monitor digests. *)
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let seq_lookup = Registry.instances Oracle.ns_bindings in
        let par_lookup = Registry.instances Oracle.ns_bindings in
        let packets = List.init 20 (fun i -> pkt ~flow:(flow ~sport:(15000 + i) ()) ()) in
        List.iter
          (fun p ->
            ignore
              (Nfp_infra.Reference.run_sequential
                 ~nfs:(List.map seq_lookup [ "vpn"; "mon"; "fw"; "lb" ])
                 (Packet.full_copy p));
            ignore
              (Nfp_infra.Reference.run_plan ~plan ~nfs:par_lookup (Packet.full_copy p)))
          packets;
        check Alcotest.int "monitor state digest"
          ((seq_lookup "mon").Nfp_nf.Nf.state_digest ())
          ((par_lookup "mon").Nfp_nf.Nf.state_digest ()));
    Alcotest.test_case "priority resolves drop conflicts toward the winner" `Quick
      (fun () ->
        (* Firewall denies everything; IPS forwards clean payloads. Under
           Priority(ips > fw) the paper adopts the IPS result. *)
        let o = compile_ok "NF(ips, IPS)\nNF(fw, Firewall)\nPriority(ips > fw)" in
        let plan = plan_of_output o in
        let table = Hashtbl.create 4 in
        Hashtbl.replace table "ips" (fst (Nfp_nf.Ids.create ~name:"ips" ~mode:`Prevent ()));
        Hashtbl.replace table "fw"
          (fst (Nfp_nf.Firewall.create ~name:"fw" ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()));
        let clean = pkt ~payload:"CLEAN-DATA-42" () in
        (match Nfp_infra.Reference.run_plan ~plan ~nfs:(Hashtbl.find table) clean with
        | Some _ -> ()
        | None -> Alcotest.fail "IPS verdict should have won");
        (* A signature hit makes the IPS itself drop: packet dies. *)
        let bad = pkt ~payload:(List.hd (Nfp_nf.Ids.default_signatures 1)) () in
        match Nfp_infra.Reference.run_plan ~plan ~nfs:(Hashtbl.find table) bad with
        | None -> ()
        | Some _ -> Alcotest.fail "IPS drop should have dropped the packet");
    Alcotest.test_case "any-drop policy drops when either branch drops" `Quick (fun () ->
        (* mon || fw via Order: fw drops everything. *)
        let o = compile_ok "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)" in
        let plan = plan_of_output o in
        let table = Hashtbl.create 4 in
        Hashtbl.replace table "mon" (fst (Nfp_nf.Monitor.create ~name:"mon" ()));
        Hashtbl.replace table "fw"
          (fst (Nfp_nf.Firewall.create ~name:"fw" ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()));
        match Nfp_infra.Reference.run_plan ~plan ~nfs:(Hashtbl.find table) (pkt ()) with
        | None -> ()
        | Some _ -> Alcotest.fail "drop should win");
    Alcotest.test_case "nested parallelism executes correctly" `Quick (fun () ->
        (* Hand-built graph: (mon1 -> (mon2 | gw)) | cache, all readers. *)
        let graph =
          Graph.par
            [
              Graph.seq [ Graph.nf "mon1"; Graph.par [ Graph.nf "mon2"; Graph.nf "gw" ] ];
              Graph.nf "cache";
            ]
        in
        let profile_of n =
          Nfp_nf.Registry.profile_of
            (match n with
            | "mon1" | "mon2" -> "Monitor"
            | "gw" -> "Gateway"
            | _ -> "Caching")
        in
        let plan =
          match Tables.plan ~profile_of graph with Ok p -> p | Error e -> Alcotest.fail e
        in
        let table = Hashtbl.create 4 in
        Hashtbl.replace table "mon1" (fst (Nfp_nf.Monitor.create ~name:"mon1" ()));
        Hashtbl.replace table "mon2" (fst (Nfp_nf.Monitor.create ~name:"mon2" ()));
        Hashtbl.replace table "gw" (fst (Nfp_nf.Gateway.create ~name:"gw" ()));
        Hashtbl.replace table "cache" (fst (Nfp_nf.Caching.create ~name:"cache" ()));
        let input = pkt () in
        match Nfp_infra.Reference.run_plan ~plan ~nfs:(Hashtbl.find table) (Packet.full_copy input) with
        | Some out -> check Alcotest.bool "unchanged" true (Packet.equal_wire out input)
        | None -> Alcotest.fail "packet lost");
    Alcotest.test_case "flow affinity survives parallel execution" `Quick (fun () ->
        (* The west-east LB works on a header-only copy; the same flow
           must still hash to the same backend after merging. *)
        let o = compile_ok Oracle.we_text in
        let plan = plan_of_output o in
        let lookup = Registry.instances Oracle.we_bindings in
        let backend_of p =
          match Nfp_infra.Reference.run_plan ~plan ~nfs:lookup (Packet.full_copy p) with
          | Some out -> Packet.dip out
          | None -> Alcotest.fail "dropped"
        in
        let p = pkt () in
        let first = backend_of p in
        for _ = 1 to 5 do
          check Alcotest.int32 "sticky" first (backend_of p)
        done);
    Alcotest.test_case "multiple merger instances give the same results" `Quick (fun () ->
        let o = compile_ok Oracle.we_text in
        let plan = plan_of_output o in
        let lookup1 = Registry.instances Oracle.we_bindings
        and lookup2 = Registry.instances Oracle.we_bindings in
        let p = pkt () in
        let r1 = Nfp_infra.Reference.run_plan ~mergers:1 ~plan ~nfs:lookup1 (Packet.full_copy p) in
        let r2 = Nfp_infra.Reference.run_plan ~mergers:3 ~plan ~nfs:lookup2 (Packet.full_copy p) in
        match (r1, r2) with
        | Some a, Some b -> check Alcotest.bool "equal" true (Packet.equal_wire a b)
        | _ -> Alcotest.fail "delivery mismatch");
  ]

(* ------------------------------------------------------------------ *)
(* System-level measurement sanity                                     *)
(* ------------------------------------------------------------------ *)

let gen_pkt i = pkt ~flow:(flow ~sport:(10000 + (i mod 500)) ()) ()

let system_tests =
  [
    Alcotest.test_case "deployment delivers all packets below capacity" `Quick (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let make engine ~output =
          Nfp_infra.System.make ~plan ~nfs:(Registry.instances Oracle.ns_bindings) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 0.2)
            ~packets:500 ()
        in
        check Alcotest.int "conserved" 500 (r.delivered + r.ring_drops + r.nf_drops);
        check Alcotest.int "no ring drops" 0 r.ring_drops;
        check Alcotest.int "delivered" 500 r.delivered);
    Alcotest.test_case "parallel graph is faster than sequential at load" `Quick
      (fun () ->
        (* Two heavyweight IDS instances: parallel halves the latency. *)
        let graph_seq = Graph.seq [ Graph.nf "a"; Graph.nf "b" ] in
        let graph_par = Graph.par [ Graph.nf "a"; Graph.nf "b" ] in
        let profile_of _ = Nfp_nf.Registry.profile_of "IDS" in
        let nfs () =
          let t = Hashtbl.create 2 in
          Hashtbl.replace t "a" (fst (Nfp_nf.Ids.create ~name:"a" ()));
          Hashtbl.replace t "b" (fst (Nfp_nf.Ids.create ~name:"b" ()));
          Hashtbl.find t
        in
        let latency graph =
          let plan =
            match Tables.plan ~profile_of graph with Ok p -> p | Error e -> Alcotest.fail e
          in
          let make engine ~output = Nfp_infra.System.make ~plan ~nfs:(nfs ()) engine ~output in
          let r =
            Nfp_sim.Harness.run ~make ~gen:gen_pkt
              ~arrivals:(Nfp_sim.Harness.Burst (0.8, 32))
              ~packets:4000 ()
          in
          Nfp_algo.Stats.mean r.latency
        in
        let l_seq = latency graph_seq and l_par = latency graph_par in
        if l_par >= l_seq then
          Alcotest.failf "parallel %.0f not faster than sequential %.0f" l_par l_seq);
    Alcotest.test_case "overload never deadlocks or leaks packets" `Quick (fun () ->
        (* Offer 20 Mpps into a chain that handles ~1.4: backpressure
           cascades, the entry drops, and every packet is accounted. *)
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let make engine ~output =
          Nfp_infra.System.make ~plan ~nfs:(Registry.instances Oracle.ns_bindings) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 20.0)
            ~packets:3000 ()
        in
        check Alcotest.int "conservation" 3000 (r.delivered + r.ring_drops + r.nf_drops);
        check Alcotest.bool "drops happened" true (r.ring_drops > 0);
        check Alcotest.bool "progress made" true (r.delivered > 0));
    Alcotest.test_case "parallel overload with copies is also safe" `Quick (fun () ->
        let graph = Graph.par [ Graph.nf "a"; Graph.nf "b"; Graph.nf "c" ] in
        let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
        let plan =
          match Tables.plan ~copy_mode:`Copy_all ~profile_of graph with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let nfs =
          let t = Hashtbl.create 4 in
          List.iter
            (fun n -> Hashtbl.replace t n (fst (Nfp_nf.Firewall.create ~name:n ())))
            [ "a"; "b"; "c" ];
          Hashtbl.find t
        in
        let make engine ~output = Nfp_infra.System.make ~plan ~nfs engine ~output in
        let r =
          Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 30.0)
            ~packets:3000 ()
        in
        check Alcotest.int "conservation" 3000 (r.delivered + r.ring_drops + r.nf_drops));
    Alcotest.test_case "a crashing NF is contained as a drop" `Quick (fun () ->
        (* mon || bomb in parallel: the bomb's exception must become a
           nil, the merger must still resolve, and the packet drops. *)
        let o = compile_ok "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)" in
        let plan = plan_of_output o in
        let bomb =
          Nfp_nf.Nf.make ~name:"fw" ~kind:"Bomb"
            ~profile:(Nfp_nf.Registry.profile_of "Firewall")
            ~cost_cycles:(fun _ -> 100)
            (fun _ -> failwith "segfault")
        in
        let mon, mon_stats = Nfp_nf.Monitor.create ~name:"mon" () in
        let lookup = function "mon" -> mon | _ -> bomb in
        let engine = Nfp_sim.Engine.create () in
        let delivered = ref 0 in
        let system =
          Nfp_infra.System.make ~plan ~nfs:lookup engine
            ~output:(fun ~pid:_ _ -> incr delivered)
        in
        system.Nfp_sim.Harness.inject ~pid:1L (pkt ());
        Nfp_sim.Engine.run engine;
        check Alcotest.int "nothing delivered" 0 !delivered;
        check Alcotest.int "monitor still processed it" 1 (mon_stats.total_packets ());
        check Alcotest.int "counted as an NF drop" 1 (system.health ()).drops.nf_dropped);
    Alcotest.test_case "a crashing solo NF is contained too" `Quick (fun () ->
        let profile_of _ = Nfp_nf.Registry.profile_of "Monitor" in
        let plan =
          match Tables.plan ~profile_of (Graph.nf "bomb") with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let bomb =
          Nfp_nf.Nf.make ~name:"bomb" ~kind:"Bomb"
            ~profile:(Nfp_nf.Registry.profile_of "Monitor")
            ~cost_cycles:(fun _ -> 100)
            (fun _ -> raise Exit)
        in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.System.make ~plan ~nfs:(fun _ -> bomb) engine
            ~output:(fun ~pid:_ _ -> Alcotest.fail "should not deliver")
        in
        system.Nfp_sim.Harness.inject ~pid:1L (pkt ());
        Nfp_sim.Engine.run engine;
        check Alcotest.int "dropped" 1 (system.health ()).drops.nf_dropped);
    Alcotest.test_case "core stats sampler reports every core" `Quick (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let cell = ref (fun () -> []) in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.System.make ~stats:cell ~plan ~nfs:(Registry.instances Oracle.ns_bindings)
            engine ~output:(fun ~pid:_ _ -> ())
        in
        for i = 0 to 9 do
          Nfp_sim.Engine.schedule engine
            ~delay:(float_of_int i *. 2000.0)
            (fun () -> system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i) (pkt ()))
        done;
        Nfp_sim.Engine.run engine;
        let cores = !cell () in
        (* classifier + 4 NFs + 1 merger. *)
        check Alcotest.int "six cores" 6 (List.length cores);
        let find name = List.find (fun c -> c.Nfp_infra.System.core = name) cores in
        check Alcotest.int "classifier saw all" 10 (find "classifier").processed;
        check Alcotest.int "merger saw two deliveries each" 20 (find "merger#0").processed;
        check Alcotest.bool "vpn busiest" true
          ((find "mid1:vpn").busy_ns > (find "mid1:mon").busy_ns));
    Alcotest.test_case "core_count matches the paper's accounting" `Quick (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let cores config =
          let cell = ref (fun () -> []) in
          ignore
            (Nfp_infra.System.make ~config ~stats:cell ~plan
               ~nfs:(Registry.instances Oracle.ns_bindings) (Nfp_sim.Engine.create ())
               ~output:(fun ~pid:_ _ -> ()));
          List.length (!cell ())
        in
        (* 4 NFs + classifier + 1 merger. *)
        check Alcotest.int "six cores" 6 (cores Nfp_infra.System.default_config);
        (* + extra merger + agent. *)
        check Alcotest.int "eight cores" 8
          (cores { Nfp_infra.System.default_config with mergers = 2 }));
    Alcotest.test_case "unknown NF name rejected at deployment" `Quick (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let engine = Nfp_sim.Engine.create () in
        try
          ignore
            (Nfp_infra.System.make ~plan ~nfs:(fun _ -> raise Not_found) engine
               ~output:(fun ~pid:_ _ -> ()));
          Alcotest.fail "accepted missing NFs"
        with Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Randomized end-to-end correctness: arbitrary policies, arbitrary    *)
(* traffic — the compiled graph must match sequential execution        *)
(* ------------------------------------------------------------------ *)

(* A policy is 2-5 NFs of random kinds and a random acyclic subset of
   forward Order edges over their listing; the kinds' behaviour is
   deterministic per instance and covers reads, header and payload
   writes, header addition and drops. *)
let random_policy_arbitrary =
  QCheck.make ~print:Oracle.print_policy (Oracle.policy_gen ~max_nfs:5)

(* Mixed traffic: benign flows, ACL-deny hitters, signature hitters. *)
let traffic_packet i =
  let sig0 = List.hd (Nfp_nf.Ids.default_signatures 1) in
  match i mod 4 with
  | 0 -> pkt ~flow:(flow ~sport:(10000 + i) ()) ()
  | 1 -> pkt ~flow:(flow ~sip:"10.0.0.9" ~dport:(i mod 50) ()) () (* ACL deny band *)
  | 2 -> pkt ~payload:("xx" ^ sig0) ~flow:(flow ~sport:(20000 + i) ()) ()
  | _ -> pkt ~payload:(String.make (10 + (i mod 400)) 'Q') ~flow:(flow ~dport:(61000 + i) ()) ()

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:60
         ~name:"compiled graphs match sequential execution on any policy"
         random_policy_arbitrary
         (fun case ->
           match Oracle.plan_of_case case with
           | None -> QCheck.assume_fail () (* rejected policies are vacuous *)
           | Some plan ->
               let seq_lookup = Registry.instances (Oracle.bindings_of case) in
               let par_lookup = Registry.instances (Oracle.bindings_of case) in
               let order = plan.Tables.serial_order in
               List.for_all
                 (fun i ->
                   let p = traffic_packet i in
                   let a =
                     Nfp_infra.Reference.run_sequential
                       ~nfs:(List.map seq_lookup order) (Packet.full_copy p)
                   in
                   let b =
                     Nfp_infra.Reference.run_plan ~plan ~nfs:par_lookup
                       (Packet.full_copy p)
                   in
                   match (a, b) with
                   | None, None -> true
                   | Some x, Some y ->
                       Packet.equal_wire x y
                       && Packet.ip_checksum_valid y
                       && Packet.l4_checksum_valid y
                   | _ -> false)
                 (List.init 12 Fun.id)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:40
         ~name:"compiled graphs preserve every NF's internal state"
         random_policy_arbitrary
         (fun case ->
           match Oracle.plan_of_case case with
           | None -> QCheck.assume_fail ()
           | Some plan ->
               let seq_lookup = Registry.instances (Oracle.bindings_of case) in
               let par_lookup = Registry.instances (Oracle.bindings_of case) in
               let order = plan.Tables.serial_order in
               List.iter
                 (fun i ->
                   let p = traffic_packet i in
                   ignore
                     (Nfp_infra.Reference.run_sequential
                        ~nfs:(List.map seq_lookup order) (Packet.full_copy p));
                   ignore
                     (Nfp_infra.Reference.run_plan ~plan ~nfs:par_lookup
                        (Packet.full_copy p)))
                 (List.init 10 Fun.id);
               List.for_all
                 (fun name ->
                   (seq_lookup name).Nfp_nf.Nf.state_digest ()
                   = (par_lookup name).Nfp_nf.Nf.state_digest ())
                 order));
  ]

(* ------------------------------------------------------------------ *)
(* Multi-graph deployments (classification table, Fig. 4)              *)
(* ------------------------------------------------------------------ *)

let multi_tests =
  [
    Alcotest.test_case "flows are steered into their own service graphs" `Quick (fun () ->
        (* Graph 1 (web traffic, dport 61080): monitor only.
           Graph 2 (everything else): firewall that denies everything. *)
        let mon_plan = Oracle.plan_of "NF(mon, Monitor)\nPosition(mon, first)" in
        let fw_plan = Oracle.plan_of "NF(fw, Firewall)\nPosition(fw, first)" in
        let mon, mon_stats = Nfp_nf.Monitor.create ~name:"mon" () in
        let fw, fw_stats =
          Nfp_nf.Firewall.create ~name:"fw" ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()
        in
        let graphs =
          [
            ( Flow_match.make ~dport_range:(61080, 61080) (),
              mon_plan,
              fun _ -> mon );
            (Flow_match.any, fw_plan, fun _ -> fw);
          ]
        in
        let engine = Nfp_sim.Engine.create () in
        let delivered = ref 0 in
        let system =
          Nfp_infra.System.make_multi ~graphs engine ~output:(fun ~pid:_ _ -> incr delivered)
        in
        (* 10 web packets, 5 other packets. *)
        for i = 0 to 9 do
          system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i)
            (pkt ~flow:(flow ~sport:(30000 + i) ~dport:61080 ()) ())
        done;
        for i = 10 to 14 do
          system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i)
            (pkt ~flow:(flow ~dport:9999 ()) ())
        done;
        Nfp_sim.Engine.run engine;
        check Alcotest.int "web packets delivered" 10 !delivered;
        check Alcotest.int "monitor saw only web traffic" 10 (mon_stats.total_packets ());
        check Alcotest.int "firewall dropped the rest" 5 (fw_stats.dropped ());
        check Alcotest.int "counted as nf drops" 5 (system.health ()).drops.nf_dropped);
    Alcotest.test_case "first matching CT entry wins" `Quick (fun () ->
        let p1 = Oracle.plan_of "NF(m1, Monitor)\nPosition(m1, first)" in
        let p2 = Oracle.plan_of "NF(m2, Monitor)\nPosition(m2, first)" in
        let m1, s1 = Nfp_nf.Monitor.create ~name:"m1" () in
        let m2, s2 = Nfp_nf.Monitor.create ~name:"m2" () in
        let graphs =
          [ (Flow_match.any, p1, fun _ -> m1); (Flow_match.any, p2, fun _ -> m2) ]
        in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.System.make_multi ~graphs engine ~output:(fun ~pid:_ _ -> ())
        in
        system.Nfp_sim.Harness.inject ~pid:1L (pkt ());
        Nfp_sim.Engine.run engine;
        check Alcotest.int "first graph" 1 (s1.total_packets ());
        check Alcotest.int "second graph untouched" 0 (s2.total_packets ()));
    Alcotest.test_case "unmatched packets are discarded" `Quick (fun () ->
        let p = Oracle.plan_of "NF(m, Monitor)\nPosition(m, first)" in
        let m, _ = Nfp_nf.Monitor.create ~name:"m" () in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.System.make_multi
            ~graphs:[ (Flow_match.make ~proto:17 (), p, fun _ -> m) ]
            engine
            ~output:(fun ~pid:_ _ -> ())
        in
        system.Nfp_sim.Harness.inject ~pid:1L (pkt ()) (* TCP: no match *);
        Nfp_sim.Engine.run engine;
        check Alcotest.int "discarded" 1 (system.health ()).drops.no_match;
        check Alcotest.int "not an NF drop" 0 (system.health ()).drops.nf_dropped);
    Alcotest.test_case "empty classification table rejected" `Quick (fun () ->
        let engine = Nfp_sim.Engine.create () in
        Alcotest.check_raises "empty" (Invalid_argument "System.make_multi: no service graphs")
          (fun () ->
            ignore
              (Nfp_infra.System.make_multi ~graphs:[] engine ~output:(fun ~pid:_ _ -> ()))));
    Alcotest.test_case "parallel graphs coexist behind shared mergers" `Quick (fun () ->
        (* Two west-east-style graphs with copies, one merger instance. *)
        let text name =
          Printf.sprintf "NF(mon%s, Monitor)\nNF(lb%s, LoadBalancer)\nChain(mon%s, lb%s)"
            name name name name
        in
        let mk name =
          let plan = Oracle.plan_of (text name) in
          let lookup =
            Registry.instances [ ("mon" ^ name, "Monitor"); ("lb" ^ name, "LoadBalancer") ]
          in
          (plan, lookup)
        in
        let p1, l1 = mk "A" and p2, l2 = mk "B" in
        let graphs =
          [
            (Flow_match.make ~dport_range:(61080, 61080) (), p1, l1);
            (Flow_match.any, p2, l2);
          ]
        in
        let engine = Nfp_sim.Engine.create () in
        let delivered = ref 0 in
        let system =
          Nfp_infra.System.make_multi ~graphs engine ~output:(fun ~pid:_ _ -> incr delivered)
        in
        for i = 0 to 19 do
          let dport = if i mod 2 = 0 then 61080 else 7777 in
          system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i)
            (pkt ~flow:(flow ~sport:(40000 + i) ~dport ()) ())
        done;
        Nfp_sim.Engine.run engine;
        check Alcotest.int "all merged and delivered" 20 !delivered);
  ]

(* ------------------------------------------------------------------ *)
(* Cross-server clusters (paper §7)                                    *)
(* ------------------------------------------------------------------ *)

let cluster_tests =
  [
    Alcotest.test_case "partitioned chain produces the same packets" `Quick (fun () ->
        let names = List.init 6 (fun i -> Printf.sprintf "m%d" i) in
        let graph = Graph.seq (List.map Graph.nf names) in
        let profile_of _ = Nfp_nf.Registry.profile_of "Monitor" in
        let nfs () =
          let t = Hashtbl.create 8 in
          List.iter
            (fun n -> Hashtbl.replace t n (fst (Nfp_nf.Monitor.create ~name:n ())))
            names;
          Hashtbl.find t
        in
        let assignments =
          match Partition.partition ~cores_per_server:4 graph with
          | Ok a -> a
          | Error e -> Alcotest.fail e
        in
        check Alcotest.bool "actually split" true (List.length assignments >= 2);
        let engine = Nfp_sim.Engine.create () in
        let out = ref None in
        let system =
          match
            Nfp_infra.Cluster.of_partition ~assignments ~profile_of ~nfs:(nfs ()) engine
              ~output:(fun ~pid:_ p -> out := Some p)
          with
          | Ok s -> s
          | Error e -> Alcotest.fail e
        in
        let input = pkt () in
        system.Nfp_sim.Harness.inject ~pid:1L (Packet.full_copy input);
        Nfp_sim.Engine.run engine;
        match !out with
        | Some p -> check Alcotest.bool "read-only chain is identity" true (Packet.equal_wire p input)
        | None -> Alcotest.fail "packet lost in the cluster");
    Alcotest.test_case "inter-server links add latency" `Quick (fun () ->
        let plan_for name =
          let graph = Graph.nf name in
          let profile_of _ = Nfp_nf.Registry.profile_of "Monitor" in
          match Tables.plan ~profile_of graph with Ok p -> p | Error e -> Alcotest.fail e
        in
        let nfs name _ = fst (Nfp_nf.Monitor.create ~name ()) in
        let run segments =
          let engine = Nfp_sim.Engine.create () in
          let finish = ref 0.0 in
          let system =
            Nfp_infra.Cluster.make ~link_latency_ns:5000.0 ~segments engine
              ~output:(fun ~pid:_ _ -> finish := Nfp_sim.Engine.now engine)
          in
          system.Nfp_sim.Harness.inject ~pid:1L (pkt ());
          Nfp_sim.Engine.run engine;
          !finish
        in
        let one = run [ (plan_for "a", nfs "a") ] in
        let two = run [ (plan_for "a", nfs "a"); (plan_for "b", nfs "b") ] in
        (* A second server costs at least the link plus another NIC trip. *)
        check Alcotest.bool "link paid" true (two -. one >= 5000.0));
    Alcotest.test_case "drops aggregate across servers" `Quick (fun () ->
        let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
        let deny_plan =
          match Tables.plan ~profile_of (Graph.nf "fw") with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let pass_plan =
          let profile_of _ = Nfp_nf.Registry.profile_of "Monitor" in
          match Tables.plan ~profile_of (Graph.nf "m") with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.Cluster.make
            ~segments:
              [
                (pass_plan, fun _ -> fst (Nfp_nf.Monitor.create ~name:"m" ()));
                ( deny_plan,
                  fun _ ->
                    fst
                      (Nfp_nf.Firewall.create ~name:"fw"
                         ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()) );
              ]
            engine
            ~output:(fun ~pid:_ _ -> Alcotest.fail "nothing should get through")
        in
        system.Nfp_sim.Harness.inject ~pid:1L (pkt ());
        Nfp_sim.Engine.run engine;
        check Alcotest.int "second server's drop counted" 1
          (system.health ()).drops.nf_dropped);
    Alcotest.test_case "cluster rejects a negative, NaN or infinite link latency" `Quick
      (fun () ->
        (* -1 used to fail mid-run; NaN finished with a NaN duration;
           infinity left most packets undelivered at run end. *)
        let plan =
          let profile_of _ = Nfp_nf.Registry.profile_of "Monitor" in
          match Tables.plan ~profile_of (Graph.nf "m") with Ok p -> p | Error e -> Alcotest.fail e
        in
        let segment = (plan, fun _ -> fst (Nfp_nf.Monitor.create ~name:"m" ())) in
        List.iter
          (fun (link_latency_ns, msg) ->
            Alcotest.check_raises (Printf.sprintf "%g" link_latency_ns)
              (Invalid_argument ("Cluster.make: link_latency_ns must be " ^ msg)) (fun () ->
                ignore
                  (Nfp_infra.Cluster.make ~link_latency_ns ~segments:[ segment; segment ]
                     (Nfp_sim.Engine.create ()) ~output:(fun ~pid:_ _ -> ()))))
          [ (-1.0, ">= 0"); (Float.nan, ">= 0"); (Float.infinity, "finite") ]);
    Alcotest.test_case "empty cluster rejected" `Quick (fun () ->
        let engine = Nfp_sim.Engine.create () in
        Alcotest.check_raises "empty" (Invalid_argument "Cluster.make: no segments")
          (fun () ->
            ignore (Nfp_infra.Cluster.make ~segments:[] engine ~output:(fun ~pid:_ _ -> ()))));
  ]

(* ------------------------------------------------------------------ *)
(* The counter ledger: one per deployment, read through snapshots      *)
(* ------------------------------------------------------------------ *)

(* Every way the ledger tests build a system, each on its own NF
   instances. The compiled deployment runs a lossy raw fabric, so its
   link taxonomy moves too. *)
let ledger_systems =
  let plan = plan_of_output (compile_ok Oracle.ns_text) in
  [
    ( "compiled",
      fun engine ~output ->
        Nfp_infra.System.make ~plan ~nfs:(Registry.instances Oracle.ns_bindings)
          ~links:
            {
              Nfp_infra.System.default_links_config with
              link_plan = Nfp_sim.Fault.link_plan [ Nfp_sim.Fault.loss ~probability:0.05 "*" ];
              reliable = false;
            }
          engine ~output );
    ( "interpretive",
      fun engine ~output ->
        Nfp_infra.System.interpretive
          ~graphs:[ (Flow_match.any, plan, Registry.instances Oracle.ns_bindings) ]
          engine ~output );
    ( "OpenNetVM",
      fun engine ~output ->
        Nfp_baseline.Opennetvm.make
          ~nfs:(List.map (Registry.instances Oracle.ns_bindings) [ "vpn"; "mon"; "fw"; "lb" ])
          engine ~output );
  ]

let ledger_tests =
  [
    Alcotest.test_case "a mid-run health snapshot keeps its values" `Quick (fun () ->
        List.iter
          (fun (name, make) ->
            (* Overloaded at 20 Mpps, so the ring drops keep growing
               after the first one, when the snapshot is taken. *)
            let snap = ref None in
            let stop (s : Nfp_sim.Harness.system) =
              let h = s.health () in
              if !snap = None && h.drops.ingress_rejected > 0 then
                snap := Some (h, Marshal.to_string h []);
              false
            in
            let r =
              Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 20.0)
                ~packets:3000 ~stop ()
            in
            let h, frozen = Option.get !snap in
            let (taken : Nfp_sim.Harness.health) = Marshal.from_string frozen 0 in
            check Alcotest.bool (name ^ ": snapshot unchanged") true (h = taken);
            check Alcotest.bool (name ^ ": the run went on counting") true
              (r.health.drops.ingress_rejected > taken.drops.ingress_rejected);
            if name = "compiled" then
              check Alcotest.bool "the fabric went on losing" true
                (r.health.links.link_drops > taken.links.link_drops))
          ledger_systems);
    Alcotest.test_case "two deployments in one process share no counter" `Quick (fun () ->
        List.iter
          (fun (name, make) ->
            let engine = Nfp_sim.Engine.create () in
            let output ~pid:_ _ = () in
            let (a : Nfp_sim.Harness.system) = make engine ~output
            and (b : Nfp_sim.Harness.system) = make engine ~output in
            let before = b.health () in
            for i = 0 to 999 do
              a.inject ~pid:(Int64.of_int i) (gen_pkt i)
            done;
            Nfp_sim.Engine.run engine;
            check Alcotest.bool (name ^ ": the busy one counted") true
              ((a.health ()).drops.ingress_rejected > 0);
            check Alcotest.bool (name ^ ": the idle one did not") true
              (b.health () = before))
          ledger_systems);
    Alcotest.test_case "cluster segments share no counter" `Quick (fun () ->
        (* Only the second segment drops: a ledger both segments shared
           would report every drop twice in the sum. *)
        let plan_for kind =
          let profile_of _ = Nfp_nf.Registry.profile_of kind in
          match Tables.plan ~profile_of (Graph.nf "x") with Ok p -> p | Error e -> Alcotest.fail e
        in
        let engine = Nfp_sim.Engine.create () in
        let system =
          Nfp_infra.Cluster.make
            ~segments:
              [
                (plan_for "Monitor", fun _ -> fst (Nfp_nf.Monitor.create ~name:"x" ()));
                ( plan_for "Firewall",
                  fun _ ->
                    fst
                      (Nfp_nf.Firewall.create ~name:"x"
                         ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()) );
              ]
            engine
            ~output:(fun ~pid:_ _ -> Alcotest.fail "nothing should get through")
        in
        for i = 0 to 9 do
          system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i) (gen_pkt i)
        done;
        Nfp_sim.Engine.run engine;
        let h = system.health () in
        check Alcotest.int "each drop counted once" 10 h.drops.nf_dropped;
        check Alcotest.int "both segments' cores listed" 6 (List.length h.cores));
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection, failure detection, and recovery policies           *)
(* ------------------------------------------------------------------ *)

(* A parallelizable pair: Monitor | Firewall behind one merger — the
   shape where a dead branch can wedge merges. *)
(* Run [text] under [fault] at a steady 0.5 Mpps, recording delivered
   pids so tests can see whether forwarding resumed after a failure. *)
let fault_run ?(text = Oracle.ns_text) ?(bindings = Oracle.ns_bindings) ?config ~fault
    ?(rate = 0.5) ?(packets = 2000) () =
  let o = compile_ok text in
  let plan = plan_of_output o in
  let out_pids = ref [] in
  let make engine ~output =
    Nfp_infra.System.make ?config ~fault ~plan ~nfs:(Registry.instances bindings) engine
      ~output:(fun ~pid pkt ->
        out_pids := pid :: !out_pids;
        output ~pid pkt)
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform rate)
      ~packets ()
  in
  (r, List.rev !out_pids)

let accounting_closes (r : Nfp_sim.Harness.result) =
  check Alcotest.int "accounting closes" r.offered
    (r.completed + r.ring_drops + r.nf_drops + r.unmatched + r.in_flight)

let fault_tests =
  [
    Alcotest.test_case "crash is detected and Restart restores forwarding" `Quick
      (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ];
          }
        in
        (* A ring deep enough to absorb the outage backlog: lossless
           recovery protects admitted packets; a full entry ring still
           refuses new ones, as any finite NIC queue would. *)
        let config =
          { Nfp_infra.System.default_config with ring_capacity = 1024 }
        in
        let r, pids = fault_run ~config ~fault () in
        let h = r.health in
        check Alcotest.int "one injected crash took effect" 1 h.crashes;
        check Alcotest.int "watchdog detected it" 1 h.detections;
        check Alcotest.int "and restarted the core" 1 h.restarts;
        (* The default config checkpoints every 100 us, so Restart is
           lossless: the core restores its last snapshot, replays its
           input log and re-admits the reclaimed work — nothing is
           flushed and every offered packet completes. *)
        check Alcotest.int "lossless restart flushed nothing" 0 h.drops.flush_lost;
        check Alcotest.bool "checkpoints were taken" true (h.checkpoints > 0);
        check Alcotest.bool "the restore replayed logged packets" true (h.replayed > 0);
        (* The crash hits at packet ~250 of 2000; deliveries of the last
           quarter prove the chain forwards again after the restart. *)
        check Alcotest.bool "late packets delivered after restart" true
          (List.exists (fun pid -> pid > 1500L) pids);
        check Alcotest.int "no packet lost in flight" 0 r.in_flight;
        check Alcotest.int "every offered packet completed" r.offered r.completed;
        accounting_closes r);
    Alcotest.test_case "checkpointing disabled falls back to lossy Restart" `Quick
      (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ];
            checkpoint_interval_ns = 0.0;
          }
        in
        let r, pids = fault_run ~fault () in
        let h = r.health in
        check Alcotest.int "no checkpoints" 0 h.checkpoints;
        check Alcotest.int "no replay" 0 h.replayed;
        check Alcotest.bool "outage lost packets" true (h.drops.flush_lost > 0);
        check Alcotest.bool "late packets delivered after restart" true
          (List.exists (fun pid -> pid > 1500L) pids);
        check Alcotest.bool "most traffic survived the outage" true
          (float_of_int r.completed > 0.7 *. float_of_int r.offered);
        accounting_closes r);
    Alcotest.test_case "detection happens within the deadline" `Quick (fun () ->
        (* The outage window is crash -> detection -> restart; with a
           120 us deadline, 30 us heartbeat and 400 us restart the core
           must be back within ~600 us, so at 0.5 Mpps no more than
           ~350 packets can be lost to a single crash. A missed
           deadline would at least double that. *)
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ];
          }
        in
        let r, _ = fault_run ~fault () in
        let lost = r.offered - r.completed in
        check Alcotest.bool
          (Printf.sprintf "outage bounded by deadline (lost %d)" lost)
          true
          (lost <= 350);
        accounting_closes r);
    Alcotest.test_case "hang wedges the core, then traffic resumes" `Quick (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan =
              Nfp_sim.Fault.plan
                [ Nfp_sim.Fault.hang ~at_ns:500_000.0 ~duration_ns:50_000.0 "mid1:mon" ];
          }
        in
        let r, pids = fault_run ~fault () in
        (* A 50 us hang is shorter than the 120 us deadline: the
           watchdog must NOT fire, and nothing may be lost. *)
        check Alcotest.int "no detection for a sub-deadline hang" 0 r.health.detections;
        check Alcotest.int "no crash counted" 0 r.health.crashes;
        check Alcotest.bool "late packets delivered" true
          (List.exists (fun pid -> pid > 1500L) pids);
        accounting_closes r);
    Alcotest.test_case "Bypass removes an optional NF and keeps delivering" `Quick
      (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ];
            recovery_of = (fun nf -> if nf = "mon" then Bypass else Restart);
          }
        in
        let r, pids = fault_run ~text:Oracle.par_text ~bindings:Oracle.par_bindings ~fault () in
        let h = r.health in
        check Alcotest.int "bypassed once" 1 h.bypasses;
        check Alcotest.int "never restarted" 0 h.restarts;
        check Alcotest.bool "packets skipped the dead NF" true (h.bypassed_packets > 0);
        check Alcotest.bool "monitor is marked bypassed" true
          (List.exists
             (fun (c : Nfp_sim.Harness.core_health) ->
               c.core = "mid1:mon" && c.state = "bypassed")
             h.cores);
        check Alcotest.bool "late packets delivered" true
          (List.exists (fun pid -> pid > 1500L) pids);
        (* Only the in-flight batch of the crash window is lost; the
           bypass reroutes everything else, so availability stays near
           lossless. *)
        check Alcotest.bool "near-lossless availability" true
          (float_of_int r.completed > 0.95 *. float_of_int r.offered);
        accounting_closes r);
    Alcotest.test_case "merger timeout rescues merges wedged by a dead branch" `Quick
      (fun () ->
        (* Restart drops the dead core's backlog: those packets never
           deliver their mon branch, and without the timeout their
           merges would hold the fw branch hostage forever. *)
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ];
          }
        in
        let r, _ = fault_run ~text:Oracle.par_text ~bindings:Oracle.par_bindings ~fault () in
        let h = r.health in
        check Alcotest.bool "timeouts fired" true (h.drops.merge_timed_out > 0);
        check Alcotest.bool "rescued merges bound the tail" true
          (Nfp_algo.Stats.percentile r.latency 100.0 < 2_000_000.0);
        check Alcotest.bool "most traffic survived" true
          (float_of_int r.completed > 0.7 *. float_of_int r.offered);
        accounting_closes r);
    Alcotest.test_case "Degrade falls back to the sequential order and recovers" `Quick
      (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ];
            recovery_of = (fun nf -> if nf = "mon" then Degrade else Restart);
          }
        in
        let r, pids = fault_run ~text:Oracle.par_text ~bindings:Oracle.par_bindings ~fault () in
        let h = r.health in
        check Alcotest.int "degraded once" 1 h.degrades;
        check Alcotest.int "recovered to parallel" 1 h.recoveries;
        check Alcotest.bool "graph 1 has twin cores" true
          (List.exists
             (fun (c : Nfp_sim.Harness.core_health) ->
               String.starts_with ~prefix:"seq:mid1:" c.core)
             h.cores);
        (* The sequential twin chain carried the degraded window. *)
        check Alcotest.bool "twin cores processed packets" true
          (List.exists
             (fun (c : Nfp_sim.Harness.core_health) ->
               String.length c.core >= 4
               && String.sub c.core 0 4 = "seq:"
               && c.processed > 0)
             h.cores);
        check Alcotest.bool "late packets delivered" true
          (List.exists (fun pid -> pid > 1500L) pids);
        check Alcotest.bool "most traffic survived" true
          (float_of_int r.completed > 0.7 *. float_of_int r.offered);
        accounting_closes r);
    Alcotest.test_case "stats sampler and health list the same cores" `Quick (fun () ->
        (* Replicas, a merger agent and a Degrade twin chain: every core
           kind the builder registers. Health lists every core once, the
           sampler every core but the twins, with the same counts. *)
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ];
            recovery_of = (fun nf -> if nf = "mon" then Degrade else Restart);
          }
        in
        let config = { Nfp_infra.System.default_config with replicas = 2; mergers = 2 } in
        let plan = plan_of_output (compile_ok Oracle.par_text) in
        let sampler = ref (fun () -> []) in
        let make engine ~output =
          Nfp_infra.System.make ~config ~fault ~stats:sampler ~plan
            ~nfs:(Registry.instances Oracle.par_bindings) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 0.5)
            ~packets:2000 ()
        in
        let sampled = !sampler () and cores = r.health.cores in
        (* Registration order fixes the jitter-PRNG splits, the
           watchdog's probe indices and the core names: NF replicas in
           plan order, the mergers, the agent, the classifier, then the
           twin chain, built tail first. The sampler lists the
           classifier, the NF cores by name, the mergers and the agent. *)
        check
          Alcotest.(list string)
          "health.cores in registration order"
          [
            "mid1:mon"; "mid1:mon@1"; "mid1:fw"; "mid1:fw@1"; "merger#0"; "merger#1";
            "merger-agent"; "classifier"; "seq:mid1:fw"; "seq:mid1:mon";
          ]
          (List.map (fun (c : Nfp_sim.Harness.core_health) -> c.core) cores);
        check
          Alcotest.(list string)
          "sampler order"
          [
            "classifier"; "mid1:fw"; "mid1:fw@1"; "mid1:mon"; "mid1:mon@1"; "merger#0";
            "merger#1"; "merger-agent";
          ]
          (List.map (fun (s : Nfp_infra.System.core_stats) -> s.core) sampled);
        List.iter
          (fun (s : Nfp_infra.System.core_stats) ->
            let c =
              List.find (fun (c : Nfp_sim.Harness.core_health) -> c.core = s.core) cores
            in
            check Alcotest.int (s.core ^ " processed") s.processed c.processed;
            check Alcotest.int (s.core ^ " queue") s.queue c.queue)
          sampled);
    Alcotest.test_case "counters match a two-crash storm" `Quick (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan =
              Nfp_sim.Fault.plan
                [
                  Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn";
                  Nfp_sim.Fault.crash ~at_ns:1_500_000.0 "mid1:fw";
                ];
          }
        in
        let r, _ = fault_run ~fault () in
        let h = r.health in
        check Alcotest.int "crashes" 2 h.crashes;
        check Alcotest.int "detections" 2 h.detections;
        check Alcotest.int "restarts" 2 h.restarts;
        check Alcotest.int "no bypasses" 0 h.bypasses;
        check Alcotest.int "no degrades" 0 h.degrades;
        (* No NF can select Degrade, so no sequential twin is built. *)
        check Alcotest.bool "no twin cores" false
          (List.exists
             (fun (c : Nfp_sim.Harness.core_health) ->
               String.starts_with ~prefix:"seq:" c.core)
             h.cores);
        accounting_closes r);
    Alcotest.test_case "transient drop faults are counted exactly" `Quick (fun () ->
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.drop ~probability:0.2 "mid1:lb" ];
          }
        in
        let r, _ = fault_run ~fault () in
        let h = r.health in
        check Alcotest.bool "drops happened" true (h.drops.fault_dropped > 0);
        (* Every missing packet is a counted fault drop (the chain tail
           NF loses them after processing, nothing else drops). *)
        check Alcotest.int "losses are exactly the injected drops" h.drops.fault_dropped
          (r.offered - r.completed);
        accounting_closes r);
    Alcotest.test_case "health is observable without any faults armed" `Quick (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let make engine ~output =
          Nfp_infra.System.make ~plan ~nfs:(Registry.instances Oracle.ns_bindings) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:gen_pkt ~arrivals:(Nfp_sim.Harness.Uniform 0.2)
            ~packets:300 ()
        in
        let h = r.health in
        check Alcotest.bool "cores listed" true (List.length h.cores >= 5);
        check Alcotest.bool "all up" true
          (List.for_all
             (fun (c : Nfp_sim.Harness.core_health) -> c.state = "up")
             h.cores);
        check Alcotest.int "no events" 0
          (h.detections + h.crashes + h.restarts + h.bypasses + h.drops.flush_lost));
    Alcotest.test_case "bad fault and deployment configs are rejected" `Quick
      (fun () ->
        let o = compile_ok Oracle.ns_text in
        let plan = plan_of_output o in
        let rejects ?config msg fault =
          Alcotest.check_raises msg (Invalid_argument ("System.make: " ^ msg))
            (fun () ->
              let engine = Nfp_sim.Engine.create () in
              ignore
                (Nfp_infra.System.make ?config ~fault ~plan
                   ~nfs:(Registry.instances Oracle.ns_bindings)
                   engine ~output:(fun ~pid:_ _ -> ())))
        in
        let fc = Nfp_infra.System.default_fault_config in
        rejects "fault watchdog interval and deadline must be positive"
          { fc with watchdog_interval_ns = 0.0 };
        rejects "fault watchdog interval and deadline must be positive"
          { fc with watchdog_deadline_ns = 0.0 };
        rejects "fault restart_ns must be >= 0" { fc with restart_ns = -1.0 };
        rejects "fault merge_timeout_ns must be >= 0" { fc with merge_timeout_ns = -1.0 };
        rejects "fault merge_timeout_ns must be >= 0" { fc with merge_timeout_ns = Float.nan };
        (* An infinite restart left the livelock guard blind to a
           watchdog re-arming forever; an infinite merge timeout ended
           the run at +inf. *)
        let inf = Float.infinity in
        rejects "fault watchdog interval and deadline must be finite"
          { fc with watchdog_interval_ns = inf };
        rejects "fault watchdog interval and deadline must be finite"
          { fc with watchdog_deadline_ns = inf };
        rejects "fault restart_ns must be finite" { fc with restart_ns = inf };
        rejects "fault merge_timeout_ns must be finite" { fc with merge_timeout_ns = inf };
        rejects "fault checkpoint_interval_ns must be >= 0"
          { fc with checkpoint_interval_ns = -1.0 };
        rejects "fault checkpoint_interval_ns must be >= 0"
          { fc with checkpoint_interval_ns = Float.nan };
        rejects "fault breaker_threshold must be >= 0" { fc with breaker_threshold = -1 };
        rejects "fault log_capacity must be >= 1" { fc with log_capacity = 0 };
        rejects "fault dedup_capacity must be >= 2" { fc with dedup_capacity = 1 };
        let dc = Nfp_infra.System.default_config in
        rejects ~config:{ dc with jitter = 1.5 } "jitter must satisfy 0 <= jitter < 1" fc;
        rejects ~config:{ dc with mergers = 0 } "mergers must be >= 1" fc;
        rejects ~config:{ dc with cost = { dc.cost with batch = 0 } } "batch must be >= 1" fc;
        rejects ~config:{ dc with ring_capacity = 0 } "ring_capacity must be >= 1" fc;
        rejects ~config:{ dc with replicas = 0 } "replicas must be >= 1" fc);
    Alcotest.test_case "bad cost models are rejected by both builders" `Quick (fun () ->
        (* Each of these used to build, then fail mid-run (or at build
           time, from the engine) naming neither the field nor the
           builder; a NaN copy_per_byte ran to completion. *)
        let plan = plan_of_output (compile_ok Oracle.ns_text) in
        let dc = Nfp_infra.System.default_config in
        let builders =
          [
            ( "make",
              fun config ->
                Nfp_infra.System.make ~config ~plan ~nfs:(Registry.instances Oracle.ns_bindings)
                  (Nfp_sim.Engine.create ()) ~output:(fun ~pid:_ _ -> ()) );
            ( "interpretive",
              fun config ->
                Nfp_infra.System.interpretive ~config
                  ~graphs:[ (Flow_match.any, plan, Registry.instances Oracle.ns_bindings) ]
                  (Nfp_sim.Engine.create ()) ~output:(fun ~pid:_ _ -> ()) );
          ]
        in
        let c = dc.cost in
        List.iter
          (fun (who, build) ->
            List.iter
              (fun (msg, cost) ->
                Alcotest.check_raises (who ^ ": " ^ msg)
                  (Invalid_argument (Printf.sprintf "System.%s: cost %s" who msg))
                  (fun () -> ignore (build { dc with cost })))
              [
                ("classifier must be >= 0", { c with classifier = -5000 });
                ("nf_runtime must be >= 0", { c with nf_runtime = -5000 });
                ("merge_op must be >= 0", { c with merge_op = -1 });
                ("ghz must be positive and finite", { c with ghz = 0.0 });
                ("ghz must be positive and finite", { c with ghz = Float.nan });
                ("ghz must be positive and finite", { c with ghz = Float.infinity });
                ("wire_ns must be >= 0", { c with wire_ns = -10.0 });
                ("wire_ns must be >= 0", { c with wire_ns = Float.nan });
                ("restart_ns must be >= 0", { c with restart_ns = Float.nan });
                ("copy_per_byte must be >= 0", { c with copy_per_byte = Float.nan });
                ("wire_ns must be finite", { c with wire_ns = Float.infinity });
                ("restart_ns must be finite", { c with restart_ns = Float.infinity });
                ("copy_per_byte must be finite", { c with copy_per_byte = Float.infinity });
              ];
            (* The shipped presets all pass. *)
            List.iter
              (fun cost -> ignore (build { dc with cost }))
              Nfp_sim.Cost.[ default; classified; vm ])
          builders);
  ]

(* ------------------------------------------------------------------ *)
(* Dedup memories                                                      *)
(* ------------------------------------------------------------------ *)

module Dedup = Nfp_infra.Dedup

(* The generational semantics the int-limb tables must keep, as first
   written over two polymorphic Hashtbls: membership consults both
   generations, and an insert of a new key into a full newer generation
   first retires the older one. *)
module Dedup_model = struct
  type t = {
    half : int;
    mutable cur : (int * int, unit) Hashtbl.t;
    mutable prev : (int * int, unit) Hashtbl.t;
  }

  let create capacity =
    { half = max 1 (capacity / 2); cur = Hashtbl.create 64; prev = Hashtbl.create 64 }

  let mem t k = Hashtbl.mem t.cur k || Hashtbl.mem t.prev k

  let add t k =
    if not (mem t k) then begin
      if Hashtbl.length t.cur >= t.half then begin
        let retired = t.prev in
        Hashtbl.reset retired;
        t.prev <- t.cur;
        t.cur <- retired
      end;
      Hashtbl.replace t.cur k ()
    end

  let length t = Hashtbl.length t.cur + Hashtbl.length t.prev
end

type dedup_op = Add of int * int | Mem of int * int

(* Capacities from 2 to 400 against up to 1500 operations. Half the
   cases draw keys from a few hundred small PIDs and versions 1-3: small
   memories rotate many times over, large ones grow their tables past
   the initial 64 slots before the first rotation. The other half walk
   PIDs the way a run issues them, where the PID-ordered slot layout is
   weakest: mostly the next PID, sometimes a look back a few or a few
   thousand PIDs, PIDs [base + i * 2^k] strided by a power of two up to
   2^20, and up to three second limbs per PID, versions or
   [Dedup.merge_limb] pairs. A long run rotates the memory many
   times. *)
let dedup_case =
  let open QCheck.Gen in
  let small =
    let* span = int_range 4 300 in
    let key = pair (int_range 0 span) (int_range 1 3) in
    list_size (int_range 0 1500)
      (frequency
         [ (3, map (fun (a, b) -> Add (a, b)) key); (1, map (fun (a, b) -> Mem (a, b)) key) ])
  in
  let walk =
    let* base = int_bound 1_000_000 and* shift = int_range 0 20 in
    let limb =
      oneof
        [
          int_range 1 3;
          map2 (fun mid merge_id -> Dedup.merge_limb ~mid ~merge_id) (int_range 0 3) (int_range 0 3);
        ]
    in
    let* limbs = list_size (int_range 1 3) limb in
    let step =
      frequency
        [
          (12, return 1);
          (2, return 0);
          (1, map (fun k -> -k) (int_bound 50));
          (1, map (fun k -> -k) (int_bound 3000));
        ]
    in
    let add = frequency [ (3, return true); (1, return false) ] in
    let* steps = list_size (int_range 0 1500) (triple step (oneofl limbs) add) in
    let _, ops =
      List.fold_left
        (fun (i, ops) (d, b, add) ->
          let i = max 0 (i + d) in
          let a = base + (i lsl shift) in
          (i, (if add then Add (a, b) else Mem (a, b)) :: ops))
        (0, []) steps
    in
    return (List.rev ops)
  in
  QCheck.make
    ~print:(fun (capacity, ops) ->
      Printf.sprintf "capacity %d: %s" capacity
        (String.concat " "
           (List.map
              (function
                | Add (a, b) -> Printf.sprintf "+%d/%d" a b
                | Mem (a, b) -> Printf.sprintf "?%d/%d" a b)
              ops)))
    (pair (int_range 2 400) (oneof [ small; walk ]))

let dedup_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200
         ~name:"int-limb dedup agrees with the generational Hashtbl model" dedup_case
         (fun (capacity, ops) ->
           let d = Dedup.create capacity and m = Dedup_model.create capacity in
           List.for_all
             (fun op ->
               match op with
               | Add (a, b) ->
                   Dedup.add d ~a ~b;
                   Dedup_model.add m (a, b);
                   Dedup.length d = Dedup_model.length m
               | Mem (a, b) -> Dedup.mem d ~a ~b = Dedup_model.mem m (a, b))
             ops));
    Alcotest.test_case "keys differing only in version, MID or merge point stay distinct"
      `Quick (fun () ->
        let pid = 0xAB_CDEF_0123 in
        let delivered = Dedup.create 1024 in
        Dedup.add delivered ~a:pid ~b:1;
        check Alcotest.bool "same version" true (Dedup.mem delivered ~a:pid ~b:1);
        check Alcotest.bool "other version" false (Dedup.mem delivered ~a:pid ~b:2);
        check Alcotest.bool "other pid" false (Dedup.mem delivered ~a:(pid + 1) ~b:1);
        let merged = Dedup.create 1024 in
        let key mid merge_id = Dedup.merge_limb ~mid ~merge_id in
        Dedup.add merged ~a:pid ~b:(key 3 7);
        check Alcotest.bool "same merge" true (Dedup.mem merged ~a:pid ~b:(key 3 7));
        List.iter
          (fun (what, mid, merge_id) ->
            check Alcotest.bool what false (Dedup.mem merged ~a:pid ~b:(key mid merge_id)))
          [
            ("other mid", 4, 7);
            ("other merge point", 3, 8);
            ("swapped mid and merge point", 7, 3);
            ("largest mid", (1 lsl 20) - 1, 7);
            ("merge point past 16 bits", 3, 7 + (1 lsl 16));
          ];
        check Alcotest.int "one delivery entry" 1 (Dedup.length delivered);
        check Alcotest.int "one merge entry" 1 (Dedup.length merged));
  ]

let () =
  Alcotest.run "nfp_infra"
    [
      ("context", context_tests);
      ("reference", reference_tests);
      ("system", system_tests);
      ("multi", multi_tests);
      ("cluster", cluster_tests);
      ("ledger", ledger_tests);
      ("property", property_tests);
      ("fault", fault_tests);
      ("dedup", dedup_tests);
    ]
