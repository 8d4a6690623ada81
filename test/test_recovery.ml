(* Lossless recovery equivalence: with checkpointing, input logging and
   deterministic replay armed, a run that suffers seeded crashes under
   the Restart policy must converge to the fault-free run — the merged
   output trace (as a (pid, bytes) multiset) and every NF's final state
   digest byte-identical. Merge timeouts are disabled and rings are
   deep, so nothing is force-completed or refused at entry: any
   divergence is a recovery bug, not an artifact of finite buffers. *)

open Nfp_packet

let check = Alcotest.check
let uniform rate = Nfp_sim.Harness.Uniform rate

(* Run fault-free and crashed-with-recovery, then hold the recovered
   run to the oracle. Returns the recovered run's result for extra
   per-test assertions. *)
let equivalence ?checkpoint_interval_ns ?log_capacity ~text ~bindings ~crash_plan
    ?(rate = 0.5) ?(packets = 2000) () =
  let plan = Oracle.plan_of text in
  let run ?fault () = Oracle.observe ?fault ~plan ~bindings ~arrivals:(uniform rate) ~packets () in
  let baseline, _ = run () in
  let fault = Oracle.lossless_fault ?checkpoint_interval_ns ?log_capacity crash_plan in
  let recovered, rr = run ~fault () in
  Oracle.check_equivalent "recovered run" baseline recovered;
  rr

let equivalence_tests =
  [
    Alcotest.test_case "single crash on a stateful chain" `Quick (fun () ->
        let rr =
          equivalence ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ])
            ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes;
        check Alcotest.bool "replay happened" true (rr.health.replayed > 0));
    Alcotest.test_case "crash on a parallel branch with merges" `Quick (fun () ->
        let rr =
          equivalence ~text:Oracle.we_text ~bindings:Oracle.we_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:700_000.0 "mid1:ids" ])
            ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes);
    Alcotest.test_case "two crashes on distinct cores" `Quick (fun () ->
        let rr =
          equivalence ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan
                 [
                   Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn";
                   Nfp_sim.Fault.crash ~at_ns:1_800_000.0 "mid1:fw";
                 ])
            ()
        in
        check Alcotest.int "both crashes took effect" 2 rr.health.crashes);
    Alcotest.test_case "repeated crashes of one core" `Quick (fun () ->
        let rr =
          equivalence ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan
                 [
                   Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:lb";
                   Nfp_sim.Fault.crash ~at_ns:2_000_000.0 "mid1:lb";
                 ])
            ()
        in
        check Alcotest.int "both crashes took effect" 2 rr.health.crashes);
    Alcotest.test_case "an infinite checkpoint interval is accepted: no periodic checkpoint"
      `Quick (fun () ->
        (* Only a full input log forces a checkpoint, so the crash
           replays the whole log since the start; the run still ends at a
           finite time with every packet delivered once. *)
        let rr =
          equivalence ~checkpoint_interval_ns:Float.infinity ~text:Oracle.ns_text
            ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ])
            ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes;
        check Alcotest.bool "finite duration" true (Float.is_finite rr.duration_ns);
        check Alcotest.int "every packet delivered" rr.offered rr.completed);
    Alcotest.test_case "crash storm across every NF core" `Quick (fun () ->
        let storm =
          Nfp_sim.Fault.storm ~seed:11L
            ~cores:[ "mid1:vpn"; "mid1:mon"; "mid1:fw"; "mid1:lb" ]
            ~mtbf_ns:2_000_000.0 ~horizon_ns:3_000_000.0 ()
        in
        let rr =
          equivalence ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings ~crash_plan:storm ()
        in
        check Alcotest.bool "storm produced crashes" true (rr.health.crashes > 0));
    Alcotest.test_case "compiled output under a disarmed checkpoint config is \
                        byte-identical to no-fault" `Quick (fun () ->
        (* Belt and braces on top of test_fastpath's differential: the
           recovery fields themselves must not perturb a faultless
           run. *)
        let plan = Oracle.plan_of Oracle.ns_text in
        let run ?fault () =
          Oracle.observe ?fault ~plan ~bindings:Oracle.ns_bindings ~arrivals:(uniform 0.5)
            ~packets:800 ()
        in
        let a, _ = run () and b, _ = run ~fault:(Oracle.lossless_fault Nfp_sim.Fault.empty) () in
        Oracle.check_equivalent "disarmed run" a b);
  ]

(* ------------------------------------------------------------------ *)
(* Input-log overflow: a full log forces a checkpoint, never loss      *)
(* ------------------------------------------------------------------ *)

let log_tests =
  [
    Alcotest.test_case "log overflow forces early checkpoints" `Quick (fun () ->
        (* 16-packet logs at 2 Mpps fill several times per 100 us
           checkpoint interval; every overflow must checkpoint, and no
           packet may be lost. *)
        let fault =
          Oracle.lossless_fault ~log_capacity:16
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:900_000.0 "mid1:fw" ])
        in
        let _, r =
          Oracle.observe ~fault ~plan:(Oracle.plan_of Oracle.ns_text) ~bindings:Oracle.ns_bindings
            ~arrivals:(uniform 2.0) ~packets:2000 ()
        in
        check Alcotest.bool "forced checkpoints happened" true
          (r.health.forced_checkpoints > 0);
        check Alcotest.int "no ring drops" 0 r.ring_drops;
        check Alcotest.int "nothing flushed" 0 r.health.drops.flush_lost;
        check Alcotest.int "no packet lost" 0 r.in_flight;
        check Alcotest.int "everything completed" r.offered r.completed);
    Alcotest.test_case "equivalence holds across forced checkpoints" `Quick (fun () ->
        let rr =
          equivalence ~log_capacity:8 ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:600_000.0 "mid1:mon" ])
            ~rate:1.0 ()
        in
        check Alcotest.bool "forced checkpoints happened" true
          (rr.health.forced_checkpoints > 0));
    Alcotest.test_case "replay covers exactly the log since the last checkpoint" `Quick
      (fun () ->
        (* A giant interval means one initial snapshot and no periodic
           truncation: the replay must re-process everything the core
           handled before the crash — observable as replayed >= the
           packets processed pre-crash by that core — and still
           converge. *)
        let rr =
          equivalence
            ~checkpoint_interval_ns:60_000_000.0
            ~text:Oracle.ns_text ~bindings:Oracle.ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:1_000_000.0 "mid1:vpn" ])
            ()
        in
        (* ~500 packets processed by vpn before the 1 ms crash. *)
        check Alcotest.bool
          (Printf.sprintf "replayed the whole pre-crash log (%d)" rr.health.replayed)
          true
          (rr.health.replayed >= 400));
  ]

(* ------------------------------------------------------------------ *)
(* Replay fidelity: the log replays the packets it logged, in order    *)
(* ------------------------------------------------------------------ *)

(* Counter NFs such as Firewall converge whatever packets a replay
   feeds them, so a log that replayed the wrong packets — a stale slot,
   one packet in every slot, a slot refilled with the wrong bytes —
   would pass every equivalence above. This NF's state is a hash chain
   over the bytes and PID of every packet it processes, in order: a
   replay converges only if it re-processes exactly the logged
   packets, in arrival order. *)
type Nfp_nf.Nf.state += Chain_hash of int

let hash_chain ~name =
  let h = ref 0 in
  let process pkt =
    let bytes = Bytes.to_string (Packet.to_bytes pkt) in
    h :=
      Nfp_algo.Hashing.combine !h
        (Nfp_algo.Hashing.combine (Int64.to_int (Packet.pid pkt))
           (Nfp_algo.Hashing.fnv1a32 bytes));
    Nfp_nf.Nf.Forward
  in
  Nfp_nf.Nf.make ~name ~kind:"Monitor"
    ~profile:Nfp_nf.Action.[ Read Field.Sip; Read Field.Payload ]
    ~cost_cycles:(fun _ -> 200)
    ~state_digest:(fun () -> !h)
    ~snapshot:(fun () -> Chain_hash !h)
    ~restore:(function
      | Chain_hash v -> h := v | _ -> invalid_arg "hash_chain: foreign state")
    process

let chain_text = "NF(hc, Monitor)\nNF(fw, Firewall)\nChain(hc, fw)"

(* Four frame sizes, so consecutive appends into one log slot usually
   differ in length and the slot's bytes are replaced, not refilled. *)
let mixed_sizes = [ (64, 1.0); (200, 1.0); (700, 1.0); (1500, 1.0) ]

let observe_chain ?fault () =
  Oracle.observe ?fault
    ~nfs:(Oracle.instances_with "hc" (fun () -> hash_chain ~name:"hc"))
    ~gen:(Oracle.traffic ~sizes:mixed_sizes ())
    ~plan:(Oracle.plan_of chain_text)
    ~bindings:[ ("hc", "Monitor"); ("fw", "Firewall") ]
    ~arrivals:(uniform 1.0) ~packets:1500 ()

let replay_fidelity_tests =
  [
    Alcotest.test_case "replay re-processes the logged packets in order" `Quick
      (fun () ->
        let baseline, _ = observe_chain () in
        (* A 16-slot log and a checkpoint interval past the run: only
           full logs checkpoint, so the log wraps dozens of times before
           the crash and the replay runs on refilled slots. *)
        let fault =
          Oracle.lossless_fault ~checkpoint_interval_ns:60_000_000.0 ~log_capacity:16
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:700_000.0 "mid1:hc" ])
        in
        let replayed, r = observe_chain ~fault () in
        check Alcotest.int "crash took effect" 1 r.health.crashes;
        check Alcotest.bool
          (Printf.sprintf "the log wrapped (%d forced checkpoints)"
             r.health.forced_checkpoints)
          true
          (r.health.forced_checkpoints >= 2);
        check Alcotest.bool "replay happened" true (r.health.replayed > 0);
        Oracle.check_equivalent "replayed hash chain" baseline replayed);
  ]

(* ------------------------------------------------------------------ *)
(* Switchover accounting: in-flight packets of a Bypass / Degrade      *)
(* transition land in exactly one ledger bucket                        *)
(* ------------------------------------------------------------------ *)

(* Lossless recovery, with [policy] for the monitor and Restart for
   every other NF, and one crash of the monitor at 500 us. *)
let switch_fault policy =
  {
    (Oracle.lossless_fault
       (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ]))
    with
    recovery_of = (fun nf -> if nf = "mon" then policy else Nfp_infra.System.Restart);
  }

let switchover_tests =
  [
    Alcotest.test_case "Bypass switchover loses no in-flight packet" `Quick (fun () ->
        (* A busy core crashes under Bypass with merge timeouts off: the
           in-flight batch its kill reclaims, and its pending emissions,
           must be rerouted through the action program — otherwise their
           merges wedge forever and the ledger shows them in_flight. The
           rerouted packets must run the bypassed NF's own program:
           Monitor never rewrites a packet, so everything but the
           monitor's own digest equals the fault-free run's. In the
           north-south and west-east chains the monitor is not the
           first NF slot. *)
        List.iter
          (fun (text, bindings) ->
            let plan = Oracle.plan_of text in
            let run ?fault () =
              Oracle.observe ?fault ~plan ~bindings ~arrivals:(uniform 1.0) ~packets:2000 ()
            in
            let baseline, _ = run () and bypassed, r = run ~fault:(switch_fault Bypass) () in
            check Alcotest.int "bypassed once" 1 r.health.bypasses;
            check Alcotest.bool "packets rerouted around the core" true
              (r.health.bypassed_packets > 0);
            check Alcotest.int "no merge was force-completed" 0
              r.health.drops.merge_timed_out;
            check Alcotest.int "every packet in exactly one bucket" r.offered
              (r.completed + r.ring_drops + r.nf_drops + r.unmatched);
            let but_mon (o : Oracle.observation) =
              { o with digests = List.remove_assoc "mon" o.digests }
            in
            Oracle.check_equivalent "bypassed run" (but_mon baseline) (but_mon bypassed))
          Oracle.
            [ (par_text, par_bindings); (ns_text, ns_bindings); (we_text, we_bindings) ]);
    Alcotest.test_case "Degrade switchover loses no in-flight packet" `Quick (fun () ->
        let _, r =
          Oracle.observe ~fault:(switch_fault Degrade) ~plan:(Oracle.plan_of Oracle.par_text)
            ~bindings:Oracle.par_bindings ~arrivals:(uniform 1.0) ~packets:2000 ()
        in
        check Alcotest.int "degraded once" 1 r.health.degrades;
        check Alcotest.int "recovered to parallel" 1 r.health.recoveries;
        check Alcotest.int "no packet wedged in flight" 0 r.in_flight;
        check Alcotest.int "every packet in exactly one bucket" r.offered
          (r.completed + r.ring_drops + r.nf_drops + r.unmatched));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random policies x random crash plans converge             *)
(* ------------------------------------------------------------------ *)

(* A policy case and 1-2 crashes on random NF cores at random times
   inside the run. *)
let random_case_arbitrary =
  QCheck.make
    ~print:(fun (case, crashes) ->
      Printf.sprintf "%s; crashes %s" (Oracle.print_policy case)
        (String.concat ","
           (List.map (fun (i, t) -> Printf.sprintf "n%d@%.0f" i t) crashes)))
    QCheck.Gen.(
      let* case = Oracle.policy_gen ~max_nfs:5 in
      let* crashes =
        list_size (int_range 1 2)
          (pair (int_range 0 (List.length (fst case) - 1)) (float_range 300_000.0 2_500_000.0))
      in
      return (case, crashes))

(* The fault-free and the crashed run of a case, 1,200 packets at
   1 Mpps, and the crashed run's result. *)
let runs case crashes =
  match Oracle.plan_of_case case with
  | None -> QCheck.assume_fail ()
  | Some plan ->
      let run ?fault () =
        Oracle.observe ?fault ~plan ~bindings:(Oracle.bindings_of case) ~arrivals:(uniform 1.0)
          ~packets:1200 ()
      in
      let crash_plan =
        Nfp_sim.Fault.plan
          (List.map
             (fun (i, at_ns) -> Nfp_sim.Fault.crash ~at_ns ("mid1:" ^ Oracle.node i))
             crashes)
      in
      let baseline, _ = run () in
      let recovered, r = run ~fault:(Oracle.lossless_fault crash_plan) () in
      (baseline, recovered, r)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"replay recovery converges with the fault-free run on any policy"
         random_case_arbitrary
         (fun (case, crashes) ->
           let baseline, recovered, _ = runs case crashes in
           Oracle.converges baseline recovered));
  ]

(* ------------------------------------------------------------------ *)
(* Known failures: today's outcome, pinned until its fix lands         *)
(* ------------------------------------------------------------------ *)

(* Each known-failing case is a property case, written as the property
   prints it, and pinned to today's outcome: the compiled graph, what
   fired, and the oracle's first difference. Each has ROADMAP item 2's
   idle-core signature, traced in each case: the crash that strands
   packets lands on a core that is idle at the watchdog's last check,
   at 1,200,000 ns in all four, or after that check; the watchdog sees
   no queued work, does not re-arm, and no later inject kicks it. So
   the stranding crash is never detected (detections 0), and packets
   stay queued in the dead core's ring (in_flight > 0). The fix moves
   watchdog timing, so it changes modeled output: when it lands, each
   case converges and flips to the fault-free outcome (1200 completed,
   nothing in flight, equal digests). *)
let pinned case crashes ~graph ~first =
  let baseline, recovered, r = runs case crashes in
  check Alcotest.string "compiled graph" graph recovered.graph;
  check Alcotest.int "fault-free run completes everything" 1200 baseline.completed;
  check
    Alcotest.(option string)
    "the oracle's first difference" (Some first)
    (Option.map
       (fun report -> List.hd (String.split_on_char '\n' report))
       (Oracle.first_difference baseline recovered));
  (baseline, recovered, r)

let known_failing_tests =
  [
    (* QCHECK_SEED=380: "Monitor,Gateway,Gateway; order n0<n2; crashes
       n0@1199340". The watchdog's check at 1,200,000 ns finds every
       core idle and does not re-arm. Packets 1198 and 1199 are still on
       the 2 us NIC ingress line, where its pending test cannot see
       them; n0 crashes at 1,199,340 ns, both packets queue in its ring,
       and no later inject kicks the watchdog. *)
    Alcotest.test_case "known-failing (item 2): a crash on an idle core strands two packets"
      `Quick (fun () ->
        let baseline, recovered, r =
          pinned
            ([ "Monitor"; "Gateway"; "Gateway" ], [ (0, 2) ])
            [ (0, 1_199_340.0) ]
            ~graph:"(n0 | n2 | n1)" ~first:"oracle: first difference: in_flight 0 vs 2"
        in
        check Alcotest.int "crash took effect" 1 r.health.crashes;
        check Alcotest.int "no detection" 0 r.health.detections;
        check Alcotest.int "no checkpoint" 0 r.health.checkpoints;
        check Alcotest.int "two packets left in flight" 2 r.in_flight;
        check Alcotest.int "completed" 1198 recovered.completed;
        (* n0's digest is that of a Monitor that saw packets 0-1197. *)
        let short = Option.get (Nfp_nf.Registry.instantiate "Monitor" ~name:"n0") in
        let gen = Oracle.traffic () in
        for i = 0 to 1197 do
          ignore (short.process (gen i))
        done;
        check Alcotest.int "n0 digest short by packets 1198 and 1199"
          (short.state_digest ()) (List.assoc "n0" recovered.digests);
        check Alcotest.bool "n0 digest differs from the fault-free run" true
          (List.assoc "n0" recovered.digests <> List.assoc "n0" baseline.digests));
    (* QCHECK_SEED=460: "NAT,LoadBalancer,Firewall,Gateway; order
       n0<n3,n1<n3,n2<n3; crashes n2@2223220,n2@1199925". The run ends
       before 2,223,220 ns, so only the crash at 1,199,925 ns fires; n2
       is down and idle at the check at 1,200,000 ns. *)
    Alcotest.test_case "known-failing (item 2, seed 460): a late crash strands two packets"
      `Quick (fun () ->
        let _, recovered, r =
          pinned
            ([ "NAT"; "LoadBalancer"; "Firewall"; "Gateway" ], [ (0, 3); (1, 3); (2, 3) ])
            [ (2, 2_223_220.0); (2, 1_199_925.0) ]
            ~graph:"n0 -> n1 -> n2 -> n3" ~first:"oracle: first difference: in_flight 0 vs 2"
        in
        check Alcotest.int "one crash took effect" 1 r.health.crashes;
        check Alcotest.int "no detection" 0 r.health.detections;
        check Alcotest.int "completed" 1198 recovered.completed);
    (* QCHECK_SEED=471: "Proxy,Forwarder,NAT; order n0<n1,n1<n2;
       crashes n1@1200796". n1 crashes after the watchdog's last
       check. *)
    Alcotest.test_case "known-failing (item 2, seed 471): a late crash strands one packet"
      `Quick (fun () ->
        let _, recovered, r =
          pinned
            ([ "Proxy"; "Forwarder"; "NAT" ], [ (0, 1); (1, 2) ])
            [ (1, 1_200_796.0) ]
            ~graph:"n0 -> (n1 | n2)" ~first:"oracle: first difference: in_flight 0 vs 1"
        in
        check Alcotest.int "crash took effect" 1 r.health.crashes;
        check Alcotest.int "no detection" 0 r.health.detections;
        check Alcotest.int "completed" 1199 recovered.completed);
    (* QCHECK_SEED=687: "Caching,Caching,Firewall,NAT; order
       n0<n1,n0<n2,n0<n3,n1<n3; crashes n2@358965,n3@1199947". The
       watchdog detects n2's crash at 358,965 ns and restarts it, the
       run's one detection; n3 crashes at 1,199,947 ns, is down and idle
       at the check at 1,200,000 ns, and strands two packets. *)
    Alcotest.test_case "known-failing (item 2, seed 687): a late crash strands two packets"
      `Quick (fun () ->
        let _, recovered, r =
          pinned
            ([ "Caching"; "Caching"; "Firewall"; "NAT" ], [ (0, 1); (0, 2); (0, 3); (1, 3) ])
            [ (2, 358_965.0); (3, 1_199_947.0) ]
            ~graph:"(n0 | n1 | n2) -> n3" ~first:"oracle: first difference: in_flight 0 vs 2"
        in
        check Alcotest.int "both crashes took effect" 2 r.health.crashes;
        check Alcotest.int "only the early crash detected" 1 r.health.detections;
        check Alcotest.int "completed" 1198 recovered.completed);
  ]

let () =
  Alcotest.run "nfp_recovery"
    [
      ("equivalence", equivalence_tests);
      ("log", log_tests @ replay_fidelity_tests);
      ("switchover", switchover_tests);
      ("property", property_tests);
      ("known-fail", known_failing_tests);
    ]
