(* Lossless recovery equivalence: with checkpointing, input logging and
   deterministic replay armed, a run that suffers seeded crashes under
   the Restart policy must converge to the fault-free run — the merged
   output trace (as a (pid, bytes) multiset) and every NF's final state
   digest byte-identical. Merge timeouts are disabled and rings are
   deep, so nothing is force-completed or refused at entry: any
   divergence is a recovery bug, not an artifact of finite buffers. *)

open Nfp_packet
open Nfp_core

let check = Alcotest.check

let plan_of text =
  match Compiler.compile_text text with
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
  | Ok o -> (
      match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "plan: %s" e)

(* Instance table plus the instance list, so a run's final NF state
   digests can be collected after the simulation. *)
let instances bindings =
  let table = Hashtbl.create 8 in
  let nfs =
    List.map
      (fun (name, kind) ->
        match Nfp_nf.Registry.instantiate kind ~name with
        | Some nf ->
            Hashtbl.replace table name nf;
            (name, nf)
        | None -> Alcotest.failf "no implementation for %s" kind)
      bindings
  in
  (Hashtbl.find table, nfs)

let traffic () =
  let g =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with sizes = Nfp_traffic.Size_dist.fixed 128; flows = 64 }
  in
  Nfp_traffic.Pktgen.packet g

(* Rings deep enough that an outage backlog is buffered, never refused:
   losslessness claims cover every admitted packet, and with this depth
   every offered packet is admitted. *)
let roomy = { Nfp_infra.System.default_config with ring_capacity = 8192 }

let lossless_fault ?(checkpoint_interval_ns = 100_000.0) ?(log_capacity = 4096) plan =
  {
    Nfp_infra.System.default_fault_config with
    plan;
    merge_timeout_ns = 0.0;
    checkpoint_interval_ns;
    log_capacity;
  }

(* Everything the equivalence claim quantifies over. Deliveries are
   compared as a sorted multiset: an outage delays and may locally
   reorder deliveries, but each packet's bytes and the set of packets
   must match the fault-free run exactly. *)
type observation = {
  outs : (int64 * string) list;
  completed : int;
  nf_drops : int;
  digests : (string * int) list;
}

let observe ?fault ~plan ~bindings ~rate ~packets () =
  let lookup, nfs = instances bindings in
  let outs = ref [] in
  let make engine ~output =
    Nfp_infra.System.make ?fault ~config:roomy ~plan ~nfs:lookup engine
      ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen:(traffic ())
      ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets ()
  in
  let obs =
    {
      outs = List.sort compare !outs;
      completed = r.completed;
      nf_drops = r.nf_drops;
      digests = List.map (fun (name, (nf : Nfp_nf.Nf.t)) -> (name, nf.state_digest ())) nfs;
    }
  in
  (obs, r)

let check_outs baseline recovered =
  check Alcotest.int "delivery count" (List.length baseline.outs)
    (List.length recovered.outs);
  List.iter2
    (fun (pid_a, bytes_a) (pid_b, bytes_b) ->
      check Alcotest.int64 "delivered pid" pid_a pid_b;
      check Alcotest.string "delivered bytes" bytes_a bytes_b)
    baseline.outs recovered.outs

let check_equivalent baseline recovered =
  check Alcotest.int "completed" baseline.completed recovered.completed;
  check Alcotest.int "nf drops" baseline.nf_drops recovered.nf_drops;
  check_outs baseline recovered;
  List.iter2
    (fun (name_a, d_a) (name_b, d_b) ->
      check Alcotest.string "digest NF" name_a name_b;
      check Alcotest.int (Printf.sprintf "state digest of %s" name_a) d_a d_b)
    baseline.digests recovered.digests

(* Run fault-free and crashed-with-recovery, then compare. Returns the
   recovered run's result for extra per-test assertions. *)
let equivalence ?checkpoint_interval_ns ?log_capacity ~text ~bindings ~crash_plan
    ?(rate = 0.5) ?(packets = 2000) () =
  let plan = plan_of text in
  let baseline, rb = observe ~plan ~bindings ~rate ~packets () in
  let fault = lossless_fault ?checkpoint_interval_ns ?log_capacity crash_plan in
  let recovered, rr = observe ~fault ~plan ~bindings ~rate ~packets () in
  check Alcotest.int "baseline admits everything" 0 rb.ring_drops;
  check Alcotest.int "recovered admits everything" 0 rr.ring_drops;
  check Alcotest.int "nothing flushed" 0 rr.health.drops.flush_lost;
  check Alcotest.int "nothing left in flight" 0 rr.in_flight;
  check_equivalent baseline recovered;
  rr

let ns_text =
  "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
   Chain(vpn, mon, fw, lb)"

let ns_bindings =
  [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]

let we_text = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)"

let we_bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

let par_text = "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"

let par_bindings = [ ("mon", "Monitor"); ("fw", "Firewall") ]

let equivalence_tests =
  [
    Alcotest.test_case "single crash on a stateful chain" `Quick (fun () ->
        let rr =
          equivalence ~text:ns_text ~bindings:ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ])
            ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes;
        check Alcotest.bool "replay happened" true (rr.health.replayed > 0));
    Alcotest.test_case "crash on a parallel branch with merges" `Quick (fun () ->
        let rr =
          equivalence ~text:we_text ~bindings:we_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:700_000.0 "mid1:ids" ])
            ()
        in
        check Alcotest.int "crash took effect" 1 rr.health.crashes);
    Alcotest.test_case "two crashes on distinct cores" `Quick (fun () ->
        let rr =
          equivalence ~text:ns_text ~bindings:ns_bindings
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
          equivalence ~text:ns_text ~bindings:ns_bindings
            ~crash_plan:
              (Nfp_sim.Fault.plan
                 [
                   Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:lb";
                   Nfp_sim.Fault.crash ~at_ns:2_000_000.0 "mid1:lb";
                 ])
            ()
        in
        check Alcotest.int "both crashes took effect" 2 rr.health.crashes);
    Alcotest.test_case "crash storm across every NF core" `Quick (fun () ->
        let storm =
          Nfp_sim.Fault.storm ~seed:11L
            ~cores:[ "mid1:vpn"; "mid1:mon"; "mid1:fw"; "mid1:lb" ]
            ~mtbf_ns:2_000_000.0 ~horizon_ns:3_000_000.0 ()
        in
        let rr =
          equivalence ~text:ns_text ~bindings:ns_bindings ~crash_plan:storm ()
        in
        check Alcotest.bool "storm produced crashes" true (rr.health.crashes > 0));
    Alcotest.test_case "compiled output under a disarmed checkpoint config is \
                        byte-identical to no-fault" `Quick (fun () ->
        (* Belt and braces on top of test_fastpath's differential: the
           recovery fields themselves must not perturb a faultless
           run. *)
        let plan = plan_of ns_text in
        let a, _ = observe ~plan ~bindings:ns_bindings ~rate:0.5 ~packets:800 () in
        let fault = lossless_fault Nfp_sim.Fault.empty in
        let b, _ =
          observe ~fault ~plan ~bindings:ns_bindings ~rate:0.5 ~packets:800 ()
        in
        check_equivalent a b);
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
        let plan = plan_of ns_text in
        let fault =
          lossless_fault ~log_capacity:16
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:900_000.0 "mid1:fw" ])
        in
        let _, r = observe ~fault ~plan ~bindings:ns_bindings ~rate:2.0 ~packets:2000 () in
        check Alcotest.bool "forced checkpoints happened" true
          (r.health.forced_checkpoints > 0);
        check Alcotest.int "no ring drops" 0 r.ring_drops;
        check Alcotest.int "nothing flushed" 0 r.health.drops.flush_lost;
        check Alcotest.int "no packet lost" 0 r.in_flight;
        check Alcotest.int "everything completed" r.offered r.completed);
    Alcotest.test_case "equivalence holds across forced checkpoints" `Quick (fun () ->
        let rr =
          equivalence ~log_capacity:8 ~text:ns_text ~bindings:ns_bindings
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
            ~text:ns_text ~bindings:ns_bindings
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

let observe_chain ?fault ~packets () =
  let hc = hash_chain ~name:"hc" in
  let fw = Option.get (Nfp_nf.Registry.instantiate "Firewall" ~name:"fw") in
  let outs = ref [] in
  let make engine ~output =
    Nfp_infra.System.make ?fault ~config:roomy ~plan:(plan_of chain_text)
      ~nfs:(function "hc" -> hc | _ -> fw)
      engine
      ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let gen =
    Nfp_traffic.Pktgen.packet
      (Nfp_traffic.Pktgen.create
         { Nfp_traffic.Pktgen.default with sizes = mixed_sizes; flows = 64 })
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets ()
  in
  (hc.state_digest (), List.sort compare !outs, r)

let replay_fidelity_tests =
  [
    Alcotest.test_case "replay re-processes the logged packets in order" `Quick
      (fun () ->
        let digest, outs, _ = observe_chain ~packets:1500 () in
        (* A 16-slot log and a checkpoint interval past the run: only
           full logs checkpoint, so the log wraps dozens of times before
           the crash and the replay runs on refilled slots. *)
        let fault =
          lossless_fault ~checkpoint_interval_ns:60_000_000.0 ~log_capacity:16
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:700_000.0 "mid1:hc" ])
        in
        let digest', outs', r = observe_chain ~fault ~packets:1500 () in
        check Alcotest.int "crash took effect" 1 r.health.crashes;
        check Alcotest.bool
          (Printf.sprintf "the log wrapped (%d forced checkpoints)"
             r.health.forced_checkpoints)
          true
          (r.health.forced_checkpoints >= 2);
        check Alcotest.bool "replay happened" true (r.health.replayed > 0);
        check Alcotest.int "nothing left in flight" 0 r.in_flight;
        check Alcotest.int "replayed hash chain" digest digest';
        check Alcotest.bool "same deliveries" true (outs = outs'));
  ]

(* ------------------------------------------------------------------ *)
(* Switchover accounting: in-flight packets of a Bypass / Degrade      *)
(* transition land in exactly one ledger bucket                        *)
(* ------------------------------------------------------------------ *)

let switchover_tests =
  [
    Alcotest.test_case "Bypass switchover loses no in-flight packet" `Quick (fun () ->
        (* A busy core crashes under Bypass with merge timeouts off: the
           in-flight batch its kill reclaims, and its pending emissions,
           must be rerouted through the action program — otherwise their
           merges wedge forever and the ledger shows them in_flight. The
           rerouted packets must run the bypassed NF's own program:
           Monitor never rewrites a packet, so the delivered (pid, bytes)
           multiset equals the fault-free run's. In [ns_text] and
           [we_text] the monitor is not the first NF slot. *)
        List.iter
          (fun (text, bindings) ->
            let plan = plan_of text in
            let baseline, _ = observe ~plan ~bindings ~rate:1.0 ~packets:2000 () in
            let fault =
              {
                (lossless_fault
                   (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ]))
                with
                recovery_of = (fun nf -> if nf = "mon" then Bypass else Restart);
              }
            in
            let bypassed, r = observe ~fault ~plan ~bindings ~rate:1.0 ~packets:2000 () in
            check Alcotest.int "bypassed once" 1 r.health.bypasses;
            check Alcotest.bool "packets rerouted around the core" true
              (r.health.bypassed_packets > 0);
            check Alcotest.int "no merge was force-completed" 0
              r.health.drops.merge_timed_out;
            check Alcotest.int "no packet wedged in flight" 0 r.in_flight;
            check Alcotest.int "every packet in exactly one bucket" r.offered
              (r.completed + r.ring_drops + r.nf_drops + r.unmatched);
            check_outs baseline bypassed)
          [ (par_text, par_bindings); (ns_text, ns_bindings); (we_text, we_bindings) ]);
    Alcotest.test_case "Degrade switchover loses no in-flight packet" `Quick (fun () ->
        let plan = plan_of par_text in
        let fault =
          {
            (lossless_fault
               (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ]))
            with
            recovery_of = (fun nf -> if nf = "mon" then Degrade else Restart);
          }
        in
        let _, r = observe ~fault ~plan ~bindings:par_bindings ~rate:1.0 ~packets:2000 () in
        check Alcotest.int "degraded once" 1 r.health.degrades;
        check Alcotest.int "recovered to parallel" 1 r.health.recoveries;
        check Alcotest.int "no packet wedged in flight" 0 r.in_flight;
        check Alcotest.int "every packet in exactly one bucket" r.offered
          (r.completed + r.ring_drops + r.nf_drops + r.unmatched));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random policies x random crash plans converge             *)
(* ------------------------------------------------------------------ *)

let kind_pool =
  [| "Monitor"; "Gateway"; "Caching"; "Firewall"; "IDS"; "IPS"; "LoadBalancer";
     "VPN"; "NAT"; "Proxy"; "Compression"; "Forwarder" |]

let random_case_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let* kinds = array_size (return n) (int_range 0 (Array.length kind_pool - 1)) in
    let* edge_bits = array_size (return (n * n)) bool in
    (* 1-2 crashes on random NF cores at random times inside the run. *)
    let* crashes =
      list_size (int_range 1 2)
        (pair (int_range 0 (n - 1)) (float_range 300_000.0 2_500_000.0))
    in
    return (kinds, edge_bits, crashes))

let random_case_arbitrary =
  QCheck.make
    ~print:(fun (kinds, _, crashes) ->
      Printf.sprintf "%s; crashes %s"
        (String.concat "," (Array.to_list (Array.map (fun i -> kind_pool.(i)) kinds)))
        (String.concat ","
           (List.map (fun (i, t) -> Printf.sprintf "n%d@%.0f" i t) crashes)))
    random_case_gen

let build_policy (kinds, edge_bits) =
  let n = Array.length kinds in
  let name i = Printf.sprintf "n%d" i in
  let bindings = List.init n (fun i -> (name i, kind_pool.(kinds.(i)))) in
  let rules =
    List.concat
      (List.init n (fun i ->
           List.filter_map
             (fun j ->
               if j > i && edge_bits.((i * n) + j) then
                 Some (Nfp_policy.Rule.Order (name i, name j))
               else None)
             (List.init n Fun.id)))
  in
  let rules =
    if rules = [] then Nfp_policy.Rule.of_chain (List.init n name) else rules
  in
  { Nfp_policy.Rule.bindings; rules }

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"replay recovery converges with the fault-free run on any policy"
         random_case_arbitrary
         (fun (kinds, edge_bits, crashes) ->
           let policy = build_policy (kinds, edge_bits) in
           match Compiler.compile policy with
           | Error _ -> QCheck.assume_fail ()
           | Ok out -> (
               match Tables.of_output out with
               | Error _ -> false
               | Ok plan ->
                   let crash_plan =
                     Nfp_sim.Fault.plan
                       (List.map
                          (fun (i, at_ns) ->
                            Nfp_sim.Fault.crash ~at_ns (Printf.sprintf "mid1:n%d" i))
                          crashes)
                   in
                   let bindings = policy.bindings in
                   let baseline, rb =
                     observe ~plan ~bindings ~rate:1.0 ~packets:1200 ()
                   in
                   let recovered, rr =
                     observe
                       ~fault:(lossless_fault crash_plan)
                       ~plan ~bindings ~rate:1.0 ~packets:1200 ()
                   in
                   rb.ring_drops = 0 && rr.ring_drops = 0
                   && rr.health.drops.flush_lost = 0
                   && rr.in_flight = 0
                   && baseline = recovered)));
  ]

let () =
  Alcotest.run "nfp_recovery"
    [
      ("equivalence", equivalence_tests);
      ("log", log_tests @ replay_fidelity_tests);
      ("switchover", switchover_tests);
      ("property", property_tests);
    ]
