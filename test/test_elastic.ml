(* Elastic scale-out with crash-safe live NF state migration: the
   controller may add/remove replicas and re-home flow buckets at any
   point during a run — freezing a source, carving out its per-flow
   state, flipping the steering map — and the merged observable output
   (delivery multiset, ledger, state digests) must stay identical to a
   run that never scaled. The differential holds under seeded crash
   plans landing mid-migration on the source, the destination or the
   controller itself, and a migration that cannot commit by its
   deadline must roll back to the old shard map with nothing
   observable changed. *)

open Nfp_packet
open Nfp_core
module Sys = Nfp_infra.System

let check = Alcotest.check

(* An elastic policy eager enough that a surge trips it within a run of
   a few thousand packets: ~16 queued packets of the roomy ring cross
   the scale-out line, a near-empty queue crosses the scale-in line. *)
let eager =
  {
    Nfp_infra.Elastic.min_replicas = 1;
    max_replicas = 3;
    buckets = 24;
    control_interval_ns = 5_000.0;
    scale_out_occupancy = 0.002;
    scale_in_occupancy = 0.0002;
    migration_batch = 6;
    transfer_ns = 10_000.0;
    migration_deadline_ns = 200_000.0;
    commit_retry_ns = 2_000.0;
    cooldown_ns = 20_000.0;
  }

(* A spike that floods the bottleneck core, then a long quiet tail that
   drains it: the controller must both scale out and scale back in. *)
let spiky =
  Nfp_sim.Harness.Surge
    (Nfp_sim.Fault.surge ~base_mpps:0.4
       [ Nfp_sim.Fault.Spike { at_ns = 0.0; duration_ns = 120_000.0; factor = 50.0 } ])

(* Run the elastic deployment (optionally faulted) against the static
   fault-free baseline, hold it to the oracle, and hand back the elastic
   run's ledger. *)
let equivalence ?fault ?(elastic = eager) ?(text = Oracle.tag_text)
    ?(bindings = Oracle.tag_bindings) ?(nfs = Oracle.tag_nfs) ?(arrivals = spiky)
    ?(packets = 3000) () =
  let plan = Oracle.plan_of text in
  let run ?fault ?elastic () =
    Oracle.observe ?fault ?elastic ~nfs ~plan ~bindings ~arrivals ~packets ()
  in
  let baseline, _ = run () and scaled, rr = run ?fault ~elastic () in
  Oracle.check_equivalent "elastic run" baseline scaled;
  rr

(* ------------------------------------------------------------------ *)
(* Extract/absorb round-trips at the NF level, no simulator            *)
(* ------------------------------------------------------------------ *)

let feed nf n =
  let gen = Oracle.traffic () in
  for i = 0 to n - 1 do
    ignore (nf.Nfp_nf.Nf.process (gen i))
  done

let merged_digest (nf0 : Nfp_nf.Nf.t) parts =
  let snaps = List.map (fun (nf : Nfp_nf.Nf.t) -> (Option.get nf.snapshot) ()) parts in
  let scratch = (Option.get nf0.fresh) () in
  (Option.get scratch.restore) ((Option.get nf0.merge) snaps);
  scratch.state_digest ()

let extract_round_trip name make_inst =
  Alcotest.test_case
    (Printf.sprintf "%s: extract moves per-flow state, absorb folds it back" name)
    `Quick
    (fun () ->
      let lone = make_inst () in
      let src = make_inst () and dst = make_inst () in
      feed lone 600;
      feed src 600;
      let before = src.Nfp_nf.Nf.state_digest () in
      let pred (f : Flow.t) = Flow.hash f land 1 = 0 in
      let shard = (Option.get src.Nfp_nf.Nf.extract) pred in
      check Alcotest.bool "extract removed state from the source" true
        (src.Nfp_nf.Nf.state_digest () <> before);
      Nfp_nf.Nf.absorb dst shard;
      check Alcotest.bool "absorb installed state at the destination" true
        (dst.Nfp_nf.Nf.state_digest () <> 0 || src.Nfp_nf.Nf.state_digest () <> 0);
      check Alcotest.int "source + destination merge to the lone digest"
        (lone.Nfp_nf.Nf.state_digest ())
        (merged_digest lone [ src; dst ]);
      (* A second carve of the same flows finds nothing left behind:
         absorbing it changes nothing. *)
      Nfp_nf.Nf.absorb dst ((Option.get src.Nfp_nf.Nf.extract) pred);
      check Alcotest.int "re-extract is empty"
        (lone.Nfp_nf.Nf.state_digest ())
        (merged_digest lone [ src; dst ]))

let migratable = Alcotest.testable Fmt.bool ( = )

let unit_tests =
  [
    extract_round_trip "Monitor" (fun () ->
        fst (Nfp_nf.Monitor.create ~name:"m" ()));
    extract_round_trip "NAT (hashed)" (fun () ->
        fst (Nfp_nf.Nat.create ~name:"n" ~alloc:`Hashed ()));
    extract_round_trip "FlowTag" (fun () -> Oracle.flow_tag ~name:"t" ());
    Alcotest.test_case "migratability verdicts across the registry" `Quick (fun () ->
        let verdict kind want =
          match Nfp_nf.Registry.instantiate kind ~name:"x" with
          | None -> Alcotest.failf "no implementation for %s" kind
          | Some nf -> check migratable kind want (Replication.migratable nf)
        in
        List.iter
          (fun k -> verdict k true)
          [ "Monitor"; "Firewall"; "IDS"; "Gateway"; "LoadBalancer"; "Proxy";
            "Compression" ];
        (* Sequential NFs never migrate. *)
        List.iter (fun k -> verdict k false) [ "Caching"; "VPN"; "NAT"; "Forwarder" ];
        check migratable "NAT+hashed" true
          (Replication.migratable (fst (Nfp_nf.Nat.create ~alloc:`Hashed ())));
        check migratable "FlowTag" true (Replication.migratable (Oracle.flow_tag ())));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: elastic runs match the static run                     *)
(* ------------------------------------------------------------------ *)

let differential_tests =
  [
    Alcotest.test_case "surge-driven scale-out keeps trace, bytes and digests"
      `Quick (fun () ->
        let rr = equivalence () in
        check Alcotest.bool "controller scaled out" true (rr.health.scale_outs >= 1);
        check Alcotest.bool "buckets migrated" true (rr.health.migrations >= 1);
        check Alcotest.bool "frozen packets were re-homed" true
          (rr.health.migrated_packets >= 1));
    Alcotest.test_case "the quiet tail scales back in and retires replicas" `Quick
      (fun () ->
        (* Longer tail: plenty of post-spike ticks below the scale-in
           line. *)
        let rr = equivalence ~packets:4000 () in
        check Alcotest.bool "controller scaled out" true (rr.health.scale_outs >= 1);
        check Alcotest.bool "controller scaled back in" true
          (rr.health.scale_ins >= 1));
    Alcotest.test_case "hashed NAT migrates its port mappings live" `Quick (fun () ->
        let rr =
          equivalence ~text:"NF(nat, NAT)\nNF(mon, Monitor)\nChain(nat, mon)"
            ~bindings:[ ("nat", "NAT"); ("mon", "Monitor") ]
            ~nfs:
              (Oracle.instances_with "nat" (fun () ->
                   fst (Nfp_nf.Nat.create ~name:"nat" ~alloc:`Hashed ())))
            ()
        in
        check Alcotest.bool "migrations happened" true (rr.health.migrations >= 1));
    Alcotest.test_case "elastic=None and a never-triggering policy are bit-identical"
      `Quick (fun () ->
        let run ?elastic () =
          Oracle.observe ?elastic ~nfs:Oracle.tag_nfs ~plan:(Oracle.plan_of Oracle.tag_text)
            ~bindings:Oracle.tag_bindings ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:2000 ()
        in
        let plain, _ = run () in
        (* (a) thresholds no queue of this run ever reaches *)
        let a, ra =
          run ~elastic:{ eager with scale_out_occupancy = 0.9; scale_in_occupancy = -1.0 } ()
        in
        (* (b) a ceiling of one replica: nothing is ever scalable *)
        let b, rb =
          run ~elastic:{ eager with min_replicas = 1; max_replicas = 1; buckets = 8 } ()
        in
        Oracle.check_equivalent "never-triggering thresholds: identical observation" plain a;
        Oracle.check_equivalent "single-replica ceiling: identical observation" plain b;
        check Alcotest.int "no scale-outs" 0 ra.health.scale_outs;
        check Alcotest.int "no migrations" 0
          (ra.health.migrations + rb.health.migrations));
    Alcotest.test_case "invalid elastic policies are rejected" `Quick (fun () ->
        let plan = Oracle.plan_of Oracle.tag_text in
        let lookup = Oracle.tag_nfs Oracle.tag_bindings in
        let rejects msg ec =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
              let engine = Nfp_sim.Engine.create () in
              ignore
                (Sys.make ~elastic:ec ~plan ~nfs:lookup engine
                   ~output:(fun ~pid:_ _ -> ())))
        in
        rejects "System.make: elastic replica bounds must satisfy 1 <= min <= max"
          { eager with min_replicas = 0 };
        rejects "System.make: elastic buckets must be >= max_replicas"
          { eager with buckets = 2 };
        rejects "System.make: elastic occupancy thresholds must satisfy in < out"
          { eager with scale_in_occupancy = 0.9 };
        rejects "System.make: elastic migration_batch must be >= 1"
          { eager with migration_batch = 0 };
        rejects "System.make: elastic periods must be positive"
          { eager with control_interval_ns = 0.0 };
        rejects "System.make: elastic periods must be positive"
          { eager with control_interval_ns = Float.nan };
        rejects "System.make: elastic periods must be positive"
          { eager with transfer_ns = Float.nan };
        rejects "System.make: elastic periods must be positive"
          { eager with cooldown_ns = -1.0 };
        rejects "System.make: elastic periods must be finite"
          { eager with control_interval_ns = Float.infinity };
        rejects "System.make: elastic periods must be finite"
          { eager with migration_deadline_ns = Float.infinity });
    Alcotest.test_case "health shows standby and migrating cores; ledger balances"
      `Quick (fun () ->
        let plan = Oracle.plan_of Oracle.tag_text in
        let saw_standby = ref false and saw_migrating = ref false in
        let saw_in_flight = ref false in
        let stop (sys : Nfp_sim.Harness.system) =
          let h = sys.health () in
          List.iter
            (fun (c : Nfp_sim.Harness.core_health) ->
              if c.state = "standby" then saw_standby := true;
              if c.state = "migrating" then saw_migrating := true)
            h.cores;
          if h.migrating > 0 then saw_in_flight := true;
          false
        in
        let _, rr =
          Oracle.observe ~elastic:eager ~nfs:Oracle.tag_nfs ~stop ~plan
            ~bindings:Oracle.tag_bindings ~arrivals:spiky ~packets:3000 ()
        in
        check Alcotest.bool "a standby core was visible" true !saw_standby;
        check Alcotest.bool "a quiesced source reported migrating" true !saw_migrating;
        check Alcotest.bool "the migrating gauge filled mid-flip" true !saw_in_flight;
        check Alcotest.int "gauge empty at end of run" 0 rr.health.migrating;
        check Alcotest.int "every offered packet accounted" rr.offered
          (rr.completed + rr.ring_drops + rr.nf_drops + rr.unmatched + rr.shed));
  ]

(* ------------------------------------------------------------------ *)
(* Crash plans landing mid-migration                                   *)
(* ------------------------------------------------------------------ *)

(* Long freeze windows spread migrations across most of the surge, so a
   fixed-time fault lands inside one; the runs are deterministic, so
   each scenario replays identically every time. *)
let churny = { eager with transfer_ns = 40_000.0; cooldown_ns = 10_000.0 }

let fault_tests =
  [
    Alcotest.test_case "source crash mid-migration: aborted, recovered, trace intact"
      `Quick (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:300_000.0 "mid1:tag" ])
        in
        let rr = equivalence ~fault ~elastic:churny () in
        check Alcotest.int "crash took effect" 1 rr.health.crashes;
        check Alcotest.bool "controller still scaled" true (rr.health.scale_outs >= 1));
    Alcotest.test_case "destination crash mid-migration: aborted, trace intact" `Quick
      (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:280_000.0 "mid1:tag@1" ])
        in
        let rr = equivalence ~fault ~elastic:churny () in
        check Alcotest.int "crash took effect" 1 rr.health.crashes);
    Alcotest.test_case "controller crash mid-migration: commits abort, trace intact"
      `Quick (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:260_000.0 "elastic" ])
        in
        let rr = equivalence ~fault ~elastic:churny () in
        (* A commit firing inside the controller outage must roll back
           rather than flip half a migration. *)
        check Alcotest.bool "the outage aborted an in-flight migration" true
          (rr.health.migration_aborts >= 1));
    Alcotest.test_case "controller hang: scale decisions stop, trace intact" `Quick
      (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan
               [ Nfp_sim.Fault.hang ~at_ns:250_000.0 ~duration_ns:400_000.0 "elastic" ])
        in
        ignore (equivalence ~fault ~elastic:churny ()));
    Alcotest.test_case "crashes on every party at once still converge" `Quick (fun () ->
        let fault =
          Oracle.lossless_fault
            (Nfp_sim.Fault.plan
               [
                 Nfp_sim.Fault.crash ~at_ns:220_000.0 "mid1:tag";
                 Nfp_sim.Fault.crash ~at_ns:300_000.0 "mid1:tag@2";
                 Nfp_sim.Fault.crash ~at_ns:380_000.0 "elastic";
                 Nfp_sim.Fault.crash ~at_ns:450_000.0 "mid1:mon";
               ])
        in
        let rr = equivalence ~fault ~elastic:churny ~packets:4000 () in
        check Alcotest.bool "crashes took effect" true (rr.health.crashes >= 2));
    Alcotest.test_case "deadline rollback: a jammed destination aborts to the old map"
      `Quick (fun () ->
        (* Tiny rings keep the destination full past the deadline; no
           equivalence claim (the tiny NIC ring drops at entry), but the
           ledger must balance and the aborts must be counted. *)
        let tight = { Sys.default_config with ring_capacity = 8 } in
        (* batch = 2 keeps bucket ownership spread across replicas, so
           rebalance migrations target peers whose rings are already
           jammed by the overload — the commit retries past the
           deadline and falls back to the old map. *)
        let jammed =
          {
            eager with
            buckets = 8;
            migration_batch = 2;
            scale_out_occupancy = 0.3;
            transfer_ns = 5_000.0;
            migration_deadline_ns = 12_000.0;
            commit_retry_ns = 3_000.0;
          }
        in
        let plan = Oracle.plan_of Oracle.tag_text in
        let _, rr =
          Oracle.observe ~elastic:jammed ~config:tight ~nfs:Oracle.tag_nfs ~plan
            ~bindings:Oracle.tag_bindings
            ~arrivals:(Nfp_sim.Harness.Uniform 16.0) ~packets:2500 ()
        in
        check Alcotest.bool "at least one migration aborted" true
          (rr.health.migration_aborts >= 1);
        check Alcotest.bool "the system kept delivering" true (rr.completed > 0);
        check Alcotest.int "nothing wedged in flight" 0 rr.in_flight);
    Alcotest.test_case "a frozen source never trips the watchdog or the breaker"
      `Quick (fun () ->
        (* Freeze windows far past the watchdog deadline: a quiesced
           core has queued work and makes no progress, which only the
           migration-awareness keeps from being declared dead. *)
        let slow = { eager with transfer_ns = 300_000.0; cooldown_ns = 5_000.0 } in
        let fault =
          {
            (Oracle.lossless_fault Nfp_sim.Fault.empty) with
            breaker_threshold = 1;
            watchdog_deadline_ns = 60_000.0;
          }
        in
        let rr = equivalence ~fault ~elastic:slow () in
        check Alcotest.bool "migrations ran with long freezes" true
          (rr.health.migrations >= 1);
        check Alcotest.int "no false detections" 0 rr.health.detections;
        check Alcotest.int "no false restarts" 0 rr.health.restarts;
        check Alcotest.int "no breaker trips" 0 rr.health.breaker_trips);
  ]

(* ------------------------------------------------------------------ *)
(* Property: random policy x replica schedule x crash plan converge    *)
(* ------------------------------------------------------------------ *)

let random_case_gen =
  QCheck.Gen.(
    let* max_replicas = int_range 2 3 in
    let* buckets = int_range 8 24 in
    let* batch = int_range 1 8 in
    let* transfer = float_range 5_000.0 50_000.0 in
    let* out_occ = float_range 0.001 0.01 in
    let* spike = float_range 30.0 60.0 in
    (* 0-2 faults on random parties: replica cores or the controller. *)
    let* faults =
      list_size (int_range 0 2)
        (triple (int_range 0 3) bool (float_range 150_000.0 600_000.0))
    in
    return (max_replicas, buckets, batch, transfer, out_occ, spike, faults))

let random_case_arbitrary =
  QCheck.make
    ~print:(fun (mr, nb, batch, transfer, out_occ, spike, faults) ->
      Printf.sprintf "max %d; buckets %d; batch %d; transfer %.0f; out %.4f; x%.1f; %s"
        mr nb batch transfer out_occ spike
        (String.concat ","
           (List.map
              (fun (site, hang, t) ->
                Printf.sprintf "%d%s@%.0f" site (if hang then "h" else "c") t)
              faults)))
    random_case_gen

(* One generated case: the static fault-free run and the elastic run
   under its crash plan, which must deliver exactly what the static run
   delivers, and drain. *)
let runs (max_replicas, buckets, batch, transfer, out_occ, spike, faults) =
  let elastic =
    {
      eager with
      max_replicas;
      buckets;
      migration_batch = batch;
      transfer_ns = transfer;
      scale_out_occupancy = out_occ;
      scale_in_occupancy = out_occ /. 10.0;
    }
  in
  let site = function
    | 0 -> "mid1:tag"
    | 1 -> "mid1:tag@1"
    | 2 -> Printf.sprintf "mid1:tag@%d" (max_replicas - 1)
    | _ -> "elastic"
  in
  let plan_events =
    List.map
      (fun (s, hang, at_ns) ->
        if hang then Nfp_sim.Fault.hang ~at_ns ~duration_ns:150_000.0 (site s)
        else Nfp_sim.Fault.crash ~at_ns (site s))
      faults
  in
  let fault = Oracle.lossless_fault (Nfp_sim.Fault.plan plan_events) in
  let arrivals =
    Nfp_sim.Harness.Surge
      (Nfp_sim.Fault.surge ~base_mpps:0.4
         [ Nfp_sim.Fault.Spike { at_ns = 0.0; duration_ns = 120_000.0; factor = spike } ])
  in
  let run ?fault ?elastic () =
    fst
      (Oracle.observe ?fault ?elastic ~nfs:Oracle.tag_nfs ~plan:(Oracle.plan_of Oracle.tag_text)
         ~bindings:Oracle.tag_bindings ~arrivals ~packets:2500 ())
  in
  (run (), run ~fault ~elastic ())

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8
         ~name:"elastic + crashed runs converge with the static fault-free run"
         random_case_arbitrary (fun case ->
           let baseline, scaled = runs case in
           Oracle.converges baseline scaled));
  ]

let converges_and_drains case =
  let baseline, scaled = runs case in
  Oracle.check_equivalent "converges and drains" baseline scaled

let regression_tests =
  [
    (* The first case QCHECK_SEED=7 generates. Replica mid1:tag@2
       crashes while it is the draining replica; the controller may not
       move a drain off a dead source, the watchdog never restarts a core
       with an empty queue, and a controller that kept counting the
       stalled drain as pending ticked forever after the last packet. *)
    Alcotest.test_case "a crashed draining replica lets the run end" `Quick (fun () ->
        converges_and_drains
          ( 3, 18, 5, 39847.041807889538, 0.001032024507556426, 53.91063208504103,
            [ (2, false, 286845.19587366818); (1, true, 498324.51393255126) ] ));
    (* The fourth case QCHECK_SEED=79 generates. Replica mid1:tag (0)
       crashes with an empty queue after the surge, while replica 1
       drains toward it: the drain's only possible destination is dead,
       and a controller that counted the drain as pending anyway ticked
       forever. *)
    Alcotest.test_case "a drain whose only destination is dead lets the run end" `Quick
      (fun () ->
        converges_and_drains
          ( 3, 19, 2, 41733.540332376717, 0.0075622762603990284, 55.642156446066224,
            [ (0, false, 596794.38000890496) ] ));
    (* The seventh case QCHECK_SEED=64 generates: two replicas, the
       receiving one crashed, the same stalled drain. *)
    Alcotest.test_case "a two-replica drain onto a crashed replica lets the run end"
      `Quick (fun () ->
        converges_and_drains
          ( 2, 8, 1, 22547.849378158622, 0.0099261107393808327, 57.656274505049623,
            [ (0, false, 241612.19803434663); (3, false, 461802.89177056536) ] ));
  ]

let () =
  Alcotest.run "nfp_elastic"
    [
      ("unit", unit_tests);
      ("differential", differential_tests);
      ("faults", fault_tests);
      ("property", property_tests);
      ("regression", regression_tests);
    ]
