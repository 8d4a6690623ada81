(* Lossy interconnect fault domain + reliable channel layer: every
   inter-core edge can be promoted to a modeled link with seeded fault
   processes (loss, duplication, bounded reordering, Gilbert-Elliott
   burst loss, partition windows), and an opt-in ARQ channel layer
   (seq/ack, NACK/RTO retransmit with backoff and budget, bounded
   reorder buffer, receiver dedup, health probes + partition reroute)
   must make delivery over that fabric indistinguishable from a
   lossless run: same delivery multiset, same bytes, same NF state
   digests. A partition mid-run must cost zero delivered packets —
   unacked traffic detours around the Down link. *)

open Nfp_packet
open Nfp_core
module Sys = Nfp_infra.System
module F = Nfp_sim.Fault

let check = Alcotest.check

let links specs = { Sys.default_links_config with link_plan = F.link_plan specs }

(* ------------------------------------------------------------------ *)
(* Harness                                                             *)
(* ------------------------------------------------------------------ *)

let steady = Nfp_sim.Harness.Uniform 0.5

(* Run the linked deployment against the link-free baseline, hold it to
   the oracle, and hand back the linked run's ledger. *)
let equivalence ?fault ?replicas ~links:lc ?(text = Oracle.tag_text)
    ?(bindings = Oracle.tag_bindings) ?(nfs = Oracle.tag_nfs) ?(arrivals = steady)
    ?(packets = 2000) () =
  let plan = Oracle.plan_of text in
  let run ?fault ?links () =
    Oracle.observe ?fault ?links ?replicas ~nfs ~plan ~bindings ~arrivals ~packets ()
  in
  let baseline, _ = run () and lossy, rr = run ?fault ~links:lc () in
  Oracle.check_equivalent "lossy run" baseline lossy;
  rr

let link_taxonomy (r : Nfp_sim.Harness.result) = r.health.links

(* ------------------------------------------------------------------ *)
(* Unit: the fault-domain primitives                                   *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    Alcotest.test_case "link_for resolves exact names, prefixes and the wildcard"
      `Quick (fun () ->
        let plan =
          F.link_plan
            [
              F.loss ~probability:0.5 "mid1:tag";
              F.jumble ~probability:0.1 ~span_ns:500.0 "mid1:*";
              F.duplicate ~probability:0.1 "*";
            ]
        in
        let faults name =
          match F.link_for plan name with
          | None -> 0
          | Some st -> List.length st.F.l_faults
        in
        (* exact + prefix + wildcard stack up *)
        check Alcotest.int "mid1:tag collects all three" 3 (faults "mid1:tag");
        check Alcotest.int "mid1:mon matches prefix + wildcard" 2 (faults "mid1:mon");
        check Alcotest.int "merger#0 matches only the wildcard" 1 (faults "merger#0");
        let narrow = F.link_plan [ F.loss ~probability:0.5 "mid1:tag" ] in
        check Alcotest.bool "unmatched port carries a perfect fabric" true
          (F.link_for narrow "mid2:tag" = None);
        check Alcotest.bool "no_links is empty" true (F.links_empty F.no_links));
    Alcotest.test_case "transit extremes: certain loss drops, no faults pass" `Quick
      (fun () ->
        let sure = F.link_plan [ F.loss ~probability:1.0 "a" ] in
        let st = Option.get (F.link_for sure "a") in
        for i = 0 to 99 do
          check Alcotest.bool "p=1 loss always drops" true
            (F.transit st ~now_ns:(float_of_int i) = F.T_drop)
        done;
        let off = F.link_plan [ F.loss ~probability:0.0 "a" ] in
        let st = Option.get (F.link_for off "a") in
        for i = 0 to 99 do
          check Alcotest.bool "p=0 loss always passes" true
            (F.transit st ~now_ns:(float_of_int i) = F.T_pass)
        done);
    Alcotest.test_case "partition windows are pure in time" `Quick (fun () ->
        let plan =
          F.link_plan
            [ F.flapping ~at_ns:100.0 ~down_ns:50.0 ~up_ns:50.0 ~cycles:2 "a" ]
        in
        let st = Option.get (F.link_for plan "a") in
        let down t = F.link_partitioned st ~now_ns:t in
        check Alcotest.bool "before the first window" false (down 50.0);
        check Alcotest.bool "inside the first window" true (down 120.0);
        check Alcotest.bool "healed between cycles" false (down 170.0);
        check Alcotest.bool "inside the second window" true (down 220.0);
        check Alcotest.bool "after the last cycle" false (down 280.0);
        (* probing the window must not perturb the loss stream: the
           partition check draws nothing *)
        check Alcotest.bool "a partition transit drops" true
          (F.transit st ~now_ns:120.0 = F.T_drop));
    Alcotest.test_case "invalid links configs are rejected" `Quick (fun () ->
        let plan = Oracle.plan_of Oracle.tag_text in
        let lookup = Oracle.tag_nfs Oracle.tag_bindings in
        let rejects msg lc =
          Alcotest.check_raises msg (Invalid_argument msg) (fun () ->
              let engine = Nfp_sim.Engine.create () in
              ignore
                (Sys.make ~links:lc ~plan ~nfs:lookup engine
                   ~output:(fun ~pid:_ _ -> ())))
        in
        let lossy = links [ F.loss ~probability:0.01 "*" ] in
        rejects "System.make: links periods must be positive"
          { lossy with ack_interval_ns = 0.0 };
        rejects "System.make: links periods must be positive"
          { lossy with rto_ns = 0.0 };
        rejects "System.make: links periods must be positive"
          { lossy with ack_interval_ns = Float.nan };
        rejects "System.make: links periods must be positive"
          { lossy with rto_ns = Float.nan };
        rejects "System.make: links periods must be finite"
          { lossy with rto_ns = Float.infinity });
    Alcotest.test_case "stacked link faults draw their pinned verdicts" `Quick
      (fun () ->
        (* Burst + Loss + Duplicate + Jumble on one link, plus a
           partition window over transits 300-349: the first 1000
           verdicts, one char each ('.' pass, 'x' drop, 'd' duplicate,
           'j' delay), and an FNV-1a digest of the same sequence with
           every gap and delay in hex. Any change to the order or number
           of draws shows here long before it moves a BENCH figure. *)
        let plan =
          F.link_plan ~seed:7L
            [
              {
                F.link = "stack";
                faults =
                  [
                    F.Burst { p_enter = 0.05; p_exit = 0.3; drop = 0.5 };
                    F.Loss { probability = 0.05 };
                    F.Duplicate { probability = 0.1; gap_ns = 200.0 };
                    F.Jumble { probability = 0.1; span_ns = 1000.0 };
                    F.Partition { at_ns = 300.0; duration_ns = 50.0 };
                  ];
              };
            ]
        in
        let st = Option.get (F.link_for plan "stack") in
        let kinds = Buffer.create 1000 and detail = Buffer.create 4000 in
        for i = 0 to 999 do
          let k, d =
            match F.transit st ~now_ns:(float_of_int i) with
            | F.T_pass -> ('.', ".")
            | F.T_drop -> ('x', "x")
            | F.T_pass_dup g -> ('d', Printf.sprintf "d%h" g)
            | F.T_delay d -> ('j', Printf.sprintf "j%h" d)
          in
          Buffer.add_char kinds k;
          Buffer.add_string detail d
        done;
        let pinned =
          String.concat ""
            [
              ".j.......d.x.....j.j...j........d....j.........j.j.x.xx.........j.....d..j...........jjdj....d..jjxx";
              "xxxxdx....jx.j.j.....xjxxx.x...x...dd......dx..xx...d.xxx....d.........d.....j.x.....d.d...dj.x.xx..";
              "..d..x...d..........d.......xxx..x...d...d.........d............d.d....j...dd...dx.x..x..j........j.";
              "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx...d...d......dx.j.......d.j...jx..d....x.....x.jx";
              "....j..xdxj.....d...j.......xx...x.x.x.....dxjx.......d..xxx.xj.......jx......xdd....j........d....x";
              ".....j..j.....x...dj.xj....xj..jx.xx.j...j.....j...d...j....xjj......jxjxj.........d.x..j....x....dx";
              "....x.d...jjd..d....d.........dd.........j.jj......ddj....x......dj....j........x.x.....j..x.xxx...x";
              "d..j.d.j.d........x.......d.......j.j..............j...................d......jdj...x..j.d.....x..j.";
              ".jxx.j.....xx......j.d....j.d.......x..j.d.....j.d.....jj.d..d.........djx..j...j...d.....x.......x.";
              "..........jx.jx.j..x...........dxx.x..xx.....x..jx.d.d....d.d.x....j.....dj...d.d...x.............d.";
            ]
        in
        check Alcotest.string "verdict kinds" pinned (Buffer.contents kinds);
        check Alcotest.int "verdict digest" 3175680242
          (Nfp_algo.Hashing.fnv1a32 (Buffer.contents detail)));
  ]

(* ------------------------------------------------------------------ *)
(* Differential: lossy reliable runs match the link-free run           *)
(* ------------------------------------------------------------------ *)

let differential_tests =
  [
    Alcotest.test_case "links=None and a normalized empty config are bit-identical"
      `Quick (fun () ->
        let run ?links () =
          Oracle.observe ?links ~nfs:Oracle.tag_nfs ~plan:(Oracle.plan_of Oracle.tag_text)
            ~bindings:Oracle.tag_bindings ~arrivals:steady ~packets:1500 ()
        in
        let plain, _ = run () in
        (* an empty plan with reliable=false normalizes away entirely *)
        let a, ra = run ~links:{ Sys.default_links_config with reliable = false } () in
        (* a plan matching no port of this deployment builds no channel *)
        let b, _ = run ~links:(links [ F.loss ~probability:0.9 "nosuch:*" ]) () in
        Oracle.check_equivalent "normalized empty config: identical observation" plain a;
        Oracle.check_equivalent "unmatched plan: identical observation" plain b;
        check Alcotest.int "no taxonomy events"
          0
          (let l = link_taxonomy ra in
           l.link_drops + l.retransmits + l.duplicates_suppressed + l.reordered
           + l.partitions + l.reroutes));
    Alcotest.test_case "2% loss on every link: retransmission hides every drop"
      `Quick (fun () ->
        let rr = equivalence ~links:(links [ F.loss ~probability:0.02 "*" ]) () in
        let l = link_taxonomy rr in
        check Alcotest.bool "the fabric dropped transits" true (l.link_drops >= 1);
        check Alcotest.bool "the channels retransmitted" true (l.retransmits >= 1);
        check Alcotest.int "no partitions declared" 0 l.partitions);
    Alcotest.test_case "fabric duplicates are suppressed by the sequence filter"
      `Quick (fun () ->
        let rr =
          equivalence ~links:(links [ F.duplicate ~probability:0.05 "*" ]) ()
        in
        check Alcotest.bool "duplicates were consumed" true
          ((link_taxonomy rr).duplicates_suppressed >= 1));
    Alcotest.test_case "reordered transits are released in sequence order" `Quick
      (fun () ->
        let rr =
          equivalence
            ~links:(links [ F.jumble ~probability:0.1 ~span_ns:2_000.0 "*" ])
            ()
        in
        check Alcotest.bool "the fabric reordered transits" true
          ((link_taxonomy rr).reordered >= 1));
    Alcotest.test_case "Gilbert-Elliott burst loss is recovered" `Quick (fun () ->
        let rr =
          equivalence
            ~links:(links [ F.burst ~p_enter:0.02 ~p_exit:0.2 ~drop:0.7 "*" ])
            ()
        in
        check Alcotest.bool "bursts dropped transits" true
          ((link_taxonomy rr).link_drops >= 1));
    Alcotest.test_case "all fault processes at once, on a merging graph" `Quick
      (fun () ->
        let lc =
          links
            [
              F.loss ~probability:0.02 "*";
              F.duplicate ~probability:0.02 "*";
              F.jumble ~probability:0.05 ~span_ns:1_500.0 "*";
              F.burst ~p_enter:0.01 ~p_exit:0.3 ~drop:0.5 "merger#0";
            ]
        in
        let rr =
          equivalence ~links:lc ~text:Oracle.par_text ~bindings:Oracle.par_bindings
            ~nfs:Nfp_nf.Registry.instances ()
        in
        let l = link_taxonomy rr in
        check Alcotest.bool "drops happened" true (l.link_drops >= 1);
        check Alcotest.bool "recovery happened" true (l.retransmits >= 1));
    Alcotest.test_case "a sub-detection partition heals by retransmission alone"
      `Quick (fun () ->
        (* 8 us outage: shorter than the 3-probe detection horizon, so
           the link is never declared Down and even the digests match —
           the outage is indistinguishable from a loss burst. *)
        let rr =
          equivalence
            ~links:
              (links [ F.partition ~at_ns:1_000_000.0 ~duration_ns:8_000.0 "mid1:tag" ])
            ()
        in
        let l = link_taxonomy rr in
        check Alcotest.int "never declared Down" 0 l.partitions;
        check Alcotest.int "nothing rerouted" 0 l.reroutes;
        check Alcotest.bool "the outage dropped transits" true (l.link_drops >= 1));
    Alcotest.test_case "a long partition reroutes with zero delivered loss" `Quick
      (fun () ->
        (* 300 us outage on the tag core's ingress: probes declare the
           link Down, unacked and subsequent traffic detours around the
           NF, and when the window closes a later send re-opens the
           link. No byte/digest claim — the detour skips the NF — but
           not one offered packet may be lost. *)
        let plan = Oracle.plan_of Oracle.tag_text in
        let _, rr =
          Oracle.observe
            ~links:
              (links
                 [ F.partition ~at_ns:1_000_000.0 ~duration_ns:300_000.0 "mid1:tag" ])
            ~nfs:Oracle.tag_nfs ~plan ~bindings:Oracle.tag_bindings ~arrivals:steady
            ~packets:3000 ()
        in
        let l = link_taxonomy rr in
        check Alcotest.bool "the link was declared Down" true (l.partitions >= 1);
        check Alcotest.bool "traffic detoured around it" true (l.reroutes >= 1);
        check Alcotest.int "zero delivered-packet loss" rr.offered rr.completed;
        check Alcotest.int "nothing left in flight" 0 rr.in_flight;
        check Alcotest.bool "the link recovered after the window" true
          (rr.completed > l.reroutes));
    Alcotest.test_case "an infinite partition start or length is accepted" `Quick (fun () ->
        (* A partition at +inf never starts; one of infinite length is
           a permanent outage that every later send detours around.
           Both runs end at a finite time with every packet delivered. *)
        let plan = Oracle.plan_of Oracle.tag_text in
        List.iter
          (fun (what, at_ns, duration_ns) ->
            let _, rr =
              Oracle.observe
                ~links:(links [ F.partition ~at_ns ~duration_ns "*" ])
                ~nfs:Oracle.tag_nfs ~plan ~bindings:Oracle.tag_bindings ~arrivals:steady
                ~packets:400 ()
            in
            check Alcotest.bool (what ^ ": finite duration") true (Float.is_finite rr.duration_ns);
            check Alcotest.int (what ^ ": every packet delivered") rr.offered rr.completed)
          [
            ("never starts", Float.infinity, 100_000.0);
            ("permanent outage", 300_000.0, Float.infinity);
          ]);
    Alcotest.test_case "an ack pending when a partition takes the link Down keeps the \
                        run's duration" `Quick (fun () ->
        (* Jumbled transits drawn before the partition land inside it,
           so releases, and the acks they arm, go on until the probes
           declare the links Down. A pending ack is no engine event; the
           duration (the last event's time) is the one the run had when
           every ack was a timer. *)
        let plan = Oracle.plan_of Oracle.par_text in
        let _, rr =
          Oracle.observe
            ~links:
              (links
                 [
                   F.partition ~at_ns:396_000.0 ~duration_ns:100_000.0 "*";
                   F.jumble ~probability:0.6 ~span_ns:20_000.0 "*";
                 ])
            ~plan ~bindings:Oracle.par_bindings ~arrivals:steady ~packets:200 ()
        in
        check Alcotest.bool "links went Down" true ((link_taxonomy rr).partitions >= 1);
        check Alcotest.int "every packet delivered" rr.offered rr.completed;
        check (Alcotest.float 0.0) "duration_ns" 454200.13023382408 rr.duration_ns);
    Alcotest.test_case "raw fabric: drops are real losses, in the ledger residual"
      `Quick (fun () ->
        let plan = Oracle.plan_of Oracle.tag_text in
        let lc =
          { (links [ F.loss ~probability:0.05 "*" ]) with reliable = false }
        in
        let _, rr =
          Oracle.observe ~links:lc ~nfs:Oracle.tag_nfs ~plan ~bindings:Oracle.tag_bindings
            ~arrivals:steady ~packets:2000 ()
        in
        let l = link_taxonomy rr in
        check Alcotest.bool "the fabric dropped transits" true (l.link_drops >= 1);
        check Alcotest.int "no ARQ in raw mode" 0 (l.retransmits + l.reroutes);
        check Alcotest.bool "losses are real" true (rr.completed < rr.offered);
        (* the harness has already enforced the ledger; the raw losses
           sit in the in_flight residual *)
        check Alcotest.int "losses live in the residual" rr.in_flight
          (rr.offered - rr.completed - rr.ring_drops - rr.nf_drops - rr.unmatched
         - rr.shed);
        check Alcotest.bool "residual is exactly the loss count" true
          (rr.in_flight >= 1));
    Alcotest.test_case "a partitioned replica feeds the elastic controller" `Quick
      (fun () ->
        (* Scale-out wants to steer toward replica 1 while its ingress
           and transfer links are partitioned: the controller must stop
           migrating toward the unreachable replica (alive() consults
           the channel) and still lose nothing. *)
        let eager =
          {
            Sys.default_elastic_config with
            min_replicas = 1;
            max_replicas = 3;
            buckets = 24;
            control_interval_ns = 5_000.0;
            scale_out_occupancy = 0.002;
            scale_in_occupancy = 0.0002;
            migration_batch = 6;
            transfer_ns = 10_000.0;
            cooldown_ns = 20_000.0;
          }
        in
        let spiky =
          Nfp_sim.Harness.Surge
            (F.surge ~base_mpps:0.4
               [ F.Spike { at_ns = 0.0; duration_ns = 120_000.0; factor = 50.0 } ])
        in
        let lc =
          links
            [
              F.partition ~at_ns:20_000.0 ~duration_ns:400_000.0 "mid1:tag@1";
              F.partition ~at_ns:20_000.0 ~duration_ns:400_000.0 "migrate:mid1:tag@1";
            ]
        in
        let plan = Oracle.plan_of Oracle.tag_text in
        let _, rr =
          Oracle.observe ~links:lc ~elastic:eager ~nfs:Oracle.tag_nfs ~plan
            ~bindings:Oracle.tag_bindings ~arrivals:spiky ~packets:3000 ()
        in
        check Alcotest.int "zero delivered-packet loss" rr.offered rr.completed;
        check Alcotest.int "nothing left in flight" 0 rr.in_flight;
        check Alcotest.int "nothing flushed" 0 rr.health.drops.flush_lost);
  ]

(* ------------------------------------------------------------------ *)
(* Regressions: the satellite interactions                             *)
(* ------------------------------------------------------------------ *)

let regression_tests =
  [
    Alcotest.test_case "dedup tables stay bounded through a lossy merging run"
      `Quick (fun () ->
        (* Capacity 64 against thousands of completions: without
           generational pruning the delivery filter and the merger's
           completed-merge memory grow with the run. Equivalence must
           survive the pruning — retransmissions land well inside the
           capacity/2 survival window. *)
        let fault =
          { Sys.default_fault_config with dedup_capacity = 64; merge_timeout_ns = 0.0 }
        in
        let lc =
          links
            [ F.loss ~probability:0.02 "*"; F.duplicate ~probability:0.02 "*" ]
        in
        let rr =
          equivalence ~fault ~links:lc ~text:Oracle.par_text ~bindings:Oracle.par_bindings
            ~nfs:Nfp_nf.Registry.instances ~packets:3000 ()
        in
        check Alcotest.bool "dedup gauge pinned by the bound" true
          (rr.health.dedup_entries <= 2 * 64);
        check Alcotest.bool "the tables were exercised" true
          (rr.health.dedup_entries > 0));
    Alcotest.test_case "overload sheds and raw link drops land in disjoint buckets"
      `Quick (fun () ->
        (* Overload shedding (deliberate, priority-ordered, at
           admission) and raw fabric loss (accidental, in flight) must
           never be conflated: sheds in [shed], link losses in the
           in_flight residual, and the ledger balances with both at
           once. Two chains of different admission class — only the
           lower one is sheddable. *)
        let graphs =
          List.map
            (fun cls ->
              let name = Printf.sprintf "fw%d" cls in
              let graph = Graph.nf name in
              let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
              let plan =
                match Tables.plan ~profile_of ~priority:cls graph with
                | Ok p -> p
                | Error e -> Alcotest.failf "plan: %s" e
              in
              let nf = fst (Nfp_nf.Firewall.create ~name ~extra_cycles:800 ()) in
              ( Flow_match.make ~dport_range:(1000 + cls, 1000 + cls) (),
                plan,
                fun _ -> nf ))
            [ 0; 1 ]
        in
        let gen =
          let flows =
            Array.init 2 (fun cls ->
                Flow.make
                  ~sip:(Option.get (Flow.ip_of_string "10.0.0.1"))
                  ~dip:(Option.get (Flow.ip_of_string "10.0.0.2"))
                  ~sport:(5000 + cls) ~dport:(1000 + cls) ~proto:6)
          in
          fun i ->
            Packet.create ~flow:flows.(i mod 2) ~payload:(String.make 18 'x') ()
        in
        let lc =
          { (links [ F.loss ~probability:0.04 "*" ]) with reliable = false }
        in
        let tight =
          { Nfp_infra.Overload.high_watermark = 32; low_watermark = 8; degrade_enabled = false }
        in
        let make engine ~output =
          Sys.make_multi ~links:lc ~overload:tight ~graphs engine ~output
        in
        let rr =
          Nfp_sim.Harness.run ~make ~gen
            ~arrivals:(Nfp_sim.Harness.Uniform 20.0) ~packets:6000 ()
        in
        check Alcotest.bool "the controller shed under overload" true (rr.shed >= 1);
        check Alcotest.bool "the raw fabric dropped transits" true
          ((link_taxonomy rr).link_drops >= 1);
        check Alcotest.bool "losses are in the residual, not the shed bucket" true
          (rr.in_flight >= 1);
        check Alcotest.int "every offered packet accounted" rr.offered
          (rr.completed + rr.ring_drops + rr.nf_drops + rr.unmatched + rr.shed
         + rr.in_flight));
    Alcotest.test_case "a late retransmission loses the race with merge_timeout"
      `Quick (fun () ->
        (* A branch lost on the merger link, a 10 us merge timeout and
           a >= 50 us recovery horizon: the merger nil-substitutes and
           completes first, so when the retransmitted branch finally
           lands it must be consumed by the completed-merge memory —
           never merged twice, never delivered twice. *)
        let lc =
          {
            (links [ F.loss ~probability:0.3 "merger#0" ]) with
            ack_interval_ns = 50_000.0;
            rto_ns = 50_000.0;
          }
        in
        let fault = { Sys.default_fault_config with merge_timeout_ns = 10_000.0 } in
        let plan = Oracle.plan_of Oracle.par_text in
        let obs, rr =
          Oracle.observe ~links:lc ~fault ~plan ~bindings:Oracle.par_bindings ~arrivals:steady
            ~packets:1500 ()
        in
        check Alcotest.bool "merges timed out" true (rr.health.drops.merge_timed_out >= 1);
        check Alcotest.bool "late retransmissions were deduped" true
          (rr.health.deduped >= 1);
        check Alcotest.int "every packet completed exactly once" rr.offered
          rr.completed;
        check Alcotest.int "nothing left in flight" 0 rr.in_flight;
        (* one delivery per pid: the dedup layer kept the race off the
           output *)
        let pids = List.sort compare (List.map fst obs.outs) in
        check Alcotest.bool "delivered pids are unique" true
          (List.sort_uniq compare pids = pids));
  ]

(* ------------------------------------------------------------------ *)
(* Property: random link plans x crash plans x replicas converge       *)
(* ------------------------------------------------------------------ *)

let random_case_gen =
  QCheck.Gen.(
    let* loss_p = float_range 0.0 0.04 in
    let* dup_p = float_range 0.0 0.02 in
    let* jumble_p = float_range 0.0 0.08 in
    let* span = float_range 300.0 3_000.0 in
    let* bursty = bool in
    let* replicas = int_range 1 2 in
    let* crash = option (float_range 200_000.0 800_000.0) in
    return (loss_p, dup_p, jumble_p, span, bursty, replicas, crash))

let random_case_arbitrary =
  QCheck.make
    ~print:(fun (loss_p, dup_p, jumble_p, span, bursty, replicas, crash) ->
      Printf.sprintf "loss %.3f; dup %.3f; jumble %.3f/%.0fns; burst %b; x%d; %s"
        loss_p dup_p jumble_p span bursty replicas
        (match crash with None -> "no crash" | Some t -> Printf.sprintf "crash@%.0f" t))
    random_case_gen

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8
         ~name:"lossy reliable runs converge with the link-free run"
         random_case_arbitrary
         (fun (loss_p, dup_p, jumble_p, span, bursty, replicas, crash) ->
           let specs =
             [
               F.loss ~probability:loss_p "*";
               F.duplicate ~probability:dup_p "*";
               F.jumble ~probability:jumble_p ~span_ns:span "*";
             ]
             @
             if bursty then
               [ F.burst ~p_enter:0.01 ~p_exit:0.3 ~drop:0.5 "*" ]
             else []
           in
           let fault =
             match crash with
             | None -> None
             | Some at_ns ->
                 Some (Oracle.lossless_fault (F.plan [ F.crash ~at_ns "mid1:tag" ]))
           in
           let run ?fault ?links () =
             fst
               (Oracle.observe ?fault ?links ~replicas ~nfs:Oracle.tag_nfs
                  ~plan:(Oracle.plan_of Oracle.tag_text) ~bindings:Oracle.tag_bindings
                  ~arrivals:steady ~packets:2000 ())
           in
           Oracle.converges (run ()) (run ?fault ~links:(links specs) ())));
  ]

let () =
  Alcotest.run "nfp_links"
    [
      ("unit", unit_tests);
      ("differential", differential_tests);
      ("regression", regression_tests);
      ("property", property_tests);
    ]
