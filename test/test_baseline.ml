(* Tests for nfp_baseline: the OpenNetVM-style pipeline and the
   BESS-style run-to-completion model. *)

open Nfp_packet

let check = Alcotest.check

let ip s = Option.get (Flow.ip_of_string s)

let gen i =
  Packet.create
    ~flow:
      (Flow.make ~sip:(ip "10.0.1.1") ~dip:(ip "10.8.2.10")
         ~sport:(10000 + (i mod 1000))
         ~dport:61080 ~proto:6)
    ~payload:"PAYLOAD-XY" ()

let run ~make ~arrivals ~packets =
  Nfp_sim.Harness.run ~make ~gen ~arrivals ~packets ()

let fw_chain n () =
  List.init n (fun i -> fst (Nfp_nf.Firewall.create ~name:(Printf.sprintf "fw%d" i) ()))

let onvm_tests =
  [
    Alcotest.test_case "delivers everything below capacity" `Quick (fun () ->
        let make engine ~output =
          Nfp_baseline.Opennetvm.make ~nfs:(fw_chain 3 ()) engine ~output
        in
        let r = run ~make ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:1000 in
        check Alcotest.int "delivered" 1000 r.delivered;
        check Alcotest.int "no loss" 0 r.ring_drops);
    Alcotest.test_case "NF drops are counted, not lost" `Quick (fun () ->
        let deny_all () = [ fst (Nfp_nf.Firewall.create ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()) ] in
        let make engine ~output = Nfp_baseline.Opennetvm.make ~nfs:(deny_all ()) engine ~output in
        let r = run ~make ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:200 in
        check Alcotest.int "all dropped by the NF" 200 r.nf_drops;
        check Alcotest.int "none delivered" 0 r.delivered);
    Alcotest.test_case "overload drops at the manager's RX" `Quick (fun () ->
        let make engine ~output =
          Nfp_baseline.Opennetvm.make ~nfs:(fw_chain 1 ()) engine ~output
        in
        let r = run ~make ~arrivals:(Nfp_sim.Harness.Uniform 14.0) ~packets:5000 in
        check Alcotest.bool "drops" true (r.ring_drops > 0);
        check Alcotest.int "conserved" 5000 (r.delivered + r.ring_drops + r.nf_drops));
    Alcotest.test_case "throughput is switch-bound and flat in chain length" `Quick
      (fun () ->
        (* Table 4: OpenNetVM holds ~9.4 Mpps for 1-3 firewall NFs. *)
        let max_rate n =
          Nfp_sim.Harness.max_lossless_mpps
            ~make:(fun engine ~output ->
              Nfp_baseline.Opennetvm.make ~nfs:(fw_chain n ()) engine ~output)
            ~gen ~packets:8000 ~hi:14.88 ~iterations:8 ()
        in
        let r1 = max_rate 1 and r3 = max_rate 3 in
        if r1 < 8.0 || r1 > 11.0 then Alcotest.failf "1-NF rate %.2f off Table 4" r1;
        if abs_float (r1 -. r3) /. r1 > 0.15 then
          Alcotest.failf "rates not flat: %.2f vs %.2f" r1 r3);
    Alcotest.test_case "latency grows with chain length" `Quick (fun () ->
        let latency n =
          let make engine ~output =
            Nfp_baseline.Opennetvm.make ~nfs:(fw_chain n ()) engine ~output
          in
          let r = run ~make ~arrivals:(Nfp_sim.Harness.Burst (5.0, 32)) ~packets:6000 in
          Nfp_algo.Stats.mean r.latency
        in
        let l1 = latency 1 and l4 = latency 4 in
        if l4 <= l1 then Alcotest.failf "latency did not grow: %.0f vs %.0f" l1 l4);
  ]

let bess_tests =
  [
    Alcotest.test_case "processes the whole chain per packet" `Quick (fun () ->
        let monitors = ref [] in
        let chain () =
          let mon, stats = Nfp_nf.Monitor.create () in
          monitors := stats :: !monitors;
          [ mon ]
        in
        let make engine ~output = Nfp_baseline.Bess.make ~cores:2 ~chain engine ~output in
        let r = run ~make ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:400 in
        check Alcotest.int "delivered" 400 r.delivered;
        let total =
          List.fold_left (fun acc s -> acc + s.Nfp_nf.Monitor.total_packets ()) 0 !monitors
        in
        check Alcotest.int "replicas saw everything once" 400 total;
        check Alcotest.int "one chain per core" 2 (List.length !monitors));
    Alcotest.test_case "RSS spreads flows across replicas" `Quick (fun () ->
        let counts = ref [] in
        let chain () =
          let mon, stats = Nfp_nf.Monitor.create () in
          counts := stats :: !counts;
          [ mon ]
        in
        let make engine ~output = Nfp_baseline.Bess.make ~cores:4 ~chain engine ~output in
        ignore (run ~make ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:2000);
        let used =
          List.filter (fun s -> s.Nfp_nf.Monitor.total_packets () > 0) !counts
        in
        check Alcotest.bool "several replicas used" true (List.length used >= 3));
    Alcotest.test_case "reaches line rate with enough cores (Table 4)" `Quick (fun () ->
        let make engine ~output =
          Nfp_baseline.Bess.make ~cores:5 ~chain:(fw_chain 3) engine ~output
        in
        let rate =
          Nfp_sim.Harness.max_lossless_mpps ~make ~gen ~packets:8000 ~hi:14.88
            ~iterations:6 ()
        in
        if rate < 14.0 then Alcotest.failf "BESS rate %.2f below line rate" rate);
    Alcotest.test_case "dropping NFs stop the run-to-completion chain" `Quick (fun () ->
        let chain () =
          [
            fst (Nfp_nf.Firewall.create ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ());
            fst (Nfp_nf.Monitor.create ());
          ]
        in
        let make engine ~output = Nfp_baseline.Bess.make ~cores:1 ~chain engine ~output in
        let r = run ~make ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:100 in
        check Alcotest.int "all dropped" 100 r.nf_drops);
    Alcotest.test_case "throughput scales with replica cores" `Quick (fun () ->
        (* An IDS-heavy chain: one core saturates well below line rate,
           three cores roughly triple it (Table 4's RTC scaling). *)
        let chain () = [ fst (Nfp_nf.Ids.create ()) ] in
        let rate cores =
          Nfp_sim.Harness.max_lossless_mpps
            ~make:(fun engine ~output -> Nfp_baseline.Bess.make ~cores ~chain engine ~output)
            ~gen ~packets:8000 ~hi:14.88 ~iterations:7 ()
        in
        let r1 = rate 1 and r3 = rate 3 in
        let ratio = r3 /. r1 in
        if ratio < 2.2 || ratio > 3.5 then
          Alcotest.failf "scaling ratio %.2f outside [2.2, 3.5]" ratio);
    Alcotest.test_case "zero cores rejected" `Quick (fun () ->
        let engine = Nfp_sim.Engine.create () in
        Alcotest.check_raises "cores" (Invalid_argument "Bess.make: need at least one core")
          (fun () ->
            ignore
              (Nfp_baseline.Bess.make ~cores:0 ~chain:(fw_chain 1) engine
                 ~output:(fun ~pid:_ _ -> ()))));
  ]

let comparison_tests =
  [
    Alcotest.test_case "Table 4 ordering: BESS > NFP > OpenNetVM throughput" `Quick
      (fun () ->
        let gen64 = gen in
        let onvm =
          Nfp_sim.Harness.max_lossless_mpps
            ~make:(fun engine ~output ->
              Nfp_baseline.Opennetvm.make ~nfs:(fw_chain 2 ()) engine ~output)
            ~gen:gen64 ~packets:8000 ~hi:14.88 ~iterations:7 ()
        in
        let bess =
          Nfp_sim.Harness.max_lossless_mpps
            ~make:(fun engine ~output ->
              Nfp_baseline.Bess.make ~cores:4 ~chain:(fw_chain 2) engine ~output)
            ~gen:gen64 ~packets:8000 ~hi:14.88 ~iterations:7 ()
        in
        let nfp =
          let graph =
            Nfp_core.Graph.seq [ Nfp_core.Graph.nf "fw0"; Nfp_core.Graph.nf "fw1" ]
          in
          let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
          let plan =
            match Nfp_core.Tables.plan ~profile_of graph with
            | Ok p -> p
            | Error e -> Alcotest.fail e
          in
          Nfp_sim.Harness.max_lossless_mpps
            ~make:(fun engine ~output ->
              let lookup =
                let l = fw_chain 2 () in
                fun n -> List.find (fun (x : Nfp_nf.Nf.t) -> x.name = n) l
              in
              Nfp_infra.System.make ~plan ~nfs:lookup engine ~output)
            ~gen:gen64 ~packets:8000 ~hi:14.88 ~iterations:7 ()
        in
        if not (bess > nfp && nfp > onvm) then
          Alcotest.failf "ordering violated: bess %.2f nfp %.2f onvm %.2f" bess nfp onvm);
  ]

let () =
  Alcotest.run "nfp_baseline"
    [ ("opennetvm", onvm_tests); ("bess", bess_tests); ("comparison", comparison_tests) ]
