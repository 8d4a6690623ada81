(* Tests for nfp_traffic: size distributions, the packet generator, and
   the §6.4 replay harness. *)

open Nfp_traffic

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Size_dist                                                           *)
(* ------------------------------------------------------------------ *)

let size_tests =
  [
    Alcotest.test_case "datacenter mean matches the paper's 724B" `Quick (fun () ->
        let m = Size_dist.mean Size_dist.datacenter in
        if abs_float (m -. 724.0) > 15.0 then Alcotest.failf "mean %.1f too far from 724" m);
    Alcotest.test_case "fixed distribution is degenerate" `Quick (fun () ->
        check (Alcotest.float 1e-9) "mean" 64.0 (Size_dist.mean (Size_dist.fixed 64));
        let prng = Nfp_algo.Prng.create ~seed:1L in
        for _ = 1 to 50 do
          check Alcotest.int "sample" 64 (Size_dist.sample prng (Size_dist.fixed 64))
        done);
    Alcotest.test_case "samples come from the support" `Quick (fun () ->
        let prng = Nfp_algo.Prng.create ~seed:2L in
        let support = List.map fst Size_dist.datacenter in
        for _ = 1 to 500 do
          let s = Size_dist.sample prng Size_dist.datacenter in
          if not (List.mem s support) then Alcotest.failf "sample %d outside support" s
        done);
    Alcotest.test_case "empirical mix approximates the weights" `Quick (fun () ->
        let prng = Nfp_algo.Prng.create ~seed:3L in
        let n = 20000 in
        let count64 = ref 0 in
        for _ = 1 to n do
          if Size_dist.sample prng Size_dist.datacenter = 64 then incr count64
        done;
        let share = float_of_int !count64 /. float_of_int n in
        if abs_float (share -. 0.30) > 0.03 then
          Alcotest.failf "64B share %.3f too far from 0.30" share);
    Alcotest.test_case "common sizes list" `Quick (fun () ->
        check Alcotest.(list int) "sweep" [ 64; 128; 256; 512; 1024; 1500 ]
          Size_dist.common_sizes);
    Alcotest.test_case "empty distribution rejected" `Quick (fun () ->
        Alcotest.check_raises "mean" (Invalid_argument "Size_dist.mean: empty distribution")
          (fun () -> ignore (Size_dist.mean [])));
  ]

(* ------------------------------------------------------------------ *)
(* Pktgen                                                              *)
(* ------------------------------------------------------------------ *)

let pktgen_tests =
  [
    Alcotest.test_case "deterministic per index" `Quick (fun () ->
        let g = Pktgen.create Pktgen.default in
        let a = Pktgen.packet g 7 and b = Pktgen.packet g 7 in
        check Alcotest.bool "identical" true (Nfp_packet.Packet.equal_wire a b));
    Alcotest.test_case "distinct indices give distinct flows within the cycle" `Quick
      (fun () ->
        let g = Pktgen.create { Pktgen.default with flows = 16 } in
        check Alcotest.bool "0 vs 1" false
          (Nfp_packet.Flow.equal (Pktgen.flow_of_index g 0) (Pktgen.flow_of_index g 1));
        check Alcotest.bool "cycles at 16" true
          (Nfp_packet.Flow.equal (Pktgen.flow_of_index g 0) (Pktgen.flow_of_index g 16)));
    Alcotest.test_case "frame size honours the distribution" `Quick (fun () ->
        let g = Pktgen.create { Pktgen.default with sizes = Size_dist.fixed 256 } in
        check Alcotest.int "wire bytes" 256 (Nfp_packet.Packet.wire_length (Pktgen.packet g 3)));
    Alcotest.test_case "64-byte frames carry 10-byte payloads" `Quick (fun () ->
        let g = Pktgen.create Pktgen.default in
        check Alcotest.int "payload" 10
          (String.length (Nfp_packet.Packet.payload (Pktgen.packet g 0))));
    Alcotest.test_case "tagged payloads embed the index" `Quick (fun () ->
        let g =
          Pktgen.create
            { Pktgen.default with payload_style = Pktgen.Tagged; sizes = Size_dist.fixed 128 }
        in
        let payload = Nfp_packet.Packet.payload (Pktgen.packet g 42) in
        check Alcotest.bool "prefix" true
          (String.length payload >= 4 && String.sub payload 0 4 = "#42;"));
    Alcotest.test_case "ascii payloads never match default IDS signatures" `Quick
      (fun () ->
        let g =
          Pktgen.create
            { Pktgen.default with payload_style = Pktgen.Ascii; sizes = Size_dist.fixed 1500 }
        in
        let auto = Nfp_algo.Aho_corasick.build (Nfp_nf.Ids.default_signatures 100) in
        for i = 0 to 50 do
          if Nfp_algo.Aho_corasick.matches auto (Nfp_packet.Packet.payload (Pktgen.packet g i))
          then Alcotest.failf "payload %d matched a signature" i
        done);
    Alcotest.test_case "default traffic passes the default firewall ACL" `Quick (fun () ->
        let g = Pktgen.create Pktgen.default in
        let fw, stats = Nfp_nf.Firewall.create () in
        for i = 0 to 199 do
          ignore (fw.Nfp_nf.Nf.process (Pktgen.packet g i))
        done;
        check Alcotest.int "no drops" 0 (stats.dropped ()));
    Alcotest.test_case "zero flows rejected" `Quick (fun () ->
        Alcotest.check_raises "flows"
          (Invalid_argument "Pktgen.create: need at least one flow") (fun () ->
            ignore (Pktgen.create { Pktgen.default with flows = 0 }));
        Alcotest.check_raises "frame below its headers"
          (Invalid_argument "Pktgen.create: frame sizes must be >= 54 bytes") (fun () ->
            ignore (Pktgen.create { Pktgen.default with sizes = Size_dist.fixed 10 })));
    qtest "packets always parse"
      QCheck.(int_range 0 5000)
      (fun i ->
        let g =
          Pktgen.create { Pktgen.default with sizes = Size_dist.datacenter; seed = 11L }
        in
        match Nfp_packet.Packet.of_bytes (Nfp_packet.Packet.to_bytes (Pktgen.packet g i)) with
        | Ok _ -> true
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

let deployment_of text bindings = (Oracle.plan_of text, Nfp_nf.Registry.instances bindings)
let chain_of bindings order () = List.map (Nfp_nf.Registry.instances bindings) order

let replay_tests =
  [
    Alcotest.test_case "north-south replay agrees (paper §6.4)" `Quick (fun () ->
        let bindings =
          [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]
        in
        let text =
          "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
           Chain(vpn, mon, fw, lb)"
        in
        let gen =
          Pktgen.create
            { Pktgen.default with payload_style = Pktgen.Tagged; sizes = Size_dist.datacenter }
        in
        let o =
          Replay.run
            ~chain:(chain_of bindings [ "vpn"; "mon"; "fw"; "lb" ])
            ~deployment:(fun () -> deployment_of text bindings)
            ~gen:(Pktgen.packet gen) ~packets:300
        in
        check Alcotest.bool "agrees" true (Replay.agrees o);
        check Alcotest.int "total" 300 o.total;
        check Alcotest.int "agreements" 300 o.agreements);
    Alcotest.test_case "west-east replay agrees including drops" `Quick (fun () ->
        let bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ] in
        let text = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)" in
        (* Random payloads occasionally hit IDS signatures -> drops on
           both sides must agree. *)
        let gen =
          Pktgen.create
            {
              Pktgen.default with
              payload_style = Pktgen.Random_bytes;
              sizes = Size_dist.fixed 512;
            }
        in
        let o =
          Replay.run
            ~chain:(chain_of bindings [ "ids"; "mon"; "lb" ])
            ~deployment:(fun () -> deployment_of text bindings)
            ~gen:(Pktgen.packet gen) ~packets:300
        in
        check Alcotest.bool "agrees" true (Replay.agrees o));
    Alcotest.test_case "a broken deployment is detected" `Quick (fun () ->
        (* Deliberately deploy a different backend set in the parallel
           side: replay must flag disagreements. *)
        let bindings = [ ("mon", "Monitor"); ("lb", "LoadBalancer") ] in
        let text = "NF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(mon, lb)" in
        let plan, _ = deployment_of text bindings in
        let broken_lookup =
          let t = Hashtbl.create 4 in
          Hashtbl.replace t "mon" (Option.get (Nfp_nf.Registry.instantiate "Monitor" ~name:"mon"));
          Hashtbl.replace t "lb"
            (fst
               (Nfp_nf.Load_balancer.create ~name:"lb"
                  ~backends:[| Option.get (Nfp_packet.Flow.ip_of_string "9.9.9.9") |] ()));
          Hashtbl.find t
        in
        let gen = Pktgen.create Pktgen.default in
        let o =
          Replay.run
            ~chain:(chain_of bindings [ "mon"; "lb" ])
            ~deployment:(fun () -> (plan, broken_lookup))
            ~gen:(Pktgen.packet gen) ~packets:50
        in
        check Alcotest.bool "disagrees" false (Replay.agrees o);
        check Alcotest.int "all flagged" 50 (List.length o.disagreements));
  ]

(* ------------------------------------------------------------------ *)
(* Pcap                                                                *)
(* ------------------------------------------------------------------ *)

let pcap_tests =
  [
    Alcotest.test_case "write/read roundtrip" `Quick (fun () ->
        let g = Pktgen.create { Pktgen.default with sizes = Size_dist.datacenter } in
        let records =
          List.init 20 (fun i ->
              { Pcap.ts_ns = float_of_int i *. 1234.0 *. 1000.0; pkt = Pktgen.packet g i })
        in
        let path = Filename.temp_file "nfp" ".pcap" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Pcap.write_file path records;
            match Pcap.read_file path with
            | Error e -> Alcotest.fail e
            | Ok back ->
                check Alcotest.int "count" 20 (List.length back);
                List.iter2
                  (fun a b ->
                    check Alcotest.bool "bytes" true
                      (Nfp_packet.Packet.equal_wire a.Pcap.pkt b.Pcap.pkt);
                    (* Classic pcap keeps microseconds. *)
                    check (Alcotest.float 1000.0) "timestamp" a.Pcap.ts_ns b.Pcap.ts_ns)
                  records back));
    Alcotest.test_case "rejects foreign files" `Quick (fun () ->
        let path = Filename.temp_file "nfp" ".pcap" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            let oc = open_out_bin path in
            output_string oc "this is not a capture file at all.....";
            close_out oc;
            match Pcap.read_file path with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted junk"));
    Alcotest.test_case "capture taps a deployment's output" `Quick (fun () ->
        let text = "NF(mon, Monitor)\nPosition(mon, first)" in
        let plan, lookup = deployment_of text [ ("mon", "Monitor") ] in
        let tap, bind, dump = Pcap.capture () in
        let engine = Nfp_sim.Engine.create () in
        bind engine;
        let system = Nfp_infra.System.make ~plan ~nfs:lookup engine ~output:tap in
        let g = Pktgen.create Pktgen.default in
        for i = 0 to 4 do
          system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i) (Pktgen.packet g i)
        done;
        Nfp_sim.Engine.run engine;
        let records = dump () in
        check Alcotest.int "five packets" 5 (List.length records);
        check Alcotest.bool "timestamps advance" true
          (List.for_all (fun r -> r.Pcap.ts_ns > 0.0) records));
  ]

let () =
  Alcotest.run "nfp_traffic"
    [
      ("size_dist", size_tests);
      ("pktgen", pktgen_tests);
      ("replay", replay_tests);
      ("pcap", pcap_tests);
    ]
