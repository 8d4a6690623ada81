(* Tests for nfp_inspector: behavioural derivation of NF action
   profiles (paper §5.4). *)

open Nfp_nf
open Nfp_packet

let check = Alcotest.check

let factory kind () = Option.get (Registry.instantiate kind ~name:"probe")

let observed kind = Nfp_inspector.Inspector.derive_profile (factory kind)

let has a profile = List.mem a profile

let inspector_tests =
  [
    Alcotest.test_case "load balancer writes detected exactly" `Quick (fun () ->
        let p = observed "LoadBalancer" in
        check Alcotest.bool "writes sip" true (has (Action.Write Field.Sip) p);
        check Alcotest.bool "writes dip" true (has (Action.Write Field.Dip) p);
        check Alcotest.bool "no payload write" false (has (Action.Write Field.Payload) p);
        check Alcotest.bool "no drop" false (has Action.Drop p));
    Alcotest.test_case "load balancer reads detected via behaviour" `Quick (fun () ->
        let p = observed "LoadBalancer" in
        (* Backend choice hashes all five tuple fields. *)
        check Alcotest.bool "reads sport" true (has (Action.Read Field.Sport) p);
        check Alcotest.bool "reads dport" true (has (Action.Read Field.Dport) p));
    Alcotest.test_case "monitor reads surface through its state digest" `Quick (fun () ->
        let p = observed "Monitor" in
        check Alcotest.bool "reads sip" true (has (Action.Read Field.Sip) p);
        check Alcotest.bool "reads dport" true (has (Action.Read Field.Dport) p);
        check Alcotest.bool "writes nothing" true (Action.writes p = []));
    Alcotest.test_case "firewall drop and reads detected" `Quick (fun () ->
        let p = observed "Firewall" in
        check Alcotest.bool "drop" true (has Action.Drop p);
        check Alcotest.bool "reads dport" true (has (Action.Read Field.Dport) p);
        check Alcotest.bool "writes nothing" true (Action.writes p = []));
    Alcotest.test_case "VPN header addition and payload write detected" `Quick (fun () ->
        let p = observed "VPN" in
        check Alcotest.bool "add/rm" true (has Action.Add_rm_header p);
        check Alcotest.bool "writes payload" true (has (Action.Write Field.Payload) p));
    Alcotest.test_case "IPS payload read and drop detected" `Quick (fun () ->
        let p = observed "IPS" in
        check Alcotest.bool "drop" true (has Action.Drop p);
        check Alcotest.bool "reads payload" true (has (Action.Read Field.Payload) p));
    Alcotest.test_case "NAT rewrites detected" `Quick (fun () ->
        let p = observed "NAT" in
        check Alcotest.bool "writes sip" true (has (Action.Write Field.Sip) p);
        check Alcotest.bool "writes sport" true (has (Action.Write Field.Sport) p));
    Alcotest.test_case "proxy payload write detected" `Quick (fun () ->
        let p = observed "Proxy" in
        check Alcotest.bool "writes payload" true (has (Action.Write Field.Payload) p);
        check Alcotest.bool "writes dip" true (has (Action.Write Field.Dip) p));
    Alcotest.test_case "forwarder observed as read-only" `Quick (fun () ->
        let p = observed "Forwarder" in
        check Alcotest.bool "no writes" true (Action.writes p = []);
        check Alcotest.bool "no drop" false (has Action.Drop p);
        check Alcotest.bool "no headers" false (has Action.Add_rm_header p));
    Alcotest.test_case "observed profiles never exceed declared writes" `Quick (fun () ->
        (* Soundness: a detected write/drop/header action must be
           declared (reads may be under-approximated, never invented
           for NFs that ignore the field entirely). *)
        List.iter
          (fun kind ->
            let declared = Registry.profile_of kind in
            let obs = observed kind in
            List.iter
              (fun a ->
                match a with
                | Action.Write _ | Action.Add_rm_header | Action.Drop ->
                    if not (List.mem a declared) then
                      Alcotest.failf "%s: observed %s not declared" kind
                        (Format.asprintf "%a" Action.pp a)
                | Action.Read _ -> ())
              obs)
          [ "Firewall"; "LoadBalancer"; "VPN"; "Monitor"; "NAT"; "Proxy"; "Forwarder" ]);
    Alcotest.test_case "compare_profiles partitions correctly" `Quick (fun () ->
        let declared = Action.[ Read Field.Sip; Write Field.Dip; Drop ] in
        let obs = Action.[ Read Field.Sip; Write Field.Dip; Read Field.Tos ] in
        let c = Nfp_inspector.Inspector.compare_profiles ~declared ~observed:obs in
        check Alcotest.int "matching" 2 (List.length c.matching);
        check Alcotest.bool "undeclared tos" true (c.undeclared = [ Action.Read Field.Tos ]);
        check Alcotest.bool "unobserved drop" true (c.unobserved = [ Action.Drop ]));
    Alcotest.test_case "inspect_registered ties it together" `Quick (fun () ->
        match Nfp_inspector.Inspector.inspect_registered "LoadBalancer" with
        | Some (obs, comparison) ->
            check Alcotest.bool "observed non-empty" true (obs <> []);
            check Alcotest.bool "no undeclared writes" true
              (List.for_all
                 (fun a -> match a with Action.Write _ -> false | _ -> true)
                 comparison.undeclared)
        | None -> Alcotest.fail "LoadBalancer should be inspectable");
    Alcotest.test_case "5-tuple keyed kinds declare every read they make" `Quick (fun () ->
        (* Their flow key packs the protocol byte, so they read it. *)
        List.iter
          (fun kind ->
            match Nfp_inspector.Inspector.inspect_registered kind with
            | Some (_, comparison) ->
                if comparison.undeclared <> [] then
                  Alcotest.failf "%s: undeclared %s" kind
                    (Format.asprintf "%a" Nfp_inspector.Inspector.pp_comparison comparison)
            | None -> Alcotest.failf "%s should be inspectable" kind)
          [ "Monitor"; "NAT"; "LoadBalancer" ]);
    Alcotest.test_case "inspect_registered on unknown type" `Quick (fun () ->
        check Alcotest.bool "none" true
          (Nfp_inspector.Inspector.inspect_registered "Imaginary" = None));
    Alcotest.test_case "derivation is deterministic" `Quick (fun () ->
        check Alcotest.bool "stable" true (observed "Firewall" = observed "Firewall"));
    Alcotest.test_case "custom NF derives as implemented" `Quick (fun () ->
        (* A TTL decrementer: reads and writes TTL only. *)
        let make_nf () =
          Nf.make ~name:"ttl" ~kind:"TtlDec"
            ~profile:Action.[ Read Field.Ttl; Write Field.Ttl ]
            ~cost_cycles:(fun _ -> 50)
            (fun pkt ->
              let ttl = Packet.ttl pkt in
              if ttl = 0 then Nf.Dropped
              else begin
                Packet.set_ttl pkt (ttl - 1);
                Nf.Forward
              end)
        in
        let p = Nfp_inspector.Inspector.derive_profile make_nf in
        check Alcotest.bool "writes ttl" true (has (Action.Write Field.Ttl) p);
        check Alcotest.bool "reads ttl" true (has (Action.Read Field.Ttl) p);
        check Alcotest.bool "does not write tos" false (has (Action.Write Field.Tos) p));
  ]

let () = Alcotest.run "nfp_inspector" [ ("inspector", inspector_tests) ]
