(* Tests for nfp_nf: each NF implementation and the registry (Table 2). *)

open Nfp_packet
open Nfp_nf

let check = Alcotest.check

let ip s = Option.get (Flow.ip_of_string s)

let flow ?(sip = "10.0.1.1") ?(dip = "10.8.2.10") ?(sport = 12000) ?(dport = 61080)
    ?(proto = 6) () =
  Flow.make ~sip:(ip sip) ~dip:(ip dip) ~sport ~dport ~proto

let pkt ?(payload = "PAYLOAD-0123") ?flow:(f = flow ()) () =
  Packet.create ~flow:f ~payload ()

let is_forward = function Nf.Forward -> true | Nf.Dropped -> false

(* ------------------------------------------------------------------ *)
(* Firewall                                                            *)
(* ------------------------------------------------------------------ *)

(* The first-match semantics the compiled ACL keeps, evaluated on the
   rule records with [List.find_opt]: the reference model. *)
let reference_denies acl p =
  let prefix_matches (prefix, len) addr =
    len = 0
    ||
    let mask = Int32.shift_left (-1l) (32 - len) in
    Int32.equal (Int32.logand addr mask) (Int32.logand prefix mask)
  in
  let in_range (lo, hi) v = v >= lo && v <= hi in
  let matches (r : Firewall.rule) =
    prefix_matches r.sip_prefix (Packet.sip p)
    && prefix_matches r.dip_prefix (Packet.dip p)
    && in_range r.sport_range (Packet.sport p)
    && in_range r.dport_range (Packet.dport p)
    && match r.proto with None -> true | Some proto -> proto = Packet.proto p
  in
  match List.find_opt matches acl with Some r -> not r.permit | None -> false

(* ACLs over one to three random 32-bit bases, so rules nest and
   overlap: prefixes of length 0 to 32 keep their host bits, port ranges
   are inclusive (an inverted one matches nothing) and either whole or
   leaning on a few boundary ports, [proto] is Some or None. Up to three
   later rules shadow earlier ones. Most flows are aimed at a rule: each
   address inside its prefix or just outside it (the last prefix bit
   flipped), each port on an edge of its range. TCP, UDP and ICMP flows
   mix, and ICMP carries no ports. *)
let acl_case =
  let open QCheck in
  let gen =
    Gen.(
      let* bases = list_size (int_range 1 3) int32 in
      let addr =
        map3
          (fun b k r -> Int32.logxor b (Int32.logand r (Int32.pred (Int32.shift_left 1l k))))
          (oneofl bases) (int_range 0 31) int32
      in
      let len = frequency [ (1, return 0); (1, return 32); (4, int_range 0 32) ] in
      let port = frequency [ (1, int_bound 0xffff); (2, oneofl [ 0; 1; 79; 80; 81; 0xffff ]) ] in
      let range = frequency [ (1, return (0, 0xffff)); (3, pair port port) ] in
      let proto = oneofl [ 1; 6; 17 ] in
      let rule =
        map
          (fun ((sip, dip), (sport_range, dport_range), (proto, permit)) ->
            {
              Firewall.sip_prefix = sip;
              dip_prefix = dip;
              sport_range;
              dport_range;
              proto;
              permit;
            })
          (triple (pair (pair addr len) (pair addr len))
             (pair range range)
             (pair (option proto) bool))
      in
      let around (prefix, len) =
        let host = (1 lsl (32 - len)) - 1 in
        map2
          (fun r outside ->
            let a = Int32.to_int prefix land lnot host lor (r land host) in
            Int32.of_int (if outside && len > 0 then a lxor (host + 1) else a))
          (int_bound 0xffff_ffff) bool
      in
      let edge (lo, hi) =
        frequency
          [ (3, map (fun p -> max 0 (min 0xffff p)) (oneofl [ lo - 1; lo; hi; hi + 1 ])); (1, port) ]
      in
      let flow (sip, dip) (sport, dport) proto =
        map
          (fun ((sip, dip), (sport, dport), proto) ->
            Flow.make ~sip ~dip ~sport ~dport ~proto)
          (triple (pair sip dip) (pair sport dport) proto)
      in
      let aimed (r : Firewall.rule) =
        flow
          (around r.sip_prefix, around r.dip_prefix)
          (edge r.sport_range, edge r.dport_range)
          (match r.proto with Some p -> frequency [ (3, return p); (1, proto) ] | None -> proto)
      in
      (* A later copy of a rule, widened and with the other verdict:
         it matches what the first one decided. *)
      let shadow (r : Firewall.rule) =
        map3
          (fun cut wide_ports any_proto ->
            let shorter (a, l) = (a, max 0 (l - cut)) in
            {
              Firewall.sip_prefix = shorter r.sip_prefix;
              dip_prefix = shorter r.dip_prefix;
              sport_range = (if wide_ports then (0, 0xffff) else r.sport_range);
              dport_range = (if wide_ports then (0, 0xffff) else r.dport_range);
              proto = (if any_proto then None else r.proto);
              permit = not r.permit;
            })
          (int_bound 8) bool bool
      in
      let* acl = list_size (int_bound 8) rule in
      let* shadows =
        if acl = [] then return [] else list_size (int_bound 3) (oneofl acl >>= shadow)
      in
      let acl = acl @ shadows in
      let stray = flow (addr, addr) (port, port) proto in
      let flows =
        if acl = [] then stray else frequency [ (3, oneofl acl >>= aimed); (1, stray) ]
      in
      pair (return acl) (list_size (return 12) flows))
  in
  let show_rule (r : Firewall.rule) =
    let prefix (a, l) = Printf.sprintf "%s/%d" (Flow.ip_to_string a) l in
    let range (lo, hi) = Printf.sprintf "%d-%d" lo hi in
    Printf.sprintf "%s %s -> %s %s proto %s %s" (prefix r.sip_prefix) (range r.sport_range)
      (prefix r.dip_prefix) (range r.dport_range)
      (match r.proto with None -> "any" | Some p -> string_of_int p)
      (if r.permit then "permit" else "deny")
  in
  make gen
    ~print:Print.(pair (list show_rule) (list (Format.asprintf "%a" Flow.pp)))

let firewall_tests =
  [
    Alcotest.test_case "permits traffic missing the ACL" `Quick (fun () ->
        let fw, stats = Firewall.create () in
        check Alcotest.bool "forward" true (is_forward (fw.process (pkt ())));
        check Alcotest.int "passed" 1 (stats.passed ());
        check Alcotest.int "dropped" 0 (stats.dropped ()));
    Alcotest.test_case "denies a matching rule" `Quick (fun () ->
        let deny =
          { (Firewall.any_rule ~permit:false) with Firewall.dport_range = (80, 80) }
        in
        let fw, stats = Firewall.create ~acl:[ deny ] () in
        let p = pkt ~flow:(flow ~dport:80 ()) () in
        check Alcotest.bool "dropped" false (is_forward (fw.process p));
        check Alcotest.int "dropped count" 1 (stats.dropped ()));
    Alcotest.test_case "first matching rule wins" `Quick (fun () ->
        let permit =
          { (Firewall.any_rule ~permit:true) with Firewall.dport_range = (80, 80) }
        in
        let deny = Firewall.any_rule ~permit:false in
        let fw, _ = Firewall.create ~acl:[ permit; deny ] () in
        check Alcotest.bool "permit wins" true
          (is_forward (fw.process (pkt ~flow:(flow ~dport:80 ()) ())));
        check Alcotest.bool "deny catches rest" false
          (is_forward (fw.process (pkt ~flow:(flow ~dport:81 ()) ()))));
    Alcotest.test_case "prefix matching on source" `Quick (fun () ->
        let deny =
          {
            (Firewall.any_rule ~permit:false) with
            Firewall.sip_prefix = (ip "10.7.0.0", 16);
          }
        in
        let fw, _ = Firewall.create ~acl:[ deny ] () in
        check Alcotest.bool "inside prefix" false
          (is_forward (fw.process (pkt ~flow:(flow ~sip:"10.7.3.4" ()) ())));
        check Alcotest.bool "outside prefix" true
          (is_forward (fw.process (pkt ~flow:(flow ~sip:"10.8.3.4" ()) ()))));
    Alcotest.test_case "proto-specific rule" `Quick (fun () ->
        let deny = { (Firewall.any_rule ~permit:false) with Firewall.proto = Some 17 } in
        let fw, _ = Firewall.create ~acl:[ deny ] () in
        check Alcotest.bool "udp denied" false
          (is_forward (fw.process (pkt ~flow:(flow ~proto:17 ()) ())));
        check Alcotest.bool "tcp passes" true (is_forward (fw.process (pkt ()))));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"compiled ACL agrees with the first-match reference"
         acl_case (fun (acl, flows) ->
           let fw, stats = Firewall.create ~acl () in
           let compiled = Firewall.compile acl in
           let denied =
             List.fold_left
               (fun denied f ->
                 let p = Packet.create ~flow:f ~payload:"x" () in
                 let want = reference_denies acl p in
                 if Firewall.denies compiled p <> want || is_forward (fw.process p) = want then
                   QCheck.Test.fail_reportf "%a: compiled %b, reference %b" Flow.pp f
                     (Firewall.denies compiled p) want;
                 if want then denied + 1 else denied)
               0 flows
           in
           stats.dropped () = denied && stats.passed () = List.length flows - denied));
    Alcotest.test_case "bad rules are rejected when the ACL is compiled" `Quick (fun () ->
        let any = Firewall.any_rule ~permit:false in
        let bad_len = "Firewall.compile: prefix length must be in [0, 32]"
        and bad_proto = "Firewall.compile: proto must be in [0, 255]" in
        List.iter
          (fun (label, rule, msg) ->
            Alcotest.check_raises label (Invalid_argument msg) (fun () ->
                ignore (Firewall.create ~acl:[ any; rule ] ())))
          [
            ("sip /33", { any with sip_prefix = (0l, 33) }, bad_len);
            ("dip /-1", { any with dip_prefix = (0l, -1) }, bad_len);
            ("proto 256", { any with proto = Some 256 }, bad_proto);
            ("proto -1", { any with proto = Some (-1) }, bad_proto);
          ]);
    Alcotest.test_case "default ACL has the requested size" `Quick (fun () ->
        check Alcotest.int "100 rules" 100 (List.length (Firewall.default_acl 100)));
    Alcotest.test_case "extra cycles raise the cost" `Quick (fun () ->
        let fw0, _ = Firewall.create () in
        let fw1, _ = Firewall.create ~extra_cycles:500 () in
        let p = pkt () in
        check Alcotest.int "cost delta" 500 (fw1.cost_cycles p - fw0.cost_cycles p));
    Alcotest.test_case "profile matches Table 2" `Quick (fun () ->
        let fw, _ = Firewall.create () in
        check Alcotest.bool "drop" true (Action.may_drop fw.profile);
        check Alcotest.bool "no writes" true (Action.writes fw.profile = []);
        check Alcotest.int "4 reads" 4 (List.length (Action.reads fw.profile)));
    Alcotest.test_case "does not modify the packet" `Quick (fun () ->
        let fw, _ = Firewall.create () in
        let p = pkt () in
        let before = Packet.to_bytes p in
        ignore (fw.process p);
        check Alcotest.bool "unmodified" true (Bytes.equal before (Packet.to_bytes p)));
  ]

(* ------------------------------------------------------------------ *)
(* L3 forwarder / Load balancer                                        *)
(* ------------------------------------------------------------------ *)

(* The next hop a fresh [routes]-route Forwarder picks for each of 256
   addresses spread over 10.0.0.0/8. *)
let next_hops ~routes =
  let fwd, stats = L3_forwarder.create ~routes () in
  List.init 256 (fun k ->
      let dip = Printf.sprintf "10.%d.%d.%d" (k * 37 mod 256) (k * 91 mod 256) k in
      ignore (fwd.process (pkt ~flow:(flow ~dip ()) ()));
      stats.last_next_hop ())

let forwarder_tests =
  [
    Alcotest.test_case "forwards everything" `Quick (fun () ->
        let fwd, stats = L3_forwarder.create () in
        for i = 0 to 9 do
          let f = flow ~dport:(61000 + i) () in
          check Alcotest.bool "forward" true (is_forward (fwd.process (pkt ~flow:f ())))
        done;
        check Alcotest.int "count" 10 (stats.forwarded ()));
    Alcotest.test_case "same destination, same next hop" `Quick (fun () ->
        let fwd, stats = L3_forwarder.create () in
        ignore (fwd.process (pkt ()));
        let first = stats.last_next_hop () in
        ignore (fwd.process (pkt ()));
        check Alcotest.(option int) "stable" first (stats.last_next_hop ()));
    Alcotest.test_case "reads only dip" `Quick (fun () ->
        let fwd, _ = L3_forwarder.create () in
        check Alcotest.bool "profile" true (fwd.profile = [ Action.Read Field.Dip ]));
    (* Forwarders with one route count share one FIB, built by whichever
       domain asks first. 777 routes is a count no other test builds,
       so the two worker domains race to build it. *)
    Alcotest.test_case "forwarders built on two domains route as one built here" `Quick
      (fun () ->
        let on_workers =
          Nfp_sim.Harness.parallel_runs ~domains:2
            (List.init 4 (fun _ () -> next_hops ~routes:777))
        in
        let here = next_hops ~routes:777 in
        List.iter (check Alcotest.(list (option int)) "next hops" here) on_workers);
    Alcotest.test_case "each route count gets its own FIB" `Quick (fun () ->
        check Alcotest.bool "some address routes differently" true
          (next_hops ~routes:64 <> next_hops ~routes:1000));
  ]

let lb_tests =
  [
    Alcotest.test_case "rewrites dip to a backend and sip to the vip" `Quick (fun () ->
        let backends = [| ip "172.16.0.1"; ip "172.16.0.2" |] in
        let vip = ip "192.168.0.1" in
        let lb, _ = Load_balancer.create ~vip ~backends () in
        let p = pkt () in
        ignore (lb.process p);
        check Alcotest.int32 "sip = vip" vip (Packet.sip p);
        check Alcotest.bool "dip is a backend" true
          (Array.exists (fun b -> Int32.equal b (Packet.dip p)) backends));
    Alcotest.test_case "flow stickiness" `Quick (fun () ->
        let lb, _ = Load_balancer.create () in
        let p1 = pkt () and p2 = pkt () in
        ignore (lb.process p1);
        ignore (lb.process p2);
        check Alcotest.int32 "same backend" (Packet.dip p1) (Packet.dip p2));
    Alcotest.test_case "spreads distinct flows" `Quick (fun () ->
        let lb, stats = Load_balancer.create () in
        for i = 0 to 63 do
          ignore (lb.process (pkt ~flow:(flow ~sport:(10000 + i) ()) ()))
        done;
        let used = Array.to_list (stats.per_backend ()) |> List.filter (fun c -> c > 0) in
        check Alcotest.bool "several backends used" true (List.length used > 2);
        check Alcotest.int "totals" 64 (List.fold_left ( + ) 0 used));
    Alcotest.test_case "keeps both checksums valid" `Quick (fun () ->
        let lb, _ = Load_balancer.create () in
        let p = pkt () in
        ignore (lb.process p);
        check Alcotest.bool "ip checksum" true (Packet.ip_checksum_valid p);
        check Alcotest.bool "tcp checksum" true (Packet.l4_checksum_valid p));
    Alcotest.test_case "single backend gets all flows" `Quick (fun () ->
        let only = ip "172.16.9.9" in
        let lb, stats = Load_balancer.create ~backends:[| only |] () in
        for i = 0 to 9 do
          let p = pkt ~flow:(flow ~sport:(30000 + i) ()) () in
          ignore (lb.process p);
          check Alcotest.int32 "backend" only (Packet.dip p)
        done;
        check Alcotest.int "count" 10 (stats.per_backend ()).(0));
    Alcotest.test_case "no backends rejected" `Quick (fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Load_balancer.create: no backends") (fun () ->
            ignore (Load_balancer.create ~backends:[||] ())));
  ]

(* ------------------------------------------------------------------ *)
(* IDS / VPN                                                           *)
(* ------------------------------------------------------------------ *)

let ids_tests =
  [
    Alcotest.test_case "detect mode alerts without dropping" `Quick (fun () ->
        let signature = List.hd (Ids.default_signatures 1) in
        let ids, stats = Ids.create ~mode:`Detect () in
        let p = pkt ~payload:("xx" ^ signature) () in
        check Alcotest.bool "forwarded" true (is_forward (ids.process p));
        check Alcotest.int "alert" 1 (stats.alerts ()));
    Alcotest.test_case "prevent mode drops on match" `Quick (fun () ->
        let signature = List.hd (Ids.default_signatures 1) in
        let ids, _ = Ids.create ~mode:`Prevent () in
        check Alcotest.bool "dropped" false
          (is_forward (ids.process (pkt ~payload:signature ()))));
    Alcotest.test_case "clean payload passes silently" `Quick (fun () ->
        let ids, stats = Ids.create ~mode:`Prevent () in
        check Alcotest.bool "pass" true
          (is_forward (ids.process (pkt ~payload:"CLEAN-DATA-123" ())));
        check Alcotest.int "no alert" 0 (stats.alerts ()));
    Alcotest.test_case "profiles differ by mode" `Quick (fun () ->
        let det, _ = Ids.create ~mode:`Detect () in
        let prev, _ = Ids.create ~mode:`Prevent () in
        check Alcotest.bool "detect no drop" false (Action.may_drop det.profile);
        check Alcotest.bool "prevent drops" true (Action.may_drop prev.profile);
        check Alcotest.string "kinds" "IDS" det.kind;
        check Alcotest.string "kinds" "IPS" prev.kind);
    (* Pktgen payloads of every style and of sizes from an empty
       payload up to a full frame, left alone or with a signature
       written over their first or last bytes: the IPS drops exactly
       the packets whose payload holds a signature. *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"IPS verdict agrees with naive signature search"
         QCheck.(
           quad
             (oneofl Nfp_traffic.Pktgen.[ Random_bytes; Ascii; Tagged ])
             (pair (int_range 54 1500) small_nat)
             (int_range 0 99)
             (oneofl [ `None; `First; `Last ]))
         (fun (payload_style, (size, i), sig_idx, plant) ->
           let gen =
             Nfp_traffic.Pktgen.create
               {
                 Nfp_traffic.Pktgen.default with
                 payload_style;
                 sizes = Nfp_traffic.Size_dist.fixed size;
               }
           in
           let p = Nfp_traffic.Pktgen.packet gen i in
           let signatures = Ids.default_signatures 100 in
           let signature = List.nth signatures sig_idx in
           let payload = Bytes.of_string (Packet.payload p) in
           let room = Bytes.length payload - String.length signature in
           (match plant with
           | `First when room >= 0 -> Bytes.blit_string signature 0 payload 0 (String.length signature)
           | `Last when room >= 0 -> Bytes.blit_string signature 0 payload room (String.length signature)
           | _ -> ());
           let payload = Bytes.to_string payload in
           Packet.set_payload p payload;
           let naive =
             List.exists
               (fun s ->
                 let m = String.length s in
                 let rec at k = k + m <= String.length payload && (String.sub payload k m = s || at (k + 1)) in
                 at 0)
               signatures
           in
           let ips, _ = Ids.create ~mode:`Prevent () in
           is_forward (ips.process p) = not naive));
    Alcotest.test_case "cost grows with payload" `Quick (fun () ->
        let ids, _ = Ids.create () in
        let small = pkt ~payload:"x" () and big = pkt ~payload:(String.make 1000 'x') () in
        check Alcotest.bool "monotone" true (ids.cost_cycles big > ids.cost_cycles small));
  ]

let vpn_tests =
  [
    Alcotest.test_case "encrypts and encapsulates" `Quick (fun () ->
        let vpn, stats = Vpn.create () in
        let p = pkt ~payload:"secret message here" () in
        ignore (vpn.process p);
        check Alcotest.bool "AH added" true (Packet.has_ah p);
        check Alcotest.bool "payload changed" true
          (Packet.payload p <> "secret message here");
        check Alcotest.int "counted" 1 (stats.encrypted ());
        check Alcotest.int32 "sequence" 1l (stats.sequence ()));
    Alcotest.test_case "decrypt restores the original payload" `Quick (fun () ->
        let key = "test-key-16bytes" in
        let vpn, _ = Vpn.create ~key () in
        let p = pkt ~payload:"round trip payload" () in
        ignore (vpn.process p);
        check Alcotest.bool "decrypt ok" true (Vpn.decrypt ~key p);
        check Alcotest.bool "AH removed" false (Packet.has_ah p);
        check Alcotest.string "payload" "round trip payload" (Packet.payload p));
    Alcotest.test_case "sequence numbers increment per packet" `Quick (fun () ->
        let vpn, stats = Vpn.create () in
        ignore (vpn.process (pkt ()));
        ignore (vpn.process (pkt ()));
        check Alcotest.int32 "two" 2l (stats.sequence ()));
    Alcotest.test_case "distinct packets get distinct keystreams" `Quick (fun () ->
        let vpn, _ = Vpn.create () in
        let p1 = pkt ~payload:"same payload" () and p2 = pkt ~payload:"same payload" () in
        ignore (vpn.process p1);
        ignore (vpn.process p2);
        check Alcotest.bool "ciphertexts differ" true
          (Packet.payload p1 <> Packet.payload p2));
    Alcotest.test_case "decrypt refuses a packet without AH" `Quick (fun () ->
        check Alcotest.bool "false" false (Vpn.decrypt ~key:"nfp-vpn-aes-key!" (pkt ())));
    Alcotest.test_case "rejects short keys" `Quick (fun () ->
        Alcotest.check_raises "key"
          (Invalid_argument "Aes.expand_key: key must be 16 bytes") (fun () ->
            ignore (Vpn.create ~key:"short" ())));
    Alcotest.test_case "profile matches Table 2 row" `Quick (fun () ->
        let vpn, _ = Vpn.create () in
        check Alcotest.bool "add/rm" true (Action.adds_or_removes_headers vpn.profile);
        check Alcotest.bool "writes payload" true
          (List.mem Field.Payload (Action.writes vpn.profile)));
  ]

(* ------------------------------------------------------------------ *)
(* Monitor / NAT / Proxy / Caching / Compression / Shaper / Gateway    *)
(* ------------------------------------------------------------------ *)

(* The Monitor as it was before its state was a declared [Nf.table]: a
   polymorphic Hashtbl from [Flow.t] to immutable counters, with its
   own checkpoint, merge and migration shard. The model the derived
   Monitor must agree with, entry for entry; its digest is the formula
   [Nf.make] documents for one [Per_flow] table of width 2 and one
   counter, computed from the Hashtbl. *)
module Ref_monitor = struct
  type t = { table : (Flow.t, Monitor.counter) Hashtbl.t; mutable total : int }

  let create () = { table = Hashtbl.create 64; total = 0 }
  let copy m = { table = Hashtbl.copy m.table; total = m.total }

  let add m flow (c : Monitor.counter) =
    let prev =
      Option.value (Hashtbl.find_opt m.table flow) ~default:{ Monitor.packets = 0; bytes = 0 }
    in
    Hashtbl.replace m.table flow
      { Monitor.packets = prev.packets + c.packets; bytes = prev.bytes + c.bytes }

  let process m pkt =
    add m (Packet.flow pkt) { Monitor.packets = 1; bytes = Packet.wire_length pkt };
    m.total <- m.total + 1

  let merge ms =
    let into = create () in
    List.iter
      (fun m ->
        Hashtbl.iter (add into) m.table;
        into.total <- into.total + m.total)
      ms;
    into

  let restore m saved =
    Hashtbl.reset m.table;
    Hashtbl.iter (Hashtbl.replace m.table) saved.table;
    m.total <- saved.total

  let extract m pred =
    let moved = create () in
    Hashtbl.iter (fun flow c -> if pred flow then Hashtbl.replace moved.table flow c) m.table;
    Hashtbl.iter (fun flow _ -> Hashtbl.remove m.table flow) moved.table;
    moved

  (* [Flow.hash] of a flow is [mix2_int] over its key limbs, non-negative. *)
  let digest m =
    let open Nfp_algo.Hashing in
    let rows =
      Hashtbl.fold
        (fun flow (c : Monitor.counter) acc ->
          acc + combine (Flow.hash flow) (combine (combine 17 c.packets) c.bytes))
        m.table 0
    in
    combine (combine 17 m.total) (rows land max_int)
end

(* A pool of flows (addresses over the whole 32-bit range, so half have
   the high bit set and are negative as int32; TCP, UDP and protocols
   with no ports) and a packet sequence drawing from it. Packets of one
   flow vary in length, so byte counters differ from packet counters. *)
let monitor_case =
  let open QCheck in
  let gen =
    Gen.(
      let addr = map Int32.of_int (int_bound 0xffff_ffff) in
      let port = int_bound 0xffff in
      let proto = oneofl [ 6; 17; 1; 47; 132; 0; 255 ] in
      let flow =
        map
          (fun ((sip, dip), (sport, dport), proto) ->
            Flow.make ~sip ~dip ~sport ~dport ~proto)
          (triple (pair addr addr) (pair port port) proto)
      in
      let* pool = array_size (int_range 1 12) flow in
      let n = Array.length pool in
      let* seq = list_size (int_range 0 80) (pair (int_bound (n - 1)) (int_bound 40)) in
      let* cut = int_bound (List.length seq) in
      let+ k = int_range 1 4 in
      (pool, seq, cut, k))
  in
  make
    ~print:(fun (pool, seq, cut, k) ->
      Printf.sprintf "pool=[%s] seq=[%s] cut=%d k=%d"
        (String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Flow.pp) pool)))
        (String.concat "; " (List.map (fun (i, l) -> Printf.sprintf "%d/%d" i l) seq))
        cut k)
    gen

(* Feed the Monitor and the model the same packets and compare every
   observable: digest, flow count, lookups and total. A checkpoint, a
   migration shard and a merge are compared by restoring each into a
   fresh Monitor; then the shard is absorbed back, and both sides are
   restored from their checkpoints and replay the rest. *)
let monitor_agrees (pool, seq, cut, k) =
  let pkts =
    List.map (fun (i, len) -> pkt ~flow:pool.(i) ~payload:(String.make len 'p') ()) seq
  in
  let first = List.filteri (fun i _ -> i < cut) pkts
  and rest = List.filteri (fun i _ -> i >= cut) pkts in
  let nf, stats = Monitor.create () and model = Ref_monitor.create () in
  let snapshot () = Option.get nf.Nf.snapshot () and restore = Option.get nf.Nf.restore in
  let merge = Option.get nf.Nf.merge and extract = Option.get nf.Nf.extract in
  let feed =
    List.iter (fun p ->
        ignore (nf.process p);
        Ref_monitor.process model p)
  in
  (* Flows as the packets carry them (no ports without TCP/UDP), plus
     the pool's own, which miss for the portless protocols. *)
  let probes = List.map Packet.flow pkts @ Array.to_list pool in
  let agree step ((nf : Nf.t), (stats : Monitor.stats)) (model : Ref_monitor.t) =
    if nf.state_digest () <> Ref_monitor.digest model then
      QCheck.Test.fail_reportf "%s: digest %d, model %d" step (nf.state_digest ())
        (Ref_monitor.digest model);
    if stats.flows () <> Hashtbl.length model.table then
      QCheck.Test.fail_reportf "%s: %d flows, model %d" step (stats.flows ())
        (Hashtbl.length model.table);
    List.iter
      (fun f ->
        if stats.lookup f <> Hashtbl.find_opt model.table f then
          QCheck.Test.fail_reportf "%s: lookup %a disagrees" step Flow.pp f)
      probes;
    if stats.total_packets () <> model.total then
      QCheck.Test.fail_reportf "%s: total %d, model %d" step (stats.total_packets ())
        model.total
  in
  (* A state value as a fresh Monitor restored from it. *)
  let view state =
    let fresh, fresh_stats = Monitor.create () in
    Option.get fresh.Nf.restore state;
    (fresh, fresh_stats)
  in
  let live step =
    agree step (nf, stats) model;
    agree (step ^ ", checkpoint") (view (snapshot ())) model
  in
  feed first;
  live "first part";
  let saved = snapshot () and saved_model = Ref_monitor.copy model in
  feed rest;
  live "whole sequence";
  let pred f = Flow.hash f mod k = 0 in
  let shard = extract pred and shard_model = Ref_monitor.extract model pred in
  agree "extracted shard" (view shard) shard_model;
  live "after extract";
  agree "merged state" (view (merge [ snapshot (); shard ]))
    (Ref_monitor.merge [ model; shard_model ]);
  Nf.absorb nf shard;
  Ref_monitor.restore model (Ref_monitor.merge [ model; shard_model ]);
  live "after absorbing the shard back";
  restore saved;
  Ref_monitor.restore model saved_model;
  live "after restore";
  feed rest;
  live "after replaying the rest";
  true

let monitor_tests =
  [
    Alcotest.test_case "counts per flow" `Quick (fun () ->
        let mon, stats = Monitor.create () in
        let f1 = flow () and f2 = flow ~sport:9999 () in
        ignore (mon.process (pkt ~flow:f1 ()));
        ignore (mon.process (pkt ~flow:f1 ()));
        ignore (mon.process (pkt ~flow:f2 ()));
        check Alcotest.int "flows" 2 (stats.flows ());
        (match stats.lookup f1 with
        | Some c -> check Alcotest.int "f1 packets" 2 c.Monitor.packets
        | None -> Alcotest.fail "flow missing");
        check Alcotest.int "total" 3 (stats.total_packets ()));
    Alcotest.test_case "byte counters track wire length" `Quick (fun () ->
        let mon, stats = Monitor.create () in
        let p = pkt () in
        let len = Packet.wire_length p in
        ignore (mon.process p);
        match stats.lookup (Packet.flow p) with
        | Some c -> check Alcotest.int "bytes" len c.Monitor.bytes
        | None -> Alcotest.fail "flow missing");
    Alcotest.test_case "read-only" `Quick (fun () ->
        let mon, _ = Monitor.create () in
        let p = pkt () in
        let before = Packet.to_bytes p in
        ignore (mon.process p);
        check Alcotest.bool "unchanged" true (Bytes.equal before (Packet.to_bytes p)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:300 ~name:"agrees with the Hashtbl reference Monitor"
         monitor_case monitor_agrees);
  ]

let nat_tests =
  [
    Alcotest.test_case "rewrites source address and port" `Quick (fun () ->
        let public_ip = ip "203.0.113.7" in
        let nat, _ = Nat.create ~public_ip ~port_base:20000 () in
        let p = pkt () in
        ignore (nat.process p);
        check Alcotest.int32 "sip" public_ip (Packet.sip p);
        check Alcotest.int "sport" 20000 (Packet.sport p));
    Alcotest.test_case "binding is stable per flow" `Quick (fun () ->
        let nat, stats = Nat.create () in
        let p1 = pkt () and p2 = pkt () in
        ignore (nat.process p1);
        ignore (nat.process p2);
        check Alcotest.int "same port" (Packet.sport p1) (Packet.sport p2);
        check Alcotest.int "one binding" 1 (stats.active_bindings ()));
    Alcotest.test_case "distinct flows get distinct ports" `Quick (fun () ->
        let nat, _ = Nat.create () in
        let p1 = pkt () and p2 = pkt ~flow:(flow ~sport:777 ()) () in
        ignore (nat.process p1);
        ignore (nat.process p2);
        check Alcotest.bool "different" true (Packet.sport p1 <> Packet.sport p2));
    Alcotest.test_case "pool exhaustion drops" `Quick (fun () ->
        let nat, stats = Nat.create ~port_count:1 () in
        ignore (nat.process (pkt ()));
        let verdict = nat.process (pkt ~flow:(flow ~sport:555 ()) ()) in
        check Alcotest.bool "dropped" false (is_forward verdict);
        check Alcotest.int "exhausted" 1 (stats.exhausted ()));
    Alcotest.test_case "a restored sequential NAT replays the same ports" `Quick
      (fun () ->
        let nat, _ = Nat.create () in
        let port sport =
          let p = pkt ~flow:(flow ~sport ()) () in
          ignore (nat.process p);
          Packet.sport p
        in
        ignore (List.map port [ 1; 2; 3 ]);
        let saved = (Option.get nat.Nf.snapshot) () in
        let first = List.map port [ 4; 5; 2; 6 ] in
        (Option.get nat.Nf.restore) saved;
        check Alcotest.(list int) "replayed ports" first (List.map port [ 4; 5; 2; 6 ]));
    Alcotest.test_case "translated packets keep valid checksums" `Quick (fun () ->
        let nat, _ = Nat.create () in
        let p = pkt () in
        ignore (nat.process p);
        check Alcotest.bool "ip checksum" true (Packet.ip_checksum_valid p);
        check Alcotest.bool "tcp checksum" true (Packet.l4_checksum_valid p));
  ]

let proxy_tests =
  [
    Alcotest.test_case "redirects and stamps Via" `Quick (fun () ->
        let origin = ip "198.51.100.10" in
        let proxy, stats = Proxy.create ~origin ~via:"Via:test " () in
        let p = pkt ~payload:"GET /" () in
        ignore (proxy.process p);
        check Alcotest.int32 "dip" origin (Packet.dip p);
        check Alcotest.string "payload" "Via:test GET /" (Packet.payload p);
        check Alcotest.int "count" 1 (stats.redirected ()));
    Alcotest.test_case "rewritten packet is still well-formed" `Quick (fun () ->
        let proxy, _ = Proxy.create () in
        let p = pkt ~payload:"GET /path HTTP/1.1" () in
        ignore (proxy.process p);
        check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p);
        match Packet.of_bytes (Packet.to_bytes p) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "declares its length write" `Quick (fun () ->
        let proxy, _ = Proxy.create () in
        check Alcotest.bool "writes len" true
          (List.mem Field.Len (Action.writes proxy.profile)));
  ]

let caching_tests =
  [
    Alcotest.test_case "miss then hit" `Quick (fun () ->
        let cache, stats = Caching.create () in
        ignore (cache.process (pkt ~payload:"GET /index" ()));
        ignore (cache.process (pkt ~payload:"GET /index" ()));
        check Alcotest.int "misses" 1 (stats.misses ());
        check Alcotest.int "hits" 1 (stats.hits ()));
    Alcotest.test_case "different destinations are different keys" `Quick (fun () ->
        let cache, stats = Caching.create () in
        ignore (cache.process (pkt ~payload:"GET /x" ()));
        ignore (cache.process (pkt ~flow:(flow ~dip:"10.8.2.11" ()) ~payload:"GET /x" ()));
        check Alcotest.int "two misses" 2 (stats.misses ()));
    Alcotest.test_case "eviction beyond capacity" `Quick (fun () ->
        let cache, stats = Caching.create ~capacity:2 () in
        List.iter (fun s -> ignore (cache.process (pkt ~payload:s ()))) [ "a"; "b"; "c" ];
        check Alcotest.int "capped" 2 (stats.entries ()));
  ]

let compression_tests =
  [
    Alcotest.test_case "compresses repetitive payloads losslessly" `Quick (fun () ->
        let comp, stats = Compression.create () in
        let original = String.concat "" (List.init 30 (fun _ -> "repeat-me ")) in
        let p = pkt ~payload:original () in
        ignore (comp.process p);
        check Alcotest.bool "smaller" true
          (String.length (Packet.payload p) < String.length original);
        check Alcotest.string "lossless" original
          (Nfp_algo.Lz77.decompress (Packet.payload p));
        check Alcotest.int "counted" 1 (stats.compressed ());
        check Alcotest.bool "savings recorded" true (stats.bytes_saved () > 0));
    Alcotest.test_case "leaves incompressible payloads alone" `Quick (fun () ->
        let comp, stats = Compression.create () in
        let p = pkt ~payload:"ab" () in
        ignore (comp.process p);
        check Alcotest.string "unchanged" "ab" (Packet.payload p);
        check Alcotest.int "skipped" 1 (stats.skipped ()));
    Alcotest.test_case "compressed packet stays parseable at every size" `Quick (fun () ->
        let comp, _ = Compression.create () in
        List.iter
          (fun n ->
            let payload = String.concat "" (List.init n (fun i -> Printf.sprintf "tok%d " (i mod 5))) in
            let p = pkt ~payload () in
            ignore (comp.process p);
            check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p);
            match Packet.of_bytes (Packet.to_bytes p) with
            | Ok _ -> ()
            | Error e -> Alcotest.fail e)
          [ 5; 50; 250 ]);
  ]

let shaper_tests =
  [
    Alcotest.test_case "polices above the burst" `Quick (fun () ->
        let shaper, stats, clock =
          Traffic_shaper.create ~rate_bps:1000.0 ~burst_bytes:100 ()
        in
        clock 0L;
        check Alcotest.bool "first ok" true
          (is_forward (shaper.process (pkt ~payload:"" ())));
        check Alcotest.bool "second policed" false
          (is_forward (shaper.process (pkt ~payload:"" ())));
        check Alcotest.int "policed" 1 (stats.policed ()));
    Alcotest.test_case "recovers after the clock advances" `Quick (fun () ->
        let shaper, stats, clock = Traffic_shaper.create ~rate_bps:8e9 ~burst_bytes:64 () in
        clock 0L;
        ignore (shaper.process (pkt ~payload:"" ()));
        clock 0L;
        check Alcotest.bool "empty" false (is_forward (shaper.process (pkt ~payload:"" ())));
        clock 1000L;
        check Alcotest.bool "refilled" true (is_forward (shaper.process (pkt ~payload:"" ())));
        check Alcotest.int "conformed" 2 (stats.conformed ()));
  ]

let gateway_tests =
  [
    Alcotest.test_case "counts sessions by address pair" `Quick (fun () ->
        let gw, stats = Gateway.create () in
        ignore (gw.process (pkt ()));
        ignore (gw.process (pkt ()));
        ignore (gw.process (pkt ~flow:(flow ~sip:"10.0.9.9" ()) ()));
        check Alcotest.int "sessions" 2 (stats.sessions ());
        check Alcotest.int "packets" 3 (stats.packets ()));
  ]

(* ------------------------------------------------------------------ *)
(* Registry (Table 2)                                                  *)
(* ------------------------------------------------------------------ *)

let registry_tests =
  [
    Alcotest.test_case "lookup is case-insensitive" `Quick (fun () ->
        check Alcotest.bool "firewall" true (Registry.find "fIrEwAll" <> None));
    Alcotest.test_case "profile_of raises on unknown kinds" `Quick (fun () ->
        Alcotest.check_raises "unknown" Not_found (fun () ->
            ignore (Registry.profile_of "NoSuchNF")));
    Alcotest.test_case "paper Table 2 percentages present" `Quick (fun () ->
        let pct k =
          match Registry.find k with
          | Some { Registry.deployment_pct = Some p; _ } -> p
          | _ -> Alcotest.failf "missing %s" k
        in
        check (Alcotest.float 0.01) "firewall" 26.0 (pct "Firewall");
        check (Alcotest.float 0.01) "ids" 20.0 (pct "IDS");
        check (Alcotest.float 0.01) "gateway" 19.0 (pct "Gateway");
        check (Alcotest.float 0.01) "lb" 10.0 (pct "LoadBalancer");
        check (Alcotest.float 0.01) "caching" 10.0 (pct "Caching");
        check (Alcotest.float 0.01) "vpn" 7.0 (pct "VPN"));
    Alcotest.test_case "weighted kinds normalize to 1" `Quick (fun () ->
        let total =
          List.fold_left (fun acc (_, p) -> acc +. p) 0.0 (Registry.weighted_kinds ())
        in
        check (Alcotest.float 1e-9) "sum" 1.0 total);
    Alcotest.test_case "weighted kinds exclude unquantified rows" `Quick (fun () ->
        check Alcotest.bool "no NAT" true
          (not (List.mem_assoc "NAT" (Registry.weighted_kinds ()))));
    Alcotest.test_case "register adds a new NF type" `Quick (fun () ->
        Registry.register ~kind:"TestOnlyNf" ~profile:[ Action.Read Field.Ttl ];
        check Alcotest.bool "registered" true
          (Registry.profile_of "TestOnlyNf" = [ Action.Read Field.Ttl ]));
    Alcotest.test_case "register overwrites an existing profile" `Quick (fun () ->
        Registry.register ~kind:"TestOnlyNf2" ~profile:[ Action.Drop ];
        Registry.register ~kind:"TestOnlyNf2" ~profile:[ Action.Read Field.Tos ];
        check Alcotest.bool "overwritten" true
          (Registry.profile_of "TestOnlyNf2" = [ Action.Read Field.Tos ]));
    Alcotest.test_case "instantiate covers every built-in type" `Quick (fun () ->
        List.iter
          (fun kind ->
            match Registry.instantiate kind ~name:"x" with
            | Some nf -> check Alcotest.string kind kind nf.Nf.kind
            | None -> Alcotest.failf "no implementation for %s" kind)
          [
            "Firewall"; "IDS"; "IPS"; "Gateway"; "LoadBalancer"; "Caching"; "VPN";
            "NAT"; "Proxy"; "Compression"; "TrafficShaper"; "Monitor"; "Forwarder";
          ]);
    Alcotest.test_case "instantiated profiles match registry rows" `Quick (fun () ->
        List.iter
          (fun kind ->
            match Registry.instantiate kind ~name:"x" with
            | Some nf ->
                check Alcotest.bool kind true
                  (Action.normalize nf.Nf.profile = Registry.profile_of kind)
            | None -> Alcotest.failf "no implementation for %s" kind)
          [ "Firewall"; "IDS"; "IPS"; "LoadBalancer"; "VPN"; "Monitor"; "Forwarder" ]);
    Alcotest.test_case "instantiate unknown type" `Quick (fun () ->
        check Alcotest.bool "none" true (Registry.instantiate "Nope" ~name:"x" = None));
    Alcotest.test_case "instances builds fresh instances per call" `Quick (fun () ->
        let bindings = [ ("a", "Firewall"); ("b", "monitor") ] in
        let one = Registry.instances bindings and two = Registry.instances bindings in
        check Alcotest.string "kind by binding" "Monitor" (one "b").Nf.kind;
        check Alcotest.string "named by binding" "a" (one "a").Nf.name;
        check Alcotest.bool "fresh per call" false (one "a" == two "a");
        Alcotest.check_raises "unbound name" Not_found (fun () -> ignore (one "c")));
    Alcotest.test_case "instances refuses a kind with no implementation" `Quick (fun () ->
        Alcotest.check_raises "unknown kind"
          (Invalid_argument "Registry.instances: NF type \"Nope\" has no implementation")
          (fun () -> ignore (Registry.instances [ ("x", "Nope") ] "x")));
  ]

(* ------------------------------------------------------------------ *)
(* Declared counters                                                   *)
(* ------------------------------------------------------------------ *)

let counter_nf counters =
  Nf.make ~name:"c" ~kind:"Counting" ~profile:[] ~cost_cycles:(fun _ -> 1)
    ~state_access:State_access.[ global Read_only "table" ]
    ~counters
    (fun _ -> Nf.Forward)

let counters_tests =
  [
    Alcotest.test_case "one commutative entry per component, after the NF's own" `Quick
      (fun () ->
        let counters = Nf.counters [ ("hits", 1); ("per-port", 4) ] in
        check Alcotest.int "cells" 5 (Array.length (Nf.cells counters));
        let nf = counter_nf counters in
        check Alcotest.bool "declared" true
          (nf.Nf.state_access
          = Some
              State_access.
                [ global Read_only "table"; global Commutative "hits";
                  global Commutative "per-port" ]));
    Alcotest.test_case "merge sums cells and restore blits them" `Quick (fun () ->
        let counters = Nf.counters [ ("hits", 1); ("per-port", 2) ] in
        let nf = counter_nf counters in
        let cells = Nf.cells counters in
        Array.blit [| 1; 2; 3 |] 0 cells 0 3;
        let a = (Option.get nf.Nf.snapshot) () in
        Array.blit [| 10; 20; 30 |] 0 cells 0 3;
        let b = (Option.get nf.snapshot) () in
        (Option.get nf.restore) ((Option.get nf.merge) [ b; a ]);
        check Alcotest.(array int) "summed" [| 11; 22; 33 |] cells;
        (Option.get nf.restore) ((Option.get nf.extract) (fun _ -> true));
        check Alcotest.(array int) "zero shard" [| 0; 0; 0 |] cells);
    Alcotest.test_case "a checkpoint of another width is foreign" `Quick (fun () ->
        let nf = counter_nf (Nf.counters [ ("hits", 2) ]) in
        let other = counter_nf (Nf.counters [ ("hits", 3) ]) in
        Alcotest.check_raises "restore" (Invalid_argument "Nf.restore: foreign state")
          (fun () -> (Option.get nf.Nf.restore) ((Option.get other.Nf.snapshot) ())));
  ]

(* ------------------------------------------------------------------ *)
(* Declared tables                                                     *)
(* ------------------------------------------------------------------ *)

let keyed_nf ?counters ?state_digest ?snapshot ?restore tables =
  Nf.make ~name:"k" ~kind:"Keyed" ~profile:[] ~cost_cycles:(fun _ -> 1)
    ~state_access:State_access.[ global General "allocator" ]
    ?counters ?state_digest ?snapshot ?restore ~tables
    (fun _ -> Nf.Forward)

let flow_key f =
  let p = pkt ~flow:f () in
  (Packet.key_a p, Packet.key_b p)

let set table (a, b) cells = Array.blit cells 0 (Nf.row table ~a ~b) 0 (Array.length cells)
let cells_of table (a, b) = Array.to_list (Nf.find_row table ~a ~b)

let tables_tests =
  [
    Alcotest.test_case "tables, then the NF's own entries, then counters" `Quick (fun () ->
        let nf =
          keyed_nf
            ~counters:(Nf.counters [ ("hits", 1) ])
            [
              Nf.table ~label:"flows" ~scope:Per_flow ~mode:Commutative ~width:2;
              Nf.table ~label:"pairs" ~scope:Global ~mode:General ~width:1;
            ]
        in
        check Alcotest.bool "declared" true
          (nf.Nf.state_access
          = Some
              State_access.
                [
                  per_flow Commutative "flows"; global General "pairs";
                  global General "allocator"; global Commutative "hits";
                ]));
    Alcotest.test_case "a commutative table sums rows per key" `Quick (fun () ->
        let table () = Nf.table ~label:"pairs" ~scope:Global ~mode:Commutative ~width:2 in
        let t1 = table () and t2 = table () in
        let nf1 = keyed_nf [ t1 ] and nf2 = keyed_nf [ t2 ] in
        set t1 (1, 2) [| 1; 2 |];
        set t1 (3, 4) [| 5; 6 |];
        set t2 (1, 2) [| 10; 20 |];
        set t2 (7, 8) [| 1; 1 |];
        let snaps = [ (Option.get nf2.Nf.snapshot) (); (Option.get nf1.snapshot) () ] in
        (Option.get nf1.restore) ((Option.get nf1.merge) snaps);
        check Alcotest.int "keys" 3 (Nf.rows t1);
        check Alcotest.(list int) "summed" [ 11; 22 ] (cells_of t1 (1, 2));
        check Alcotest.(list int) "one side" [ 5; 6 ] (cells_of t1 (3, 4));
        check Alcotest.(list int) "other side" [ 1; 1 ] (cells_of t1 (7, 8));
        check Alcotest.(list int) "absent" [] (cells_of t1 (9, 9)));
    Alcotest.test_case "a general union takes an equal duplicate, refuses a conflict"
      `Quick (fun () ->
        let table () = Nf.table ~label:"bindings" ~scope:Per_flow ~mode:General ~width:1 in
        let t1 = table () and t2 = table () and t3 = table () in
        let nf1 = keyed_nf [ t1 ] and nf2 = keyed_nf [ t2 ] and nf3 = keyed_nf [ t3 ] in
        let k1 = flow_key (flow ()) and k2 = flow_key (flow ~sport:7 ()) in
        set t1 k1 [| 5 |];
        set t2 k1 [| 5 |];
        set t2 k2 [| 6 |];
        set t3 k1 [| 7 |];
        let snap (nf : Nf.t) = (Option.get nf.snapshot) () in
        (Option.get nf1.restore) ((Option.get nf1.merge) [ snap nf1; snap nf2 ]);
        check Alcotest.int "union" 2 (Nf.rows t1);
        check Alcotest.(list int) "duplicate kept" [ 5 ] (cells_of t1 k1);
        Alcotest.check_raises "conflict"
          (Invalid_argument "Nf.merge: two shards hold one key with different cells")
          (fun () -> ignore ((Option.get nf1.merge) [ snap nf1; snap nf3 ])));
    Alcotest.test_case "extract carves per-flow rows, moves no global row" `Quick
      (fun () ->
        let tables () =
          ( Nf.table ~label:"flows" ~scope:Per_flow ~mode:Commutative ~width:1,
            Nf.table ~label:"pairs" ~scope:Global ~mode:Commutative ~width:1 )
        in
        let counters = Nf.counters [ ("hits", 1) ] in
        let flows, pairs = tables () in
        let nf = keyed_nf ~counters [ flows; pairs ] in
        let f1 = flow () and f2 = flow ~sport:7 () in
        set flows (flow_key f1) [| 3 |];
        set flows (flow_key f2) [| 4 |];
        set pairs (1, 2) [| 9 |];
        (Nf.cells counters).(0) <- 5;
        let shard = (Option.get nf.extract) (fun f -> f = f1) in
        check Alcotest.int "carved out" 1 (Nf.rows flows);
        check Alcotest.(list int) "kept" [ 4 ] (cells_of flows (flow_key f2));
        check Alcotest.int "global stays" 1 (Nf.rows pairs);
        check Alcotest.int "counter stays" 5 (Nf.cells counters).(0);
        let counters' = Nf.counters [ ("hits", 1) ] in
        let flows', pairs' = tables () in
        let dst = keyed_nf ~counters:counters' [ flows'; pairs' ] in
        (Option.get dst.restore) shard;
        check Alcotest.(list int) "moved" [ 3 ] (cells_of flows' (flow_key f1));
        check Alcotest.int "only the match" 1 (Nf.rows flows');
        check Alcotest.int "zero global shard" 0 (Nf.rows pairs');
        check Alcotest.int "zero counter" 0 (Nf.cells counters').(0));
    Alcotest.test_case "tables refuse hand-written state machinery" `Quick (fun () ->
        let refused what build =
          Alcotest.check_raises what
            (Invalid_argument
               "Nf.make: tables derive state_digest, snapshot, restore, merge and extract")
            (fun () ->
              ignore (build [ Nf.table ~label:"t" ~scope:Global ~mode:General ~width:1 ]))
        in
        let state = (Option.get (keyed_nf []).Nf.snapshot) () in
        refused "state_digest" (keyed_nf ~state_digest:(fun () -> 0));
        refused "snapshot" (keyed_nf ~snapshot:(fun () -> state));
        refused "restore" (keyed_nf ~restore:ignore));
  ]

(* ------------------------------------------------------------------ *)
(* Action helpers                                                      *)
(* ------------------------------------------------------------------ *)

let action_tests =
  [
    Alcotest.test_case "kinds" `Quick (fun () ->
        check Alcotest.bool "read" true (Action.kind (Action.Read Field.Sip) = Action.K_read);
        check Alcotest.bool "write" true
          (Action.kind (Action.Write Field.Sip) = Action.K_write);
        check Alcotest.bool "addrm" true (Action.kind Action.Add_rm_header = Action.K_add_rm);
        check Alcotest.bool "drop" true (Action.kind Action.Drop = Action.K_drop));
    Alcotest.test_case "field extraction" `Quick (fun () ->
        check Alcotest.bool "read field" true
          (Action.field (Action.Read Field.Tos) = Some Field.Tos);
        check Alcotest.bool "drop field" true (Action.field Action.Drop = None));
    Alcotest.test_case "normalize sorts and dedups" `Quick (fun () ->
        let p = Action.[ Drop; Read Field.Sip; Drop; Read Field.Sip ] in
        check Alcotest.int "dedup" 2 (List.length (Action.normalize p)));
    Alcotest.test_case "profile predicates" `Quick (fun () ->
        let p = Action.[ Read Field.Sip; Write Field.Dip; Add_rm_header ] in
        check Alcotest.bool "reads" true (Action.reads p = [ Field.Sip ]);
        check Alcotest.bool "writes" true (Action.writes p = [ Field.Dip ]);
        check Alcotest.bool "addrm" true (Action.adds_or_removes_headers p);
        check Alcotest.bool "no drop" false (Action.may_drop p));
  ]

let () =
  Alcotest.run "nfp_nf"
    [
      ("action", action_tests);
      ("firewall", firewall_tests);
      ("forwarder", forwarder_tests);
      ("load_balancer", lb_tests);
      ("ids", ids_tests);
      ("vpn", vpn_tests);
      ("monitor", monitor_tests);
      ("nat", nat_tests);
      ("proxy", proxy_tests);
      ("caching", caching_tests);
      ("compression", compression_tests);
      ("traffic_shaper", shaper_tests);
      ("gateway", gateway_tests);
      ("registry", registry_tests);
      ("counters", counters_tests);
      ("tables", tables_tests);
    ]
