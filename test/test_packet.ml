(* Tests for nfp_packet: codecs, fields, metadata, copies. *)

open Nfp_packet

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let some_ip = Option.get (Flow.ip_of_string "10.1.2.3")
let other_ip = Option.get (Flow.ip_of_string "172.16.0.9")

let tcp_flow = Flow.make ~sip:some_ip ~dip:other_ip ~sport:1234 ~dport:80 ~proto:6
let udp_flow = Flow.make ~sip:some_ip ~dip:other_ip ~sport:53 ~dport:5353 ~proto:17
let icmp_flow = Flow.make ~sip:some_ip ~dip:other_ip ~sport:0 ~dport:0 ~proto:1

let fresh ?(payload = "hello") ?(flow = tcp_flow) () = Packet.create ~flow ~payload ()

(* ------------------------------------------------------------------ *)
(* Field                                                               *)
(* ------------------------------------------------------------------ *)

let field_tests =
  [
    Alcotest.test_case "to_string/of_string roundtrip" `Quick (fun () ->
        List.iter
          (fun f ->
            check Alcotest.bool (Field.to_string f) true
              (Field.of_string (Field.to_string f) = Some f))
          Field.all);
    Alcotest.test_case "of_string is case-insensitive" `Quick (fun () ->
        check Alcotest.bool "SIP" true (Field.of_string "SIP" = Some Field.Sip));
    Alcotest.test_case "of_string rejects junk" `Quick (fun () ->
        check Alcotest.bool "junk" true (Field.of_string "bogus" = None));
  ]

(* ------------------------------------------------------------------ *)
(* Meta                                                                *)
(* ------------------------------------------------------------------ *)

let meta_tests =
  (* The metadata lives flat in the packet: [Packet.stamp] checks the
     widths and the accessors read the components back. *)
  let stamped ~mid ~pid ~version =
    let p = fresh () in
    Packet.stamp p ~mid ~pid ~version;
    (Packet.mid p, Packet.pid p, Packet.version p)
  in
  let meta_t = Alcotest.(triple int int64 int) in
  [
    Alcotest.test_case "field widths enforced" `Quick (fun () ->
        let p = fresh () in
        Alcotest.check_raises "mid" (Invalid_argument "Packet.stamp: mid out of 20-bit range")
          (fun () -> Packet.stamp p ~mid:(1 lsl 20) ~pid:0L ~version:0);
        Alcotest.check_raises "pid" (Invalid_argument "Packet.stamp: pid out of 40-bit range")
          (fun () -> Packet.stamp p ~mid:0 ~pid:(Int64.shift_left 1L 40) ~version:0);
        Alcotest.check_raises "version"
          (Invalid_argument "Packet.stamp: version out of 4-bit range") (fun () ->
            Packet.stamp p ~mid:0 ~pid:0L ~version:16);
        Alcotest.check_raises "set_version"
          (Invalid_argument "Packet.set_version: version out of 4-bit range") (fun () ->
            Packet.set_version p 16);
        Alcotest.check_raises "header_only_copy"
          (Invalid_argument "Packet.header_only_copy: version out of 4-bit range") (fun () ->
            ignore (Packet.header_only_copy p ~version:(-1))));
    Alcotest.test_case "extremes roundtrip" `Quick (fun () ->
        let mid = (1 lsl 20) - 1 and pid = Int64.sub (Int64.shift_left 1L 40) 1L in
        check meta_t "max" (mid, pid, 15) (stamped ~mid ~pid ~version:15));
    Alcotest.test_case "set_version keeps mid and pid" `Quick (fun () ->
        let p = fresh () in
        Packet.stamp p ~mid:3 ~pid:42L ~version:1;
        Packet.set_version p 5;
        check meta_t "retagged" (3, 42L, 5) (Packet.mid p, Packet.pid p, Packet.version p));
    qtest "roundtrip over random metadata"
      QCheck.(triple (int_range 0 0xfffff) (int_range 0 0x3fffffff) (int_range 0 15))
      (fun (mid, pid, version) ->
        let pid = Int64.of_int pid in
        stamped ~mid ~pid ~version = (mid, pid, version));
    Alcotest.test_case "pp prints the flat metadata" `Quick (fun () ->
        let p = fresh ~payload:"abc" () in
        Packet.stamp p ~mid:7 ~pid:1234567L ~version:1;
        let c = Packet.header_only_copy p ~version:3 in
        let shown q = Format.asprintf "%a" Packet.pp q in
        check Alcotest.string "stamped"
          "10.1.2.3:1234 -> 172.16.0.9:80 (proto 6) len=57B ttl=64 tos=0 [mid=7 pid=1234567 v1]"
          (shown p);
        check Alcotest.string "copy"
          "10.1.2.3:1234 -> 172.16.0.9:80 (proto 6) len=54B ttl=64 tos=0 [mid=7 pid=1234567 v3]"
          (shown c);
        Packet.set_version c 2;
        check Alcotest.string "retagged"
          "10.1.2.3:1234 -> 172.16.0.9:80 (proto 6) len=54B ttl=64 tos=0 [mid=7 pid=1234567 v2]"
          (shown c));
  ]

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let flow_tests =
  [
    Alcotest.test_case "reverse is an involution" `Quick (fun () ->
        check Alcotest.bool "rev rev" true
          (Flow.equal tcp_flow (Flow.reverse (Flow.reverse tcp_flow))));
    Alcotest.test_case "reverse swaps endpoints" `Quick (fun () ->
        let r = Flow.reverse tcp_flow in
        check Alcotest.int32 "sip" tcp_flow.Flow.dip r.Flow.sip;
        check Alcotest.int "sport" tcp_flow.Flow.dport r.Flow.sport);
    Alcotest.test_case "port range validated" `Quick (fun () ->
        Alcotest.check_raises "port" (Invalid_argument "Flow.make: port out of range")
          (fun () -> ignore (Flow.make ~sip:0l ~dip:0l ~sport:70000 ~dport:0 ~proto:6)));
    Alcotest.test_case "protocol range validated" `Quick (fun () ->
        Alcotest.check_raises "proto" (Invalid_argument "Flow.make: protocol out of range")
          (fun () -> ignore (Flow.make ~sip:0l ~dip:0l ~sport:0 ~dport:0 ~proto:256)));
    Alcotest.test_case "ip printing" `Quick (fun () ->
        check Alcotest.string "dotted" "10.1.2.3" (Flow.ip_to_string some_ip));
    Alcotest.test_case "ip parsing rejects malformed" `Quick (fun () ->
        List.iter
          (fun s -> check Alcotest.bool s true (Flow.ip_of_string s = None))
          [ "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "a.b.c.d"; "" ]);
    Alcotest.test_case "equal flows hash equally" `Quick (fun () ->
        let f2 = Flow.make ~sip:some_ip ~dip:other_ip ~sport:1234 ~dport:80 ~proto:6 in
        check Alcotest.int "hash" (Flow.hash tcp_flow) (Flow.hash f2));
    qtest ~count:100 "ip_of_string inverts ip_to_string"
      QCheck.(int_range 0 0xffffff)
      (fun low ->
        let ip = Int32.of_int (low lor (77 lsl 24)) in
        Flow.ip_of_string (Flow.ip_to_string ip) = Some ip);
  ]

(* ------------------------------------------------------------------ *)
(* Packet                                                              *)
(* ------------------------------------------------------------------ *)

let packet_tests =
  [
    Alcotest.test_case "tcp packet layout" `Quick (fun () ->
        let p = fresh ~payload:"0123456789" () in
        check Alcotest.int "wire length" (14 + 20 + 20 + 10) (Packet.wire_length p);
        check Alcotest.int "header length" 54 (Packet.header_length p);
        check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p));
    Alcotest.test_case "udp packet layout" `Quick (fun () ->
        let p = fresh ~flow:udp_flow ~payload:"xyz" () in
        check Alcotest.int "wire length" (14 + 20 + 8 + 3) (Packet.wire_length p);
        check Alcotest.int "udp header" (14 + 20 + 8) (Packet.header_length p));
    Alcotest.test_case "no transport header for other protocols" `Quick (fun () ->
        let p = fresh ~flow:icmp_flow ~payload:"ping" () in
        check Alcotest.int "wire length" (14 + 20 + 4) (Packet.wire_length p);
        check Alcotest.int "sport reads 0" 0 (Packet.sport p);
        Packet.set_sport p 99;
        check Alcotest.int "set_sport is a no-op" 0 (Packet.sport p));
    Alcotest.test_case "flow extraction matches construction" `Quick (fun () ->
        let p = fresh () in
        check Alcotest.bool "flow" true (Flow.equal tcp_flow (Packet.flow p)));
    Alcotest.test_case "of_bytes/to_bytes roundtrip" `Quick (fun () ->
        let p = fresh () in
        match Packet.of_bytes (Packet.to_bytes p) with
        | Ok q -> check Alcotest.bool "equal wire" true (Packet.equal_wire p q)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "of_bytes validates" `Quick (fun () ->
        (match Packet.of_bytes (Bytes.create 10) with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted short frame");
        let p = Packet.to_bytes (fresh ()) in
        Bytes.set p 12 '\x86' (* wrong ethertype *);
        (match Packet.of_bytes p with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted bad ethertype");
        let p = Packet.to_bytes (fresh ()) in
        Bytes.set p 17 '\xff' (* inconsistent total length *);
        match Packet.of_bytes p with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted bad length");
    Alcotest.test_case "setters keep the checksum valid" `Quick (fun () ->
        let p = fresh () in
        Packet.set_sip p other_ip;
        Packet.set_dip p some_ip;
        Packet.set_ttl p 1;
        Packet.set_tos p 0x2e;
        check Alcotest.bool "still valid" true (Packet.ip_checksum_valid p);
        check Alcotest.int32 "sip" other_ip (Packet.sip p);
        check Alcotest.int "ttl" 1 (Packet.ttl p);
        check Alcotest.int "tos" 0x2e (Packet.tos p));
    Alcotest.test_case "transport checksums are computed and maintained" `Quick (fun () ->
        let p = fresh ~payload:"checksum me please" () in
        check Alcotest.bool "tcp valid at creation" true (Packet.l4_checksum_valid p);
        (* Address rewrites touch the pseudo-header. *)
        Packet.set_sip p other_ip;
        Packet.set_dport p 4433;
        check Alcotest.bool "valid after rewrites" true (Packet.l4_checksum_valid p);
        Packet.set_payload p "a completely different payload";
        check Alcotest.bool "valid after payload change" true (Packet.l4_checksum_valid p);
        let u = fresh ~flow:udp_flow ~payload:"udp data" () in
        check Alcotest.bool "udp valid" true (Packet.l4_checksum_valid u);
        Packet.set_dip u some_ip;
        check Alcotest.bool "udp valid after rewrite" true (Packet.l4_checksum_valid u));
    Alcotest.test_case "transport checksum corruption is detected" `Quick (fun () ->
        let p = fresh ~payload:"sensitive" () in
        let b = Packet.to_bytes p in
        (* Flip a payload byte without fixing the checksum. *)
        Bytes.set b 54 'X';
        match Packet.of_bytes b with
        | Ok q -> check Alcotest.bool "invalid" false (Packet.l4_checksum_valid q)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "header-only copies carry a fresh transport checksum" `Quick
      (fun () ->
        let p = fresh ~payload:(String.make 400 'z') () in
        let c = Packet.header_only_copy p ~version:2 in
        check Alcotest.bool "copy valid" true (Packet.l4_checksum_valid c));
    Alcotest.test_case "port setters" `Quick (fun () ->
        let p = fresh () in
        Packet.set_sport p 1111;
        Packet.set_dport p 2222;
        check Alcotest.int "sport" 1111 (Packet.sport p);
        check Alcotest.int "dport" 2222 (Packet.dport p);
        Alcotest.check_raises "range" (Invalid_argument "Packet: port out of range")
          (fun () -> Packet.set_sport p (-1)));
    Alcotest.test_case "payload replacement adjusts lengths" `Quick (fun () ->
        let p = fresh ~payload:"short" () in
        Packet.set_payload p "a much longer payload than before";
        check Alcotest.string "payload" "a much longer payload than before"
          (Packet.payload p);
        check Alcotest.int "wire" (54 + 33) (Packet.wire_length p);
        check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p);
        match Packet.of_bytes (Packet.to_bytes p) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "udp length field follows payload" `Quick (fun () ->
        let p = fresh ~flow:udp_flow ~payload:"12345" () in
        Packet.set_payload p "123456789";
        let b = Packet.to_bytes p in
        let udp_len = (Char.code (Bytes.get b 38) lsl 8) lor Char.code (Bytes.get b 39) in
        check Alcotest.int "udp length" (8 + 9) udp_len);
    Alcotest.test_case "AH add and remove" `Quick (fun () ->
        let p = fresh () in
        check Alcotest.bool "no AH" false (Packet.has_ah p);
        Packet.add_ah p ~spi:0xdeadl ~seq:7l ~icv:0xbeefl;
        check Alcotest.bool "AH" true (Packet.has_ah p);
        check Alcotest.int "inner proto visible" 6 (Packet.proto p);
        check Alcotest.int "wire grows" (54 + 16 + 5) (Packet.wire_length p);
        check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p);
        check Alcotest.int "ports still readable" 1234 (Packet.sport p);
        (match Packet.remove_ah p with
        | Some (spi, seq, icv) ->
            check Alcotest.int32 "spi" 0xdeadl spi;
            check Alcotest.int32 "seq" 7l seq;
            check Alcotest.int32 "icv" 0xbeefl icv
        | None -> Alcotest.fail "AH missing");
        check Alcotest.bool "restored" true (Packet.equal_wire p (fresh ())));
    Alcotest.test_case "double AH rejected" `Quick (fun () ->
        let p = fresh () in
        Packet.add_ah p ~spi:1l ~seq:1l ~icv:1l;
        Alcotest.check_raises "double"
          (Invalid_argument "Packet.add_ah: AH header already present") (fun () ->
            Packet.add_ah p ~spi:2l ~seq:2l ~icv:2l));
    Alcotest.test_case "remove_ah on plain packet" `Quick (fun () ->
        check Alcotest.bool "none" true (Packet.remove_ah (fresh ()) = None));
    Alcotest.test_case "header-only copy" `Quick (fun () ->
        let p = fresh ~payload:(String.make 1000 'x') () in
        Packet.stamp p ~mid:5 ~pid:77L ~version:1;
        let c = Packet.header_only_copy p ~version:2 in
        check Alcotest.int "54 bytes" 54 (Packet.wire_length c);
        check Alcotest.string "no payload" "" (Packet.payload c);
        check Alcotest.int "version tagged" 2 (Packet.version c);
        check Alcotest.int64 "pid kept" 77L (Packet.pid c);
        check Alcotest.bool "valid checksum" true (Packet.ip_checksum_valid c);
        (match Packet.of_bytes (Packet.to_bytes c) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        check Alcotest.int "original intact" 1054 (Packet.wire_length p));
    Alcotest.test_case "header-only copy of a UDP packet fixes its length" `Quick
      (fun () ->
        let p = fresh ~flow:udp_flow ~payload:(String.make 100 'u') () in
        let c = Packet.header_only_copy p ~version:3 in
        match Packet.of_bytes (Packet.to_bytes c) with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "full copy is independent" `Quick (fun () ->
        let p = fresh () in
        let c = Packet.full_copy p in
        Packet.set_sip c 42l;
        check Alcotest.bool "original unchanged" true (Packet.sip p = some_ip));
    Alcotest.test_case "header copy keeps AH" `Quick (fun () ->
        let p = fresh ~payload:(String.make 64 'p') () in
        Packet.add_ah p ~spi:1l ~seq:1l ~icv:1l;
        let c = Packet.header_only_copy p ~version:2 in
        check Alcotest.bool "AH kept" true (Packet.has_ah c);
        check Alcotest.int "70 bytes" 70 (Packet.wire_length c));
    Alcotest.test_case "get_field canonical encodings" `Quick (fun () ->
        let p = fresh ~payload:"pp" () in
        check Alcotest.int "sip 4 bytes" 4 (String.length (Packet.get_field p Field.Sip));
        check Alcotest.int "sport 2 bytes" 2 (String.length (Packet.get_field p Field.Sport));
        check Alcotest.int "ttl 1 byte" 1 (String.length (Packet.get_field p Field.Ttl));
        check Alcotest.string "payload" "pp" (Packet.get_field p Field.Payload));
    Alcotest.test_case "set_field inverts get_field for every field" `Quick (fun () ->
        let src = fresh ~flow:udp_flow ~payload:"source!" () in
        let dst = fresh ~payload:"different" () in
        List.iter
          (fun f ->
            match f with
            | Field.Proto -> () (* changing proto re-interprets the L4 header *)
            | Field.Len -> () (* clamped to the destination's header floor *)
            | _ ->
                Packet.set_field dst f (Packet.get_field src f);
                check Alcotest.string (Field.to_string f) (Packet.get_field src f)
                  (Packet.get_field dst f))
          Field.all);
    Alcotest.test_case "set_field Len resizes the payload" `Quick (fun () ->
        let p = fresh ~payload:"0123456789" () in
        (* Shrink to total length 45 = 40B TCP/IP headers + 5B payload. *)
        Packet.set_field p Field.Len "\x00\x2d";
        check Alcotest.string "truncated" "01234" (Packet.payload p);
        check Alcotest.string "reads back" "\x00\x2d" (Packet.get_field p Field.Len);
        (* Grow back to 50: zero-padded. *)
        Packet.set_field p Field.Len "\x00\x32";
        check Alcotest.string "padded" "01234\x00\x00\x00\x00\x00" (Packet.payload p);
        check Alcotest.bool "checksum" true (Packet.ip_checksum_valid p));
    Alcotest.test_case "set_field validates encoding size" `Quick (fun () ->
        let p = fresh () in
        Alcotest.check_raises "bad size"
          (Invalid_argument "Packet: field encoding must be 4 bytes") (fun () ->
            Packet.set_field p Field.Sip "xx"));
    qtest ~count:100 "field write/read roundtrip"
      QCheck.(pair (oneofl [ Field.Sip; Field.Dip ]) (int_range 0 0xffffff))
      (fun (field, v) ->
        let p = fresh () in
        let enc = String.init 4 (fun i -> Char.chr ((v lsr ((3 - i) * 8)) land 0xff)) in
        Packet.set_field p field enc;
        Packet.get_field p field = enc && Packet.ip_checksum_valid p);
    qtest ~count:200 "incremental checksum updates stay valid under any rewrites"
      QCheck.(
        pair
          (list (pair (int_range 0 3) (int_range 0 0xffff)))
          (string_of_size (Gen.int_range 0 200)))
      (fun (ops, payload) ->
        let p = fresh ~payload () in
        let u = fresh ~flow:udp_flow ~payload () in
        List.iter
          (fun (which, v) ->
            let apply q =
              match which with
              | 0 -> Packet.set_sip q (Int32.of_int v)
              | 1 -> Packet.set_dip q (Int32.of_int (v lxor 0x5a5a))
              | 2 -> Packet.set_sport q (v land 0xffff)
              | _ -> Packet.set_dport q (v land 0xffff)
            in
            apply p;
            apply u)
          ops;
        Packet.l4_checksum_valid p && Packet.l4_checksum_valid u
        && Packet.ip_checksum_valid p && Packet.ip_checksum_valid u);
    Alcotest.test_case "ah_fields reads the AH header in place" `Quick (fun () ->
        let p = fresh () in
        check Alcotest.bool "absent" true (Packet.ah_fields p = None);
        Packet.add_ah p ~spi:0xdeadl ~seq:(-7l) ~icv:0xbeefl;
        let before = Packet.to_bytes p in
        check Alcotest.bool "fields" true (Packet.ah_fields p = Some (0xdeadl, -7l, 0xbeefl));
        check Alcotest.bool "unchanged" true (Bytes.equal before (Packet.to_bytes p)));
    (* TCP, UDP and ICMP packets with random addresses, ports, TTL, TOS
       and payload, each with or without an AH header: transfers cover
       every field, ports into and out of packets without a transport
       header, and addresses with the top bit set. *)
    qtest ~count:1000 "transfer_field writes what set_field of get_field writes"
      (let side =
         QCheck.(
           quad (oneofl [ 6; 17; 1 ]) bool (int_range 0 0xffff)
             (string_of_size (Gen.int_range 0 64)))
       in
       QCheck.(triple (oneofl Field.all) side side))
      (fun (field, a, b) ->
        let mk (proto, ah, v, payload) =
          let ports = proto <> 1 in
          let flow =
            Flow.make
              ~sip:(Int32.of_int (v * 0x10001))
              ~dip:(Int32.of_int ((v lxor 0xa5a5) lsl 16))
              ~sport:(if ports then v else 0)
              ~dport:(if ports then v lxor 0x1234 else 0)
              ~proto
          in
          let p = Packet.create ~flow ~payload () in
          Packet.set_ttl p (v land 0xff);
          Packet.set_tos p (v lsr 8);
          if ah then Packet.add_ah p ~spi:(Int32.of_int v) ~seq:1l ~icv:2l;
          p
        in
        let src = mk a and dst = mk b in
        let expected = Packet.full_copy dst in
        Packet.set_field expected field (Packet.get_field src field);
        Packet.transfer_field ~dst ~src field;
        Packet.equal_wire dst expected
        && Packet.header_length dst = Packet.header_length expected
        && Packet.proto dst = Packet.proto expected);
    (* The reference lays the RFC 793 pseudo-header out as bytes
       (source, destination, zero, protocol, L4 length) ahead of the
       segment with its checksum field zeroed, and takes the RFC 1071
       checksum of the lot. TCP and UDP, behind an AH header or not,
       as created or as a header-only copy (whose checksum is
       recomputed over the trimmed segment). *)
    qtest ~count:300 "transport checksums equal an explicit pseudo-header reference"
      QCheck.(
        quad
          (triple (oneofl [ 6; 17 ]) bool bool)
          (pair int32 int32) (int_range 0 0xffff)
          (string_of_size (Gen.int_range 0 200)))
      (fun ((proto, ah, copy), (sip, dip), port, payload) ->
        let flow = Flow.make ~sip ~dip ~sport:port ~dport:(port lxor 0x4321) ~proto in
        let p = Packet.create ~flow ~payload () in
        if ah then Packet.add_ah p ~spi:7l ~seq:1l ~icv:2l;
        let p = if copy then Packet.header_only_copy p ~version:2 else p in
        let b = Packet.to_bytes p in
        let l4o = 14 + 20 + if ah then 16 else 0 in
        let field = l4o + if proto = 6 then 16 else 6 in
        let seg = Bytes.sub b l4o (Bytes.length b - l4o) in
        Bytes.set_uint16_be seg (field - l4o) 0;
        let pseudo = Bytes.make 12 '\x00' in
        Bytes.blit b 26 pseudo 0 8;
        Bytes.set_uint8 pseudo 9 proto;
        Bytes.set_uint16_be pseudo 10 (Bytes.length seg);
        let whole = Bytes.cat pseudo seg in
        let expected = Nfp_algo.Checksum.compute whole ~pos:0 ~len:(Bytes.length whole) in
        let expected = if expected = 0 && proto = 17 then 0xffff else expected in
        Bytes.get_uint16_be b field = expected);
    qtest ~count:100 "random payloads roundtrip through create/parse"
      QCheck.(string_of_size (Gen.int_range 0 1446))
      (fun payload ->
        let p = fresh ~payload () in
        match Packet.of_bytes (Packet.to_bytes p) with
        | Ok q -> Packet.payload q = payload && Packet.equal_wire p q
        | Error _ -> false);
  ]

(* ------------------------------------------------------------------ *)
(* Flow_match                                                          *)
(* ------------------------------------------------------------------ *)

let flow_match_tests =
  [
    Alcotest.test_case "any matches everything" `Quick (fun () ->
        check Alcotest.bool "tcp" true (Flow_match.matches Flow_match.any tcp_flow);
        check Alcotest.bool "udp" true (Flow_match.matches Flow_match.any udp_flow);
        check Alcotest.bool "is_any" true (Flow_match.is_any Flow_match.any));
    Alcotest.test_case "prefix matching" `Quick (fun () ->
        let m = Flow_match.make ~sip_prefix:(Option.get (Flow.ip_of_string "10.1.0.0"), 16) () in
        check Alcotest.bool "inside" true (Flow_match.matches m tcp_flow);
        let m24 = Flow_match.make ~sip_prefix:(Option.get (Flow.ip_of_string "10.1.3.0"), 24) () in
        check Alcotest.bool "outside" false (Flow_match.matches m24 tcp_flow));
    Alcotest.test_case "port ranges inclusive" `Quick (fun () ->
        let m = Flow_match.make ~dport_range:(80, 80) () in
        check Alcotest.bool "hit" true (Flow_match.matches m tcp_flow);
        let m2 = Flow_match.make ~dport_range:(81, 90) () in
        check Alcotest.bool "miss" false (Flow_match.matches m2 tcp_flow));
    Alcotest.test_case "protocol match" `Quick (fun () ->
        let m = Flow_match.make ~proto:17 () in
        check Alcotest.bool "udp" true (Flow_match.matches m udp_flow);
        check Alcotest.bool "tcp" false (Flow_match.matches m tcp_flow));
    Alcotest.test_case "of_flow matches exactly that flow" `Quick (fun () ->
        let m = Flow_match.of_flow tcp_flow in
        check Alcotest.bool "self" true (Flow_match.matches m tcp_flow);
        check Alcotest.bool "other" false (Flow_match.matches m udp_flow);
        check Alcotest.bool "reversed" false (Flow_match.matches m (Flow.reverse tcp_flow)));
    Alcotest.test_case "matches_packet goes through the 5-tuple" `Quick (fun () ->
        let m = Flow_match.make ~dport_range:(80, 80) () in
        check Alcotest.bool "packet" true (Flow_match.matches_packet m (fresh ())));
    Alcotest.test_case "validation" `Quick (fun () ->
        Alcotest.check_raises "prefix" (Invalid_argument "Flow_match: prefix length must be in [0, 32]")
          (fun () -> ignore (Flow_match.make ~sip_prefix:(0l, 40) ()));
        Alcotest.check_raises "range" (Invalid_argument "Flow_match: invalid dport range")
          (fun () -> ignore (Flow_match.make ~dport_range:(10, 5) ())));
    Alcotest.test_case "zero-length prefix is a wildcard" `Quick (fun () ->
        let m = Flow_match.make ~sip_prefix:(0l, 0) () in
        check Alcotest.bool "any sip" true (Flow_match.matches m tcp_flow));
    Alcotest.test_case "/0 prefix matches regardless of address bits" `Quick (fun () ->
        (* A /0 with a non-zero address still matches everything: zero
           mask bits means no address bits are compared. *)
        let m = Flow_match.make ~sip_prefix:(other_ip, 0) ~dip_prefix:(some_ip, 0) () in
        check Alcotest.bool "tcp" true (Flow_match.matches m tcp_flow);
        check Alcotest.bool "udp" true (Flow_match.matches m udp_flow);
        check Alcotest.bool "icmp" true (Flow_match.matches m icmp_flow));
    Alcotest.test_case "/32 prefix is an exact address match" `Quick (fun () ->
        let m = Flow_match.make ~sip_prefix:(some_ip, 32) () in
        check Alcotest.bool "exact" true (Flow_match.matches m tcp_flow);
        let off_by_one = Int32.add some_ip 1l in
        let m2 = Flow_match.make ~sip_prefix:(off_by_one, 32) () in
        check Alcotest.bool "adjacent" false (Flow_match.matches m2 tcp_flow);
        let m3 = Flow_match.make ~dip_prefix:(other_ip, 32) () in
        check Alcotest.bool "dip exact" true (Flow_match.matches m3 tcp_flow));
    Alcotest.test_case "port range boundaries" `Quick (fun () ->
        (* Flow with sport 0 and dport 0 (icmp_flow) sits on the lower
           boundary; ranges are inclusive on both ends. *)
        let low = Flow_match.make ~sport_range:(0, 0) () in
        check Alcotest.bool "sport 0 hit" true (Flow_match.matches low icmp_flow);
        check Alcotest.bool "sport 0 miss" false (Flow_match.matches low tcp_flow);
        let full = Flow_match.make ~sport_range:(0, 65535) ~dport_range:(0, 65535) () in
        check Alcotest.bool "full range tcp" true (Flow_match.matches full tcp_flow);
        check Alcotest.bool "full range icmp" true (Flow_match.matches full icmp_flow);
        let top = Flow_match.make ~dport_range:(65535, 65535) () in
        let f = Flow.make ~sip:some_ip ~dip:other_ip ~sport:1 ~dport:65535 ~proto:6 in
        check Alcotest.bool "dport 65535 hit" true (Flow_match.matches top f);
        check Alcotest.bool "dport 65535 miss" false (Flow_match.matches top tcp_flow);
        let single = Flow_match.make ~sport_range:(1234, 1234) () in
        check Alcotest.bool "single-port hit" true (Flow_match.matches single tcp_flow);
        check Alcotest.bool "single-port miss" false (Flow_match.matches single udp_flow);
        (* Edge of an interior range: ends included, neighbours excluded. *)
        let r = Flow_match.make ~dport_range:(80, 443) () in
        let at p = Flow.make ~sip:some_ip ~dip:other_ip ~sport:1 ~dport:p ~proto:6 in
        check Alcotest.bool "low end" true (Flow_match.matches r (at 80));
        check Alcotest.bool "high end" true (Flow_match.matches r (at 443));
        check Alcotest.bool "below" false (Flow_match.matches r (at 79));
        check Alcotest.bool "above" false (Flow_match.matches r (at 444)));
    Alcotest.test_case "proto mismatch rejects even when tuples agree" `Quick (fun () ->
        let m =
          Flow_match.make ~sip_prefix:(some_ip, 32) ~dip_prefix:(other_ip, 32)
            ~sport_range:(1234, 1234) ~dport_range:(80, 80) ~proto:17 ()
        in
        check Alcotest.bool "wrong proto" false (Flow_match.matches m tcp_flow);
        let m6 = { m with Flow_match.proto = Some 6 } in
        check Alcotest.bool "right proto" true (Flow_match.matches m6 tcp_flow));
    Alcotest.test_case "is_any / of_flow round-trips" `Quick (fun () ->
        check Alcotest.bool "make () is any" true (Flow_match.is_any (Flow_match.make ()));
        check Alcotest.bool "of_flow not any" false (Flow_match.is_any (Flow_match.of_flow tcp_flow));
        check Alcotest.bool "proto-only not any" false
          (Flow_match.is_any (Flow_match.make ~proto:6 ()));
        (* of_flow pins every field: it accepts exactly the source flow. *)
        List.iter
          (fun f ->
            let m = Flow_match.of_flow f in
            check Alcotest.bool "self" true (Flow_match.matches m f);
            List.iter
              (fun g ->
                if not (Flow.equal f g) then
                  check Alcotest.bool "other" false (Flow_match.matches m g))
              [ tcp_flow; udp_flow; icmp_flow; Flow.reverse f ])
          [ tcp_flow; udp_flow; icmp_flow ]);
    qtest "of_flow accepts only its own flow" QCheck.(pair small_int small_int)
      (fun (a, b) ->
        let mk x =
          Flow.make ~sip:(Int32.of_int (0x0a000000 + x)) ~dip:other_ip
            ~sport:(x land 0xffff) ~dport:80 ~proto:6
        in
        let fa = mk a and fb = mk b in
        let m = Flow_match.of_flow fa in
        Flow_match.matches m fb = Flow.equal fa fb);
  ]

let () =
  Alcotest.run "nfp_packet"
    [
      ("field", field_tests);
      ("meta", meta_tests);
      ("flow", flow_tests);
      ("flow_match", flow_match_tests);
      ("packet", packet_tests);
    ]
