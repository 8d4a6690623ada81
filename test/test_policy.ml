(* Tests for nfp_policy: rule types, the DSL parser, and conflict
   detection (paper §3). *)

open Nfp_policy

let check = Alcotest.check

let parse_ok text =
  match Parser.parse text with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %s" e

let parse_err text =
  match Parser.parse text with
  | Ok _ -> Alcotest.failf "parse unexpectedly succeeded: %s" text
  | Error e -> e

(* ------------------------------------------------------------------ *)
(* Rule                                                                *)
(* ------------------------------------------------------------------ *)

let rule_tests =
  [
    Alcotest.test_case "of_chain builds neighbouring orders" `Quick (fun () ->
        check Alcotest.bool "three rules" true
          (Rule.of_chain [ "a"; "b"; "c"; "d" ]
          = [ Rule.Order ("a", "b"); Rule.Order ("b", "c"); Rule.Order ("c", "d") ]));
    Alcotest.test_case "of_chain of one NF is empty" `Quick (fun () ->
        check Alcotest.bool "empty" true (Rule.of_chain [ "a" ] = []));
    Alcotest.test_case "nfs_of_rules dedups in appearance order" `Quick (fun () ->
        let rules =
          [ Rule.Order ("b", "a"); Rule.Priority ("a", "c"); Rule.Position ("b", Rule.Last) ]
        in
        check Alcotest.(list string) "order" [ "b"; "a"; "c" ] (Rule.nfs_of_rules rules));
    Alcotest.test_case "pp matches the paper syntax" `Quick (fun () ->
        check Alcotest.string "order" "Order(vpn, before, mon)"
          (Format.asprintf "%a" Rule.pp (Rule.Order ("vpn", "mon")));
        check Alcotest.string "priority" "Priority(ips > fw)"
          (Format.asprintf "%a" Rule.pp (Rule.Priority ("ips", "fw")));
        check Alcotest.string "position" "Position(vpn, first)"
          (Format.asprintf "%a" Rule.pp (Rule.Position ("vpn", Rule.First))));
  ]

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parser_tests =
  [
    Alcotest.test_case "order rule with 'before'" `Quick (fun () ->
        let p = parse_ok "Order(a, before, b)" in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Order ("a", "b") ]));
    Alcotest.test_case "order rule without 'before'" `Quick (fun () ->
        let p = parse_ok "Order(a, b)" in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Order ("a", "b") ]));
    Alcotest.test_case "priority with > syntax" `Quick (fun () ->
        let p = parse_ok "Priority(ips > fw)" in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Priority ("ips", "fw") ]));
    Alcotest.test_case "priority with comma syntax" `Quick (fun () ->
        let p = parse_ok "Priority(ips, fw)" in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Priority ("ips", "fw") ]));
    Alcotest.test_case "position first and last" `Quick (fun () ->
        let p = parse_ok "Position(vpn, first)\nPosition(lb, LAST)" in
        check Alcotest.bool "rules" true
          (p.rules = [ Rule.Position ("vpn", Rule.First); Rule.Position ("lb", Rule.Last) ]));
    Alcotest.test_case "keywords are case-insensitive" `Quick (fun () ->
        let p = parse_ok "ORDER(a, BEFORE, b)" in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Order ("a", "b") ]));
    Alcotest.test_case "NF bindings collected" `Quick (fun () ->
        let p = parse_ok "NF(fw, Firewall)\nNF(mon, Monitor)" in
        check
          Alcotest.(list (pair string string))
          "bindings"
          [ ("fw", "Firewall"); ("mon", "Monitor") ]
          p.bindings);
    Alcotest.test_case "chain sugar expands to orders" `Quick (fun () ->
        let p = parse_ok "Chain(a, b, c)" in
        check Alcotest.bool "rules" true
          (p.rules = [ Rule.Order ("a", "b"); Rule.Order ("b", "c") ]));
    Alcotest.test_case "comments and blank lines ignored" `Quick (fun () ->
        let p = parse_ok "# header\n\nOrder(a, b) # trailing\n\n# footer" in
        check Alcotest.int "one rule" 1 (List.length p.rules));
    Alcotest.test_case "whitespace tolerated" `Quick (fun () ->
        let p = parse_ok "  Order (  a ,   before ,  b )  " in
        check Alcotest.bool "rule" true (p.rules = [ Rule.Order ("a", "b") ]));
    Alcotest.test_case "errors carry line numbers" `Quick (fun () ->
        let e = parse_err "Order(a, b)\nBogus(x)" in
        check Alcotest.bool "line 2" true
          (String.length e >= 7 && String.sub e 0 7 = "line 2:"));
    Alcotest.test_case "unknown keyword rejected" `Quick (fun () ->
        ignore (parse_err "Sequence(a, b)"));
    Alcotest.test_case "missing parenthesis rejected" `Quick (fun () ->
        ignore (parse_err "Order(a, b"));
    Alcotest.test_case "bad position rejected" `Quick (fun () ->
        ignore (parse_err "Position(a, middle)"));
    Alcotest.test_case "chain of one rejected" `Quick (fun () ->
        ignore (parse_err "Chain(a)"));
    Alcotest.test_case "invalid NF names rejected" `Quick (fun () ->
        ignore (parse_err "Order(a b, c)"));
    Alcotest.test_case "order arity rejected" `Quick (fun () ->
        ignore (parse_err "Order(a, b, c, d)"));
    Alcotest.test_case "to_string output reparses" `Quick (fun () ->
        let p =
          parse_ok
            "NF(fw, Firewall)\nNF(mon, Monitor)\nPosition(fw, first)\nOrder(fw, mon)\n\
             Priority(fw > mon)"
        in
        let p2 = parse_ok (Parser.to_string p) in
        check Alcotest.bool "bindings" true (p.bindings = p2.bindings);
        check Alcotest.bool "rules" true (p.rules = p2.rules));
    Alcotest.test_case "parse_rule single" `Quick (fun () ->
        match Parser.parse_rule "Order(x, before, y)" with
        | Ok r -> check Alcotest.bool "rule" true (r = Rule.Order ("x", "y"))
        | Error e -> Alcotest.fail e);
  ]

(* ------------------------------------------------------------------ *)
(* Validate                                                            *)
(* ------------------------------------------------------------------ *)

let has_conflict policy pred = List.exists pred (Validate.check policy)

let mk ?(bindings = []) rules = { Rule.bindings; rules }

let validate_tests =
  [
    Alcotest.test_case "clean policy has no conflicts" `Quick (fun () ->
        let p =
          mk
            ~bindings:[ ("fw", "Firewall"); ("mon", "Monitor") ]
            [ Rule.Order ("fw", "mon") ]
        in
        check Alcotest.bool "valid" true (Validate.check p = []));
    Alcotest.test_case "type names usable without bindings" `Quick (fun () ->
        let p = mk [ Rule.Order ("VPN", "Monitor") ] in
        check Alcotest.bool "valid" true (Validate.check p = []));
    Alcotest.test_case "unknown NF reported" `Quick (fun () ->
        let p = mk [ Rule.Order ("nothere", "Monitor") ] in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Unknown_nf { name = "nothere"; rule = 1 } -> true | _ -> false)));
    Alcotest.test_case "unknown registry type reported" `Quick (fun () ->
        let p = mk ~bindings:[ ("x", "Imaginary") ] [ Rule.Position ("x", Rule.First) ] in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Unknown_kind ("x", _) -> true | _ -> false)));
    Alcotest.test_case "duplicate binding reported" `Quick (fun () ->
        let p =
          mk ~bindings:[ ("x", "Firewall"); ("x", "Monitor") ] [ Rule.Position ("x", Rule.First) ]
        in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Duplicate_binding "x" -> true | _ -> false)));
    Alcotest.test_case "two-rule order cycle" `Quick (fun () ->
        let p = mk [ Rule.Order ("Firewall", "Monitor"); Rule.Order ("Monitor", "Firewall") ] in
        check Alcotest.bool "cycle" true
          (has_conflict p (function Validate.Order_cycle _ -> true | _ -> false)));
    Alcotest.test_case "three-rule order cycle" `Quick (fun () ->
        let p =
          mk
            [
              Rule.Order ("Firewall", "Monitor");
              Rule.Order ("Monitor", "VPN");
              Rule.Order ("VPN", "Firewall");
            ]
        in
        check Alcotest.bool "cycle" true
          (has_conflict p (function Validate.Order_cycle { names; rules } -> List.length names = 3 && rules = [ 1; 2; 3 ] | _ -> false)));
    Alcotest.test_case "cycle through a priority edge" `Quick (fun () ->
        (* Priority(hi > lo) places lo before hi; Order(hi, lo) contradicts. *)
        let p = mk [ Rule.Priority ("Firewall", "Monitor"); Rule.Order ("Firewall", "Monitor") ] in
        check Alcotest.bool "cycle" true
          (has_conflict p (function Validate.Order_cycle _ -> true | _ -> false)));
    Alcotest.test_case "acyclic order chain passes" `Quick (fun () ->
        let p =
          mk [ Rule.Order ("VPN", "Monitor"); Rule.Order ("Monitor", "Firewall") ]
        in
        check Alcotest.bool "valid" true (Validate.check p = []));
    Alcotest.test_case "priority both ways" `Quick (fun () ->
        let p = mk [ Rule.Priority ("Firewall", "Monitor"); Rule.Priority ("Monitor", "Firewall") ] in
        check Alcotest.bool "conflict" true
          (has_conflict p (function
            | Validate.Priority_both_ways _ -> true
            | Validate.Order_cycle _ -> true
            | _ -> false)));
    Alcotest.test_case "NF pinned first and last" `Quick (fun () ->
        let p =
          mk [ Rule.Position ("Firewall", Rule.First); Rule.Position ("Firewall", Rule.Last) ]
        in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Position_conflict { name = "Firewall"; rules = (1, 2) } -> true | _ -> false)));
    Alcotest.test_case "order into a first-pinned NF" `Quick (fun () ->
        let p =
          mk [ Rule.Position ("VPN", Rule.First); Rule.Order ("Monitor", "VPN") ]
        in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Position_order_conflict _ -> true | _ -> false)));
    Alcotest.test_case "order out of a last-pinned NF" `Quick (fun () ->
        let p = mk [ Rule.Position ("VPN", Rule.Last); Rule.Order ("VPN", "Monitor") ] in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Position_order_conflict _ -> true | _ -> false)));
    Alcotest.test_case "consistent position plus order passes" `Quick (fun () ->
        let p = mk [ Rule.Position ("VPN", Rule.First); Rule.Order ("VPN", "Monitor") ] in
        check Alcotest.bool "valid" true (Validate.check p = []));
    Alcotest.test_case "self-order reported" `Quick (fun () ->
        let p = mk [ Rule.Order ("Firewall", "Firewall") ] in
        check Alcotest.bool "conflict" true
          (has_conflict p (function Validate.Self_rule { name = "Firewall"; rule = 1 } -> true | _ -> false)));
    Alcotest.test_case "conflicts name the offending rule index" `Quick (fun () ->
        (* Rule #1 is fine; #2 mentions the unknown name, #3 is a self
           rule — the reports must carry those positions. *)
        let p =
          mk
            [
              Rule.Order ("VPN", "Monitor");
              Rule.Order ("nothere", "Monitor");
              Rule.Priority ("Firewall", "Firewall");
            ]
        in
        check Alcotest.bool "unknown at #2" true
          (has_conflict p (function
            | Validate.Unknown_nf { name = "nothere"; rule = 2 } -> true
            | _ -> false));
        check Alcotest.bool "self rule at #3" true
          (has_conflict p (function
            | Validate.Self_rule { name = "Firewall"; rule = 3 } -> true
            | _ -> false));
        let rendered =
          String.concat "\n"
            (List.map (Format.asprintf "%a" Validate.pp_conflict) (Validate.check p))
        in
        let contains s =
          let n = String.length s in
          let rec go i =
            i + n <= String.length rendered && (String.sub rendered i n = s || go (i + 1))
          in
          go 0
        in
        check Alcotest.bool "renders #2" true (contains "#2");
        check Alcotest.bool "renders #3" true (contains "#3"));
    Alcotest.test_case "conflicts render as text" `Quick (fun () ->
        let p = mk [ Rule.Order ("Firewall", "Firewall") ] in
        List.iter
          (fun c ->
            check Alcotest.bool "non-empty" true
              (String.length (Format.asprintf "%a" Validate.pp_conflict c) > 0))
          (Validate.check p));
  ]

let suggest_tests =
  [
    Alcotest.test_case "every conflict gets a non-empty suggestion" `Quick (fun () ->
        List.iter
          (fun c ->
            check Alcotest.bool "non-empty" true (String.length (Validate.suggest c) > 10))
          [
            Validate.Unknown_nf { name = "x"; rule = 1 };
            Validate.Unknown_kind ("x", "Y");
            Validate.Duplicate_binding "x";
            Validate.Order_cycle { names = [ "a"; "b" ]; rules = [ 1; 2 ] };
            Validate.Priority_both_ways { a = "a"; b = "b"; rules = (1, 2) };
            Validate.Position_conflict { name = "a"; rules = (1, 2) };
            Validate.Position_order_conflict { pinned = "a"; other = "b"; rule = 2 };
            Validate.Self_rule { name = "a"; rule = 1 };
          ]);
    Alcotest.test_case "compiler errors carry the hint" `Quick (fun () ->
        match Nfp_core.Compiler.compile_text "Order(Firewall, before, Firewall)" with
        | Ok _ -> Alcotest.fail "accepted"
        | Error es ->
            check Alcotest.bool "hint present" true
              (List.exists
                 (fun e ->
                   let rec has i =
                     i + 5 <= String.length e && (String.sub e i 5 = "hint:" || has (i + 1))
                   in
                   has 0)
                 es));
  ]

let () =
  Alcotest.run "nfp_policy"
    [
      ("rule", rule_tests);
      ("parser", parser_tests);
      ("validate", validate_tests);
      ("suggest", suggest_tests);
    ]
