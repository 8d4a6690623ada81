(* Tests for nfp_core: the dependency table (Table 3), Algorithm 1,
   service graphs, the compiler pipeline, table generation, the §4
   statistics, the overhead model and cross-server partitioning. *)

open Nfp_core
open Nfp_nf

let check = Alcotest.check
let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let verdict_t =
  Alcotest.testable Dependency.pp_verdict (fun a b -> a = b)

let field = Nfp_packet.Field.Sip
let field2 = Nfp_packet.Field.Dport
let has_nf plan n = List.exists (fun e -> e.Tables.nf = n) plan.Tables.nf_entries

(* ------------------------------------------------------------------ *)
(* Dependency (Table 3)                                                *)
(* ------------------------------------------------------------------ *)

let dependency_tests =
  [
    Alcotest.test_case "Table 3 cells (kind level)" `Quick (fun () ->
        (* One action of each kind; read and write touch different
           fields, so the mixed cells give their no-copy verdict. *)
        let act f : Action.kind -> Action.t = function
          | K_read -> Read f
          | K_write -> Write f
          | K_add_rm -> Add_rm_header
          | K_drop -> Drop
        in
        let t k1 k2 = Dependency.action_pair (act field k1) (act field2 k2) in
        let open Action in
        check verdict_t "R-R" Dependency.Parallel_no_copy (t K_read K_read);
        check verdict_t "R-W (diff fields)" Dependency.Parallel_no_copy (t K_read K_write);
        check verdict_t "R-A" Dependency.Parallel_with_copy (t K_read K_add_rm);
        check verdict_t "R-D" Dependency.Parallel_no_copy (t K_read K_drop);
        check verdict_t "W-R" Dependency.Not_parallelizable (t K_write K_read);
        check verdict_t "W-W (diff fields)" Dependency.Parallel_no_copy (t K_write K_write);
        check verdict_t "W-A" Dependency.Parallel_with_copy (t K_write K_add_rm);
        check verdict_t "W-D" Dependency.Parallel_no_copy (t K_write K_drop);
        check verdict_t "A-R" Dependency.Not_parallelizable (t K_add_rm K_read);
        check verdict_t "A-W" Dependency.Not_parallelizable (t K_add_rm K_write);
        check verdict_t "A-A" Dependency.Not_parallelizable (t K_add_rm K_add_rm);
        check verdict_t "A-D" Dependency.Parallel_no_copy (t K_add_rm K_drop);
        check verdict_t "D-R" Dependency.Not_parallelizable (t K_drop K_read);
        check verdict_t "D-W" Dependency.Not_parallelizable (t K_drop K_write);
        check verdict_t "D-A" Dependency.Not_parallelizable (t K_drop K_add_rm);
        check verdict_t "D-D" Dependency.Parallel_no_copy (t K_drop K_drop));
    Alcotest.test_case "read-write same field needs a copy" `Quick (fun () ->
        check verdict_t "same" Dependency.Parallel_with_copy
          (Dependency.action_pair (Action.Read field) (Action.Write field));
        check verdict_t "different" Dependency.Parallel_no_copy
          (Dependency.action_pair (Action.Read field) (Action.Write field2)));
    Alcotest.test_case "write-write same field needs a copy" `Quick (fun () ->
        check verdict_t "same" Dependency.Parallel_with_copy
          (Dependency.action_pair (Action.Write field) (Action.Write field));
        check verdict_t "different" Dependency.Parallel_no_copy
          (Dependency.action_pair (Action.Write field) (Action.Write field2)));
    Alcotest.test_case "write-read is sequential regardless of field" `Quick (fun () ->
        check verdict_t "same" Dependency.Not_parallelizable
          (Dependency.action_pair (Action.Write field) (Action.Read field));
        check verdict_t "different (paper-strict)" Dependency.Not_parallelizable
          (Dependency.action_pair (Action.Write field) (Action.Read field2)));
    Alcotest.test_case "field-sensitive write-read ablation" `Quick (fun () ->
        check verdict_t "same still gray" Dependency.Not_parallelizable
          (Dependency.action_pair ~field_sensitive_write_read:true (Action.Write field)
             (Action.Read field));
        check verdict_t "different now parallel" Dependency.Parallel_no_copy
          (Dependency.action_pair ~field_sensitive_write_read:true (Action.Write field)
             (Action.Read field2)));
    Alcotest.test_case "table rows cover all four kinds" `Quick (fun () ->
        let lines =
          String.split_on_char '\n' (Format.asprintf "%a" Dependency.pp_table ())
          |> List.filter (( <> ) "")
        in
        check Alcotest.int "header and four rows" 5 (List.length lines);
        List.iter
          (fun line ->
            check Alcotest.int "label and four cells" 5
              (List.length (String.split_on_char ' ' line |> List.filter (( <> ) ""))))
          lines);
    Alcotest.test_case "pp_table renders" `Quick (fun () ->
        check Alcotest.bool "non-empty" true
          (String.length (Format.asprintf "%a" Dependency.pp_table ()) > 50));
  ]

(* ------------------------------------------------------------------ *)
(* Parallelism (Algorithm 1) over registry profiles                    *)
(* ------------------------------------------------------------------ *)

let analyze a b = Parallelism.verdict (Parallelism.analyze_kinds a b)

let parallelism_tests =
  [
    Alcotest.test_case "Monitor before Firewall: parallel, no copy" `Quick (fun () ->
        (* The paper's flagship example (Fig. 1). *)
        check verdict_t "verdict" Dependency.Parallel_no_copy (analyze "Monitor" "Firewall"));
    Alcotest.test_case "Monitor before LoadBalancer: parallel with copy" `Quick (fun () ->
        (* The west-east chain's 8.8%-overhead pair. *)
        check verdict_t "verdict" Dependency.Parallel_with_copy (analyze "Monitor" "LoadBalancer"));
    Alcotest.test_case "Firewall before anything stateful: sequential" `Quick (fun () ->
        (* A dropper must precede NFs whose state would see dead packets. *)
        check verdict_t "monitor" Dependency.Not_parallelizable (analyze "Firewall" "Monitor");
        check verdict_t "lb" Dependency.Not_parallelizable (analyze "Firewall" "LoadBalancer"));
    Alcotest.test_case "VPN before anything: sequential (header add)" `Quick (fun () ->
        check verdict_t "monitor" Dependency.Not_parallelizable (analyze "VPN" "Monitor"));
    Alcotest.test_case "anything before VPN: copy needed" `Quick (fun () ->
        check verdict_t "ids" Dependency.Parallel_with_copy (analyze "IDS" "VPN");
        check verdict_t "gateway" Dependency.Parallel_with_copy (analyze "Gateway" "VPN"));
    Alcotest.test_case "NAT before LoadBalancer: sequential (write-read)" `Quick (fun () ->
        check verdict_t "verdict" Dependency.Not_parallelizable (analyze "NAT" "LoadBalancer"));
    Alcotest.test_case "two read-only NFs parallelize freely" `Quick (fun () ->
        check verdict_t "ids-gw" Dependency.Parallel_no_copy (analyze "IDS" "Gateway");
        check verdict_t "gw-ids" Dependency.Parallel_no_copy (analyze "Gateway" "IDS");
        check verdict_t "mon-mon" Dependency.Parallel_no_copy (analyze "Monitor" "Monitor"));
    Alcotest.test_case "two load balancers cannot parallelize" `Quick (fun () ->
        (* R/W vs R/W on the same field contains a write-read pair. *)
        check verdict_t "lb-lb" Dependency.Not_parallelizable (analyze "LoadBalancer" "LoadBalancer"));
    Alcotest.test_case "proxy and compression conflict on payload" `Quick (fun () ->
        check verdict_t "proxy-comp" Dependency.Not_parallelizable (analyze "Proxy" "Compression"));
    Alcotest.test_case "conflicting actions reported for copy pairs" `Quick (fun () ->
        let r = Parallelism.analyze_kinds "Monitor" "LoadBalancer" in
        check verdict_t "needs copy" Dependency.Parallel_with_copy (Parallelism.verdict r);
        (* Monitor reads sip/dip; LB writes them. *)
        check Alcotest.bool "sip conflict" true
          (List.exists
             (fun (a, b) ->
               a = Action.Read Nfp_packet.Field.Sip && b = Action.Write Nfp_packet.Field.Sip)
             r.conflicting_actions));
    Alcotest.test_case "no conflicts for green pairs" `Quick (fun () ->
        let r = Parallelism.analyze_kinds "Monitor" "Firewall" in
        check verdict_t "no copy" Dependency.Parallel_no_copy (Parallelism.verdict r);
        check Alcotest.bool "empty" true (r.conflicting_actions = []));
    Alcotest.test_case "gray verdict clears conflict list" `Quick (fun () ->
        let r = Parallelism.analyze_kinds "Firewall" "Monitor" in
        check Alcotest.bool "not parallelizable" false r.parallelizable;
        check Alcotest.bool "no conflicts" true (r.conflicting_actions = []));
    qtest "analyze is deterministic"
      QCheck.(pair (oneofl [ "Firewall"; "Monitor"; "VPN"; "IDS" ])
                (oneofl [ "Firewall"; "Monitor"; "VPN"; "IDS" ]))
      (fun (a, b) -> analyze a b = analyze a b);
  ]

(* ------------------------------------------------------------------ *)
(* Analysis (§4 statistics)                                            *)
(* ------------------------------------------------------------------ *)

let analysis_tests =
  [
    Alcotest.test_case "reproduces the paper's headline numbers" `Quick (fun () ->
        (* Paper: 53.8% parallelizable, 41.5% without copy. Our Table 2
           encoding lands within two points of both. *)
        let s = Analysis.run () in
        if abs_float (s.parallelizable_pct -. 53.8) > 2.5 then
          Alcotest.failf "parallelizable %.1f%% too far from 53.8%%" s.parallelizable_pct;
        if abs_float (s.no_copy_pct -. 41.5) > 3.0 then
          Alcotest.failf "no-copy %.1f%% too far from 41.5%%" s.no_copy_pct);
    Alcotest.test_case "percentages are consistent" `Quick (fun () ->
        let s = Analysis.run () in
        check (Alcotest.float 1e-6) "sum" s.parallelizable_pct
          (s.no_copy_pct +. s.with_copy_pct);
        check Alcotest.bool "bounded" true
          (s.parallelizable_pct >= 0.0 && s.parallelizable_pct <= 100.0));
    Alcotest.test_case "pair weights sum to one" `Quick (fun () ->
        let s = Analysis.run () in
        let total = List.fold_left (fun acc p -> acc +. p.Analysis.weight) 0.0 s.pairs in
        check (Alcotest.float 1e-6) "weights" 1.0 total);
    Alcotest.test_case "pair count is the square of the population" `Quick (fun () ->
        let n = List.length (Registry.weighted_kinds ()) in
        let s = Analysis.run () in
        check Alcotest.int "pairs" (n * n) (List.length s.pairs));
    Alcotest.test_case "custom population" `Quick (fun () ->
        (* All four ordered pairs of two read-only NFs parallelize
           without copies: the pairs a population of the two weighs. *)
        List.iter
          (fun (a, b) ->
            check verdict_t (a ^ " before " ^ b) Dependency.Parallel_no_copy
              (Parallelism.verdict (Parallelism.analyze_kinds a b)))
          [ ("Monitor", "Monitor"); ("Monitor", "Gateway"); ("Gateway", "Monitor");
            ("Gateway", "Gateway") ]);
    Alcotest.test_case "field-sensitive ablation can only help" `Quick (fun () ->
        let strict = Analysis.run () in
        let relaxed = Analysis.run ~field_sensitive_write_read:true () in
        check Alcotest.bool "monotone" true
          (relaxed.parallelizable_pct >= strict.parallelizable_pct -. 1e-9));
  ]

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

let graph_tests =
  [
    Alcotest.test_case "equivalent lengths of the six Fig. 14 shapes" `Quick (fun () ->
        let n i = Graph.nf (Printf.sprintf "nf%d" i) in
        let shapes =
          [
            (Graph.seq [ n 1; n 2; n 3; n 4 ], 4) (* (1) sequential *);
            (Graph.par [ n 1; n 2; n 3; n 4 ], 1) (* (2) all parallel *);
            (Graph.seq [ n 1; Graph.par [ n 2; n 3; n 4 ] ], 2) (* (3) 1 then 3 *);
            ( Graph.par [ n 1; Graph.seq [ n 2; n 3 ]; n 4 ],
              2 (* (4) 1 + chain2 + 1 in parallel *) );
            (Graph.par [ n 1; Graph.seq [ n 2; n 3; n 4 ] ], 3) (* (5) 1 + chain3 *);
            (Graph.par [ Graph.seq [ n 1; n 2 ]; Graph.seq [ n 3; n 4 ] ], 2) (* (6) 2+2 *);
          ]
        in
        List.iteri
          (fun i (g, expected) ->
            check Alcotest.int (Printf.sprintf "shape %d" (i + 1)) expected
              (Graph.equivalent_length g))
          shapes);
    Alcotest.test_case "smart constructors flatten" `Quick (fun () ->
        let g = Graph.seq [ Graph.seq [ Graph.nf "a"; Graph.nf "b" ]; Graph.nf "c" ] in
        check Alcotest.bool "flat" true
          (g = Graph.Seq [ Graph.Nf "a"; Graph.Nf "b"; Graph.Nf "c" ]));
    Alcotest.test_case "singletons collapse" `Quick (fun () ->
        check Alcotest.bool "seq" true (Graph.seq [ Graph.nf "a" ] = Graph.Nf "a");
        check Alcotest.bool "par" true (Graph.par [ Graph.nf "a" ] = Graph.Nf "a"));
    Alcotest.test_case "empty compositions rejected" `Quick (fun () ->
        Alcotest.check_raises "seq" (Invalid_argument "Graph.seq: empty composition")
          (fun () -> ignore (Graph.seq []));
        Alcotest.check_raises "par" (Invalid_argument "Graph.par: empty composition")
          (fun () -> ignore (Graph.par [])));
    Alcotest.test_case "nfs in appearance order" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "x"; Graph.par [ Graph.nf "y"; Graph.nf "z" ] ] in
        check Alcotest.(list string) "order" [ "x"; "y"; "z" ] (Graph.nfs g));
    Alcotest.test_case "well_formed rejects duplicates" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "a"; Graph.nf "a" ] in
        check Alcotest.bool "dup" true (Result.is_error (Graph.well_formed g)));
    Alcotest.test_case "pp renders the paper style" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "vpn"; Graph.par [ Graph.nf "mon"; Graph.nf "fw" ]; Graph.nf "lb" ] in
        check Alcotest.string "render" "vpn -> (mon | fw) -> lb" (Graph.to_string g));
    Alcotest.test_case "to_dot emits every NF and a merge diamond" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "vpn"; Graph.par [ Graph.nf "mon"; Graph.nf "fw" ]; Graph.nf "lb" ] in
        let dot = Graph.to_dot g in
        let has needle =
          let n = String.length needle and h = String.length dot in
          let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> check Alcotest.bool needle true (has needle))
          [ "digraph"; "ingress -> vpn"; "vpn -> mon"; "vpn -> fw"; "mon -> merge1";
            "fw -> merge1"; "merge1 -> lb"; "lb -> egress"; "shape=diamond" ]);
    Alcotest.test_case "to_dot handles nested structures" `Quick (fun () ->
        let g =
          Graph.par
            [ Graph.seq [ Graph.nf "a"; Graph.par [ Graph.nf "b"; Graph.nf "c" ] ]; Graph.nf "d" ]
        in
        let dot = Graph.to_dot g in
        check Alcotest.bool "two merges" true
          (let count = ref 0 in
           String.iteri (fun i ch -> if ch = 'd' && i + 7 <= String.length dot && String.sub dot i 7 = "diamond" then incr count) dot;
           !count = 2));
  ]

(* ------------------------------------------------------------------ *)
(* Compiler                                                            *)
(* ------------------------------------------------------------------ *)

let compile_ok text =
  match Compiler.compile_text text with
  | Ok o -> o
  | Error es -> Alcotest.failf "compile failed: %s" (String.concat "; " es)

let north_south =
  "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
   Chain(vpn, mon, fw, lb)"

let west_east = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)"

let compiler_tests =
  [
    Alcotest.test_case "north-south compiles to the paper's graph" `Quick (fun () ->
        let o = compile_ok north_south in
        check Alcotest.string "graph" "vpn -> (mon | fw) -> lb" (Graph.to_string o.graph);
        check Alcotest.int "equivalent length" 3 (Graph.equivalent_length o.graph));
    Alcotest.test_case "west-east compiles to the paper's graph" `Quick (fun () ->
        let o = compile_ok west_east in
        check Alcotest.string "graph" "ids -> (mon | lb)" (Graph.to_string o.graph));
    Alcotest.test_case "all-read-only chain fully parallelizes" `Quick (fun () ->
        let o = compile_ok "Chain(Monitor, Gateway, Caching)" in
        check Alcotest.int "equivalent length" 1 (Graph.equivalent_length o.graph));
    Alcotest.test_case "position rules pin head and tail" `Quick (fun () ->
        let o =
          compile_ok
            "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(gw, Gateway)\nNF(lb, LoadBalancer)\n\
             Position(vpn, first)\nPosition(lb, last)\nOrder(mon, before, gw)"
        in
        check Alcotest.string "graph" "vpn -> (mon | gw) -> lb" (Graph.to_string o.graph));
    Alcotest.test_case "free NFs join the parallel stage" `Quick (fun () ->
        let o =
          compile_ok
            "NF(mon, Monitor)\nNF(gw, Gateway)\nNF(cache, Caching)\nOrder(mon, before, gw)"
        in
        (* cache is bound but unmentioned; read-only so it parallelizes. *)
        check Alcotest.bool "cache present" true (Graph.contains o.graph "cache");
        check Alcotest.int "eq length" 1 (Graph.equivalent_length o.graph));
    Alcotest.test_case "priority rules force parallelism" `Quick (fun () ->
        let o = compile_ok "NF(ips, IPS)\nNF(fw, Firewall)\nPriority(ips > fw)" in
        check Alcotest.int "parallel" 1 (Graph.equivalent_length o.graph);
        check Alcotest.int "both NFs" 2 (Graph.nf_count o.graph);
        check Alcotest.bool "priority recorded" true
          (List.mem ("ips", "fw") o.priority_pairs));
    Alcotest.test_case "independent micrographs run in parallel" `Quick (fun () ->
        let o =
          compile_ok
            "NF(mon1, Monitor)\nNF(gw1, Gateway)\nNF(mon2, Monitor)\nNF(cache2, Caching)\n\
             Order(mon1, before, gw1)\nOrder(mon2, before, cache2)"
        in
        check Alcotest.int "eq length" 1 (Graph.equivalent_length o.graph);
        check Alcotest.int "all four NFs" 4 (Graph.nf_count o.graph));
    Alcotest.test_case "dependent micrographs are sequenced with a warning" `Quick
      (fun () ->
        let o =
          compile_ok
            "NF(nat, NAT)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nNF(gw, Gateway)\n\
             Order(nat, before, mon)\nOrder(lb, before, gw)"
        in
        (* Both micrographs write sip: they cannot be parallel. *)
        check Alcotest.bool "warning emitted" true (o.warnings <> []);
        check Alcotest.bool "still well formed" true
          (Result.is_ok (Graph.well_formed o.graph)));
    Alcotest.test_case "validation failures become errors" `Quick (fun () ->
        match Compiler.compile_text "Order(Firewall, before, Firewall)" with
        | Ok _ -> Alcotest.fail "accepted a self-order"
        | Error es -> check Alcotest.bool "message" true (es <> []));
    Alcotest.test_case "cyclic order rejected" `Quick (fun () ->
        match
          Compiler.compile_text "Order(Monitor, before, Gateway)\nOrder(Gateway, before, Monitor)"
        with
        | Ok _ -> Alcotest.fail "accepted a cycle"
        | Error _ -> ());
    Alcotest.test_case "empty policy rejected" `Quick (fun () ->
        match Compiler.compile_text "# nothing" with
        | Ok _ -> Alcotest.fail "accepted empty policy"
        | Error _ -> ());
    Alcotest.test_case "sequential_graph preserves the policy order" `Quick (fun () ->
        match Nfp_policy.Parser.parse north_south with
        | Error e -> Alcotest.fail e
        | Ok policy -> (
            match Compiler.sequential_graph policy with
            | Ok g -> check Alcotest.string "chain" "vpn -> mon -> fw -> lb" (Graph.to_string g)
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "sequential_graph respects positions" `Quick (fun () ->
        match
          Nfp_policy.Parser.parse
            "NF(a, Monitor)\nNF(b, Gateway)\nPosition(b, first)\nPosition(a, last)"
        with
        | Error e -> Alcotest.fail e
        | Ok policy -> (
            match Compiler.sequential_graph policy with
            | Ok g -> check Alcotest.string "order" "b -> a" (Graph.to_string g)
            | Error e -> Alcotest.fail e));
    Alcotest.test_case "transitive gray pairs stay ordered" `Quick (fun () ->
        (* VPN before mon (gray), mon before fw (green): fw must still
           come after VPN via transitivity. *)
        let o = compile_ok north_south in
        match o.graph with
        | Graph.Seq (Graph.Nf "vpn" :: _) -> ()
        | g -> Alcotest.failf "vpn not first: %s" (Graph.to_string g));
    Alcotest.test_case "explain narrates the compilation" `Quick (fun () ->
        let o = compile_ok north_south in
        let text = Compiler.explain o in
        let has needle =
          let n = String.length needle and h = String.length text in
          let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        List.iter
          (fun needle -> check Alcotest.bool needle true (has needle))
          [
            "vpn stays before mon";
            "Add/Rm of vpn";
            "mon and fw parallelize without copies";
            "fw stays before lb";
            "final graph: vpn -> (mon | fw) -> lb";
          ]);
    Alcotest.test_case "explain reports copy conflicts" `Quick (fun () ->
        let o = compile_ok west_east in
        let text = Compiler.explain o in
        let has needle =
          let n = String.length needle and h = String.length text in
          let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "copy conflict named" true
          (has "mon and lb parallelize with a packet copy"));
    Alcotest.test_case "blocking pair is reported by Algorithm 1" `Quick (fun () ->
        let r = Parallelism.analyze_kinds "Firewall" "Monitor" in
        (match r.Parallelism.blocking with
        | Some (Action.Drop, Action.Read _) -> ()
        | _ -> Alcotest.fail "expected Drop/Read blocking pair");
        let ok = Parallelism.analyze_kinds "Monitor" "Firewall" in
        check Alcotest.bool "green pair has no blocker" true (ok.Parallelism.blocking = None));
    Alcotest.test_case "field-sensitive ablation changes compilation" `Quick (fun () ->
        (* Compression writes payload+length; Gateway reads only
           addresses. The strict table's W-R cell blocks; the
           field-sensitive ablation parallelizes. *)
        let strict = compile_ok "Chain(Compression, Gateway)" in
        check Alcotest.int "strict sequential" 2 (Graph.equivalent_length strict.graph);
        (match Compiler.compile_text ~field_sensitive_write_read:true "Chain(Compression, Gateway)" with
        | Ok relaxed -> check Alcotest.int "relaxed parallel" 1 (Graph.equivalent_length relaxed.graph)
        | Error es -> Alcotest.failf "ablation failed: %s" (String.concat ";" es));
        (* A Monitor counts bytes, so even the ablation keeps it behind
           a payload-resizing NF. *)
        match Compiler.compile_text ~field_sensitive_write_read:true "Chain(Compression, Monitor)" with
        | Ok still_seq ->
            check Alcotest.int "length conflict stays sequential" 2
              (Graph.equivalent_length still_seq.graph)
        | Error es -> Alcotest.failf "ablation failed: %s" (String.concat ";" es));
  ]

(* ------------------------------------------------------------------ *)
(* Micrograph staging                                                  *)
(* ------------------------------------------------------------------ *)

let micrograph_tests =
  [
    Alcotest.test_case "explicit order with parallelizable pair stages together" `Quick
      (fun () ->
        let profile_of n =
          Registry.profile_of (if n = "v" then "VPN" else if n = "m" then "Monitor" else "Firewall")
        in
        let staged =
          Micrograph.order_items ~items:[ "v"; "m"; "f" ] ~profile_of
            ~ordered:[ ("v", "m"); ("m", "f") ]
            ~forced_parallel:[] ()
        in
        check Alcotest.(list (list string)) "stages" [ [ "v" ]; [ "m"; "f" ] ] staged.stages);
    Alcotest.test_case "forced parallel overrides a gray pair" `Quick (fun () ->
        (* Firewall/Monitor is gray in the firewall-first direction;
           Priority forces them into one stage anyway. *)
        let profile_of n = Registry.profile_of (if n = "f" then "Firewall" else "Monitor") in
        let staged =
          Micrograph.order_items ~items:[ "f"; "m" ] ~profile_of ~ordered:[]
            ~forced_parallel:[ ("f", "m") ] ()
        in
        check Alcotest.(list (list string)) "one stage" [ [ "f"; "m" ] ] staged.stages);
    Alcotest.test_case "unordered pair that is gray both ways gets sequenced with a warning"
      `Quick (fun () ->
        let profile_of n = Registry.profile_of (if n = "p" then "Proxy" else "Compression") in
        let staged =
          Micrograph.order_items ~items:[ "p"; "c" ] ~profile_of ~ordered:[]
            ~forced_parallel:[] ()
        in
        check Alcotest.(list (list string)) "appearance order" [ [ "p" ]; [ "c" ] ]
          staged.stages;
        check Alcotest.bool "warned" true (staged.warnings <> []));
    Alcotest.test_case "unordered pair parallel in the reverse direction still parallelizes"
      `Quick (fun () ->
        (* Gateway reads; LB writes the same fields. gw-before-lb is
           copy-parallelizable, so no edge is imposed. *)
        let profile_of n = Registry.profile_of (if n = "g" then "Gateway" else "LoadBalancer") in
        let staged =
          Micrograph.order_items ~items:[ "lb"; "g" ]
            ~profile_of:(fun n -> profile_of (if n = "g" then "g" else "lb"))
            ~ordered:[] ~forced_parallel:[] ()
        in
        check Alcotest.int "single stage" 1 (List.length staged.stages));
    Alcotest.test_case "transitive order constraints are honoured" `Quick (fun () ->
        (* v before m, m before f: v-f is gray transitively, so f cannot
           share v's stage even though v-f has no explicit rule. *)
        let profile_of n =
          Registry.profile_of (if n = "v" then "VPN" else if n = "m" then "Monitor" else "Caching")
        in
        let staged =
          Micrograph.order_items ~items:[ "v"; "m"; "f" ] ~profile_of
            ~ordered:[ ("v", "m"); ("m", "f") ]
            ~forced_parallel:[] ()
        in
        (match staged.stages with
        | [ "v" ] :: _ -> ()
        | s -> Alcotest.failf "vpn not alone first: %d stages" (List.length s)));
  ]

(* ------------------------------------------------------------------ *)
(* Tables                                                              *)
(* ------------------------------------------------------------------ *)

let tables_tests =
  [
    Alcotest.test_case "north-south plan needs no copies" `Quick (fun () ->
        let p = Oracle.plan_of north_south in
        check Alcotest.int "header copies" 0 p.header_copies;
        check Alcotest.int "full copies" 0 p.full_copies;
        check Alcotest.int "one merge point" 1 (List.length p.merges);
        check Alcotest.int "one version" 1 p.version_count);
    Alcotest.test_case "north-south merger expects mon and fw" `Quick (fun () ->
        let p = Oracle.plan_of north_south in
        match p.merges with
        | [ m ] ->
            check Alcotest.int "two branches" 2 (List.length m.expected);
            check Alcotest.bool "no ops" true (m.ops = []);
            check Alcotest.bool "any-drop" true (m.drop_policy = `Any)
        | _ -> Alcotest.fail "expected one merge spec");
    Alcotest.test_case "west-east plan copies headers for the LB" `Quick (fun () ->
        let p = Oracle.plan_of west_east in
        check Alcotest.int "one header copy" 1 p.header_copies;
        check Alcotest.int "no full copies" 0 p.full_copies;
        match p.merges with
        | [ m ] ->
            (* modify(v1.sip, v2.sip) and modify(v1.dip, v2.dip). *)
            check Alcotest.int "two ops" 2 (List.length m.ops)
        | _ -> Alcotest.fail "expected one merge spec");
    Alcotest.test_case "payload writers get full copies" `Quick (fun () ->
        let p = Oracle.plan_of "Chain(Caching, VPN)" in
        check Alcotest.int "full" 1 p.full_copies;
        check Alcotest.int "header" 0 p.header_copies);
    Alcotest.test_case "nil targets point at the innermost merger" `Quick (fun () ->
        let p = Oracle.plan_of north_south in
        let entry name = List.find (fun e -> e.Tables.nf = name) p.Tables.nf_entries in
        check Alcotest.(option int) "fw" (Some 0) (entry "fw").Tables.nil_target;
        check Alcotest.(option int) "mon" (Some 0) (entry "mon").Tables.nil_target;
        check Alcotest.(option int) "vpn has none" None (entry "vpn").Tables.nil_target;
        check Alcotest.(option int) "lb has none" None (entry "lb").Tables.nil_target);
    Alcotest.test_case "Copy_all copies every non-first branch" `Quick (fun () ->
        let graph = Graph.par [ Graph.nf "a"; Graph.nf "b"; Graph.nf "c" ] in
        let profile_of _ = Registry.profile_of "Firewall" in
        match Tables.plan ~copy_mode:`Copy_all ~profile_of graph with
        | Ok p -> check Alcotest.int "two copies" 2 (p.header_copies + p.full_copies)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "auto mode shares buffers for readers" `Quick (fun () ->
        let graph = Graph.par [ Graph.nf "a"; Graph.nf "b"; Graph.nf "c" ] in
        let profile_of _ = Registry.profile_of "Monitor" in
        match Tables.plan ~profile_of graph with
        | Ok p ->
            check Alcotest.int "no copies" 0 (p.header_copies + p.full_copies);
            check Alcotest.int "one version" 1 p.version_count
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "dirty memory reuse: disjoint writers share" `Quick (fun () ->
        Registry.register ~kind:"TosWriter" ~profile:[ Action.Write Nfp_packet.Field.Tos ];
        Registry.register ~kind:"TtlWriter" ~profile:[ Action.Write Nfp_packet.Field.Ttl ];
        let graph = Graph.par [ Graph.nf "a"; Graph.nf "b" ] in
        let profile_of n = Registry.profile_of (if n = "a" then "TosWriter" else "TtlWriter") in
        match Tables.plan ~profile_of graph with
        | Ok p -> check Alcotest.int "no copies" 0 (p.header_copies + p.full_copies)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "same-field writers both copy" `Quick (fun () ->
        Registry.register ~kind:"TosWriter" ~profile:[ Action.Write Nfp_packet.Field.Tos ];
        let graph = Graph.par [ Graph.nf "a"; Graph.nf "b" ] in
        let profile_of _ = Registry.profile_of "TosWriter" in
        match Tables.plan ~profile_of graph with
        | Ok p ->
            check Alcotest.int "two copies" 2 p.header_copies;
            (* Merge order: later branch's op last, so its write wins. *)
            (match Tables.find_merge p 0 with
            | Some m -> check Alcotest.int "two ops" 2 (List.length m.ops)
            | None -> Alcotest.fail "merge missing")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "version limit enforced" `Quick (fun () ->
        Registry.register ~kind:"TosWriter" ~profile:[ Action.Write Nfp_packet.Field.Tos ];
        let graph n = Graph.par (List.init n (fun i -> Graph.nf (Printf.sprintf "w%d" i))) in
        let profile_of _ = Registry.profile_of "TosWriter" in
        (* The metadata's 4-bit version field holds 15 versions: a plan
           that needs a 16th is refused, never built to fail mid-run. *)
        (match Tables.plan ~profile_of (graph 14) with
        | Ok p -> check Alcotest.int "15 versions" 15 p.version_count
        | Error e -> Alcotest.fail e);
        match Tables.plan ~profile_of (graph 15) with
        | Ok _ -> Alcotest.fail "accepted more than 15 versions"
        | Error e -> check Alcotest.bool "message" true (String.length e > 0));
    Alcotest.test_case "nested parallelism wires inner merger to outer" `Quick (fun () ->
        let graph =
          Graph.par
            [ Graph.seq [ Graph.nf "a"; Graph.par [ Graph.nf "b"; Graph.nf "c" ] ]; Graph.nf "d" ]
        in
        let profile_of _ = Registry.profile_of "Monitor" in
        match Tables.plan ~profile_of graph with
        | Ok p ->
            check Alcotest.int "two merge points" 2 (List.length p.merges);
            let outer =
              List.find
                (fun (m : Tables.merge_spec) ->
                  List.exists
                    (fun (e : Tables.expect) ->
                      match e.deliverer with Tables.D_merger _ -> true | _ -> false)
                    m.expected)
                p.merges
            in
            check Alcotest.int "outer expects two" 2 (List.length outer.expected)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "priority pair sets the drop policy" `Quick (fun () ->
        let o = compile_ok "NF(ips, IPS)\nNF(fw, Firewall)\nPriority(ips > fw)" in
        match Tables.of_output o with
        | Ok p -> (
            match p.merges with
            | [ m ] -> (
                match m.drop_policy with
                | `Priority_to (Tables.D_nf "ips") -> ()
                | _ -> Alcotest.fail "expected priority to ips")
            | _ -> Alcotest.fail "expected one merge spec")
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "sequential plans have no merges" `Quick (fun () ->
        let p = Oracle.plan_of "Chain(NAT, LoadBalancer)" in
        check Alcotest.int "no merges" 0 (List.length p.merges);
        check Alcotest.int "no copies" 0 (p.header_copies + p.full_copies));
    Alcotest.test_case "classifier action reaches the first NF" `Quick (fun () ->
        let p = Oracle.plan_of north_south in
        match p.classifier_actions with
        | [ Tables.Distribute { version = 1; targets = [ Tables.To_nf "vpn" ] } ] -> ()
        | _ -> Alcotest.fail "unexpected classifier actions");
    Alcotest.test_case "copies_bytes accounts header and full copies" `Quick (fun () ->
        let p = Oracle.plan_of west_east in
        check Alcotest.int "64 bytes"
          64
          (Tables.copies_bytes_per_packet p ~packet_bytes:1500 ~header_bytes:64));
    Alcotest.test_case "unknown profile is an error" `Quick (fun () ->
        let graph = Graph.nf "mystery" in
        match Tables.plan ~profile_of:(fun _ -> raise Not_found) graph with
        | Ok _ -> Alcotest.fail "accepted unknown NF"
        | Error _ -> ());
    Alcotest.test_case "plan pp renders, including the serialization" `Quick (fun () ->
        let p = Oracle.plan_of north_south in
        let text = Format.asprintf "%a" Tables.pp p in
        check Alcotest.bool "non-empty" true (String.length text > 100);
        let has needle =
          let n = String.length needle and h = String.length text in
          let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        check Alcotest.bool "serial order shown" true
          (has "equivalent to sequential order: vpn -> mon -> fw -> lb"));
    Alcotest.test_case "serialization puts droppers after readers" `Quick (fun () ->
        (* mon || fw: monitor (reader) serializes before the dropping
           firewall, matching nil-packet semantics. *)
        let p = Oracle.plan_of "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)" in
        check Alcotest.(list string) "order" [ "mon"; "fw" ] p.serial_order);
    Alcotest.test_case "serialization puts copy branches last" `Quick (fun () ->
        let p = Oracle.plan_of west_east in
        (* lb carries the copy, so it serializes after mon. *)
        check Alcotest.(list string) "order" [ "ids"; "mon"; "lb" ] p.serial_order);
  ]

(* ------------------------------------------------------------------ *)
(* Merge ops                                                           *)
(* ------------------------------------------------------------------ *)

let mk_packet payload =
  let flow =
    Nfp_packet.Flow.make
      ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.1"))
      ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.2"))
      ~sport:1 ~dport:2 ~proto:6
  in
  Nfp_packet.Packet.create ~flow ~payload ()

let merge_op_tests =
  [
    Alcotest.test_case "modify transplants a field" `Quick (fun () ->
        let v1 = mk_packet "aa" and v2 = mk_packet "aa" in
        Nfp_packet.Packet.set_sip v2 99l;
        let get () = function 1 -> v1 | 2 -> v2 | _ -> Nfp_packet.Packet.absent in
        Merge_op.apply (Merge_op.Modify { dst = 1; src = 2; field = Nfp_packet.Field.Sip }) ~get ();
        check Alcotest.int32 "transplanted" 99l (Nfp_packet.Packet.sip v1));
    Alcotest.test_case "align_headers adds the AH the source gained" `Quick (fun () ->
        let v1 = mk_packet "xx" and v2 = mk_packet "xx" in
        Nfp_packet.Packet.add_ah v2 ~spi:5l ~seq:6l ~icv:7l;
        let get () = function 1 -> v1 | 2 -> v2 | _ -> Nfp_packet.Packet.absent in
        Merge_op.apply (Merge_op.Align_headers { dst = 1; src = 2 }) ~get ();
        check Alcotest.bool "AH added" true (Nfp_packet.Packet.has_ah v1);
        match Nfp_packet.Packet.remove_ah v1 with
        | Some (spi, seq, icv) ->
            check Alcotest.int32 "spi" 5l spi;
            check Alcotest.int32 "seq" 6l seq;
            check Alcotest.int32 "icv" 7l icv
        | None -> Alcotest.fail "AH missing");
    Alcotest.test_case "align_headers removes an AH the source lost" `Quick (fun () ->
        let v1 = mk_packet "xx" and v2 = mk_packet "xx" in
        Nfp_packet.Packet.add_ah v1 ~spi:1l ~seq:1l ~icv:1l;
        let get () = function 1 -> v1 | 2 -> v2 | _ -> Nfp_packet.Packet.absent in
        Merge_op.apply (Merge_op.Align_headers { dst = 1; src = 2 }) ~get ();
        check Alcotest.bool "AH removed" false (Nfp_packet.Packet.has_ah v1));
    Alcotest.test_case "missing versions are a no-op" `Quick (fun () ->
        let v1 = mk_packet "xx" in
        let before = Nfp_packet.Packet.to_bytes v1 in
        let get () = function 1 -> v1 | _ -> Nfp_packet.Packet.absent in
        Merge_op.apply (Merge_op.Modify { dst = 1; src = 2; field = Nfp_packet.Field.Sip }) ~get ();
        check Alcotest.bool "unchanged" true (Bytes.equal before (Nfp_packet.Packet.to_bytes v1)));
    Alcotest.test_case "pp uses the paper's notation" `Quick (fun () ->
        check Alcotest.string "modify" "modify(v1.sip, v2.sip)"
          (Format.asprintf "%a" Merge_op.pp
             (Merge_op.Modify { dst = 1; src = 2; field = Nfp_packet.Field.Sip })));
  ]

(* ------------------------------------------------------------------ *)
(* Overhead (§6.3.1)                                                   *)
(* ------------------------------------------------------------------ *)

let overhead_tests =
  [
    Alcotest.test_case "ro = 64(d-1)/s" `Quick (fun () ->
        check (Alcotest.float 1e-9) "64B degree 2" 1.0
          (Overhead.ratio ~packet_bytes:64 ~degree:2);
        check (Alcotest.float 1e-9) "1500B degree 2" (64.0 /. 1500.0)
          (Overhead.ratio ~packet_bytes:1500 ~degree:2);
        check (Alcotest.float 1e-9) "degree 1 free" 0.0
          (Overhead.ratio ~packet_bytes:64 ~degree:1));
    Alcotest.test_case "datacenter constant 0.088(d-1)" `Quick (fun () ->
        check (Alcotest.float 1e-9) "degree 2" 0.088 (Overhead.datacenter_ratio ~degree:2);
        check (Alcotest.float 1e-9) "degree 5" (0.088 *. 4.0)
          (Overhead.datacenter_ratio ~degree:5));
    Alcotest.test_case "distribution averaging matches the paper's mean" `Quick (fun () ->
        (* The IMC distribution should land near ro = 0.088 at degree 2. *)
        let ro =
          Overhead.ratio_distribution ~sizes:Nfp_traffic.Size_dist.datacenter ~degree:2
        in
        if abs_float (ro -. 0.088) > 0.01 then
          Alcotest.failf "ro %.3f too far from the paper's 0.088" ro);
    Alcotest.test_case "plan overhead for west-east" `Quick (fun () ->
        let p = Oracle.plan_of west_east in
        check (Alcotest.float 1e-9) "8.8%" (64.0 /. 724.0)
          (Overhead.plan_overhead p ~packet_bytes:724));
    Alcotest.test_case "invalid arguments" `Quick (fun () ->
        Alcotest.check_raises "degree"
          (Invalid_argument "Overhead.ratio: degree must be at least 1") (fun () ->
            ignore (Overhead.ratio ~packet_bytes:64 ~degree:0)));
  ]

(* ------------------------------------------------------------------ *)
(* Partition (§7)                                                      *)
(* ------------------------------------------------------------------ *)

let partition_tests =
  [
    Alcotest.test_case "cores_needed counts NFs, classifier, mergers" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "a"; Graph.par [ Graph.nf "b"; Graph.nf "c" ] ] in
        check Alcotest.int "cores" (3 + 1 + 1) (Partition.cores_needed g));
    Alcotest.test_case "fits on one server when possible" `Quick (fun () ->
        let g = Graph.seq [ Graph.nf "a"; Graph.nf "b" ] in
        match Partition.partition ~cores_per_server:8 g with
        | Ok [ a ] -> check Alcotest.int "server 0" 0 a.Partition.server
        | Ok l -> Alcotest.failf "expected 1 server, got %d" (List.length l)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "splits a long chain" `Quick (fun () ->
        let g = Graph.seq (List.init 6 (fun i -> Graph.nf (Printf.sprintf "n%d" i))) in
        match Partition.partition ~cores_per_server:4 g with
        | Ok assignments ->
            check Alcotest.int "two servers" 2 (List.length assignments);
            check Alcotest.int "one handoff" 1 (Partition.inter_server_hops assignments);
            let all = List.concat_map (fun a -> Graph.nfs a.Partition.segment) assignments in
            check Alcotest.int "all NFs placed" 6 (List.length all)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "parallel blocks are never split" `Quick (fun () ->
        let g =
          Graph.seq
            [ Graph.nf "pre"; Graph.par [ Graph.nf "a"; Graph.nf "b"; Graph.nf "c" ]; Graph.nf "post" ]
        in
        match Partition.partition ~cores_per_server:6 g with
        | Ok assignments ->
            let holds_par a = List.mem "a" (Graph.nfs a.Partition.segment) in
            let holder = List.find holds_par assignments in
            check Alcotest.bool "b with a" true (List.mem "b" (Graph.nfs holder.segment));
            check Alcotest.bool "c with a" true (List.mem "c" (Graph.nfs holder.segment))
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "oversized parallel block is an error" `Quick (fun () ->
        let g = Graph.par (List.init 8 (fun i -> Graph.nf (Printf.sprintf "n%d" i))) in
        match Partition.partition ~cores_per_server:4 g with
        | Ok _ -> Alcotest.fail "accepted an unsplittable block"
        | Error _ -> ());
    Alcotest.test_case "tiny budget rejected" `Quick (fun () ->
        match Partition.partition ~cores_per_server:1 (Graph.nf "a") with
        | Ok _ -> Alcotest.fail "accepted one core"
        | Error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Plan invariants over random series-parallel graphs                  *)
(* ------------------------------------------------------------------ *)

let kind_pool =
  [| "Monitor"; "Gateway"; "Caching"; "Firewall"; "IDS"; "LoadBalancer"; "VPN";
     "Forwarder"; "NAT"; "Proxy" |]

(* A random series-parallel term over n distinctly-named NFs with
   random registry kinds. *)
let random_graph_gen =
  QCheck.Gen.(
    let* n = int_range 1 8 in
    let* kinds = array_size (return n) (int_range 0 (Array.length kind_pool - 1)) in
    let* shape_bits = array_size (return (2 * n)) bool in
    return (n, kinds, shape_bits))

let build_random_graph (n, kinds, shape_bits) =
  let name i = Printf.sprintf "g%d" i in
  let profile_of nm =
    let i = int_of_string (String.sub nm 1 (String.length nm - 1)) in
    Registry.profile_of kind_pool.(kinds.(i))
  in
  (* Fold NFs into a term, branching on shape bits. *)
  let rec build i =
    if i >= n then (Graph.nf (name (n - 1)), n)
    else if i = n - 1 then (Graph.nf (name i), i + 1)
    else if shape_bits.(2 * i) then
      let sub, next = build (i + 1) in
      ((if shape_bits.((2 * i) + 1) then Graph.seq [ Graph.nf (name i); sub ]
        else Graph.par [ Graph.nf (name i); sub ]),
        next)
    else (Graph.nf (name i), i + 1)
  in
  let rec collect i acc =
    if i >= n then List.rev acc
    else
      let term, next = build i in
      collect next (term :: acc)
  in
  let pieces = collect 0 [] in
  (Graph.seq pieces, profile_of)

let random_graph_arbitrary =
  QCheck.make
    ~print:(fun spec -> Graph.to_string (fst (build_random_graph spec)))
    random_graph_gen

let plan_invariant_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"plans satisfy structural invariants"
         random_graph_arbitrary
         (fun spec ->
           let graph, profile_of = build_random_graph spec in
           match Tables.plan ~profile_of graph with
           | Error _ -> QCheck.assume_fail ()
           | Ok plan ->
               let nfs = Graph.nfs graph in
               (* Every NF has exactly one FT entry. *)
               List.length plan.nf_entries = List.length nfs
               && List.for_all (fun n -> has_nf plan n) nfs
               (* serial_order is a permutation of the graph's NFs. *)
               && List.sort compare plan.serial_order = List.sort compare nfs
               (* Every To_nf target exists; every To_merger target has a
                  spec; every merge expects at least two branches. *)
               &&
               let targets_ok actions =
                 List.for_all
                   (function
                     | Tables.Distribute { targets; _ } ->
                         List.for_all
                           (function
                             | Tables.To_nf n -> has_nf plan n
                             | Tables.To_merger m -> Tables.find_merge plan m <> None
                             | Tables.Deliver -> true)
                           targets
                     | Tables.Copy _ -> true)
                   actions
               in
               targets_ok plan.classifier_actions
               && List.for_all (fun (e : Tables.nf_entry) -> targets_ok e.actions)
                    plan.nf_entries
               && List.for_all
                    (fun (m : Tables.merge_spec) ->
                      List.length m.expected >= 2 && targets_ok m.next)
                    plan.merges
               (* Version accounting: copies = versions beyond v1. *)
               && plan.header_copies + plan.full_copies = plan.version_count - 1));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:200 ~name:"exactly one Deliver per plan"
         random_graph_arbitrary
         (fun spec ->
           let graph, profile_of = build_random_graph spec in
           match Tables.plan ~profile_of graph with
           | Error _ -> QCheck.assume_fail ()
           | Ok plan ->
               let count_actions actions =
                 List.fold_left
                   (fun acc -> function
                     | Tables.Distribute { targets; _ } ->
                         acc
                         + List.length
                             (List.filter (fun t -> t = Tables.Deliver) targets)
                     | Tables.Copy _ -> acc)
                   0 actions
               in
               count_actions plan.classifier_actions
               + List.fold_left
                   (fun acc (e : Tables.nf_entry) -> acc + count_actions e.actions)
                   0 plan.nf_entries
               + List.fold_left
                   (fun acc (m : Tables.merge_spec) -> acc + count_actions m.next)
                   0 plan.merges
               = 1));
  ]

let () =
  Alcotest.run "nfp_core"
    [
      ("dependency", dependency_tests);
      ("parallelism", parallelism_tests);
      ("analysis", analysis_tests);
      ("graph", graph_tests);
      ("micrograph", micrograph_tests);
      ("compiler", compiler_tests);
      ("tables", tables_tests);
      ("merge_op", merge_op_tests);
      ("overhead", overhead_tests);
      ("partition", partition_tests);
      ("plan_invariants", plan_invariant_tests);
    ]
