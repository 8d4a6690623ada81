(* Differential tests for the compiled dataplane fast path: a
   [System.make_multi] deployment must be observationally identical to
   the [System.interpretive] reference built from the same graphs and
   config — same packets in the same order with the same bytes, same
   drop counters, same simulated clock — and the domain-parallel
   harness must return bit-identical results at any worker count. *)

open Nfp_packet
open Nfp_core
module Registry = Nfp_nf.Registry

let check = Alcotest.check

(* Exact float equality: the two paths share every arithmetic
   expression, so even the simulated timestamps must match bitwise. *)
let exact_float = Alcotest.float 0.0

(* Everything observable about one harness run, outputs included. *)
type trace = {
  outs : (int64 * string) list;  (* delivery order: pid, wire bytes *)
  delivered : int;
  ring_drops : int;
  nf_drops : int;
  unmatched : int;
  duration_ns : float;
  mean_ns : float;
}

let trace ~make ~gen ~arrivals ~packets =
  let outs = ref [] in
  let wrapped engine ~output =
    make engine ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r = Nfp_sim.Harness.run ~make:wrapped ~gen ~arrivals ~packets () in
  {
    outs = List.rev !outs;
    delivered = r.delivered;
    ring_drops = r.ring_drops;
    nf_drops = r.nf_drops;
    unmatched = r.unmatched;
    duration_ns = r.duration_ns;
    (* NaN (no latency samples) would defeat both [=] and float checks;
       normalize it to a sentinel so empty-stats runs still compare. *)
    mean_ns =
      (let m = Nfp_algo.Stats.mean r.latency in
       if Float.is_nan m then -1.0 else m);
  }

let check_traces ?(duration = true) a b =
  check Alcotest.int "delivered" a.delivered b.delivered;
  check Alcotest.int "ring drops" a.ring_drops b.ring_drops;
  check Alcotest.int "nf drops" a.nf_drops b.nf_drops;
  check Alcotest.int "unmatched" a.unmatched b.unmatched;
  if duration then check exact_float "duration" a.duration_ns b.duration_ns;
  check exact_float "mean latency" a.mean_ns b.mean_ns;
  check Alcotest.int "output count" (List.length a.outs) (List.length b.outs);
  List.iter2
    (fun (pid_a, bytes_a) (pid_b, bytes_b) ->
      check Alcotest.int64 "output pid" pid_a pid_b;
      check Alcotest.string "output bytes" bytes_a bytes_b)
    a.outs b.outs

(* The two dataplanes under one signature: the reference walks the
   plan's tables per packet, the compiled one runs preresolved
   programs. *)
let interpretive ~config ~graphs engine ~output =
  Nfp_infra.System.interpretive ~config ~graphs engine ~output

let compiled ~config ~graphs engine ~output =
  Nfp_infra.System.make_multi ~config ~graphs engine ~output

(* [make dataplane] builds one deployment with fresh NF instances, so
   stateful NFs never leak state from one run into the next. *)
let differential ~make ~gen ~arrivals ~packets =
  check_traces
    (trace ~make:(make interpretive) ~gen ~arrivals ~packets)
    (trace ~make:(make compiled) ~gen ~arrivals ~packets)

let single_make ?(config = Nfp_infra.System.default_config) text bindings =
  let plan = Oracle.plan_of text in
  fun dataplane engine ~output ->
    dataplane ~config ~graphs:[ (Flow_match.any, plan, Registry.instances bindings) ] engine ~output

let differential_tests =
  [
    Alcotest.test_case "north-south chain at moderate load" `Quick (fun () ->
        differential
          ~make:(single_make Oracle.ns_text Oracle.ns_bindings)
          ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:800);
    Alcotest.test_case "west-east graph with packet copies" `Quick (fun () ->
        differential
          ~make:(single_make Oracle.we_text Oracle.we_bindings)
          ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Burst (1.0, 32))
          ~packets:800);
    Alcotest.test_case "drop-merging parallel graph" `Quick (fun () ->
        differential
          ~make:
            (single_make "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"
               [ ("mon", "Monitor"); ("fw", "Firewall") ])
          ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:800);
    Alcotest.test_case "overload: backpressure and ring drops agree" `Quick (fun () ->
        differential
          ~make:(single_make Oracle.ns_text Oracle.ns_bindings)
          ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Uniform 20.0) ~packets:2000);
    Alcotest.test_case "large frames (dynamic copy cost) agree" `Quick (fun () ->
        differential
          ~make:(single_make Oracle.we_text Oracle.we_bindings)
          ~gen:(Oracle.traffic ~sizes:(Nfp_traffic.Size_dist.fixed 1500) ())
          ~arrivals:(Nfp_sim.Harness.Uniform 0.4) ~packets:400);
    Alcotest.test_case "multiple merger instances agree" `Quick (fun () ->
        let make =
          single_make
            ~config:{ Nfp_infra.System.default_config with mergers = 3 }
            Oracle.we_text Oracle.we_bindings
        in
        differential ~make ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Uniform 0.8) ~packets:800);
    Alcotest.test_case "multi-graph classifier with unmatched traffic" `Quick (fun () ->
        (* Graph 1 takes UDP, graph 2 takes TCP dport 61080; other TCP
           traffic is unmatched and must count identically. *)
        let p1 = Oracle.plan_of "NF(m1, Monitor)\nPosition(m1, first)" in
        let p2 = Oracle.plan_of Oracle.ns_text in
        let make dataplane engine ~output =
          dataplane ~config:Nfp_infra.System.default_config
            ~graphs:
              [
                (Flow_match.make ~proto:17 (), p1, Registry.instances [ ("m1", "Monitor") ]);
                ( Flow_match.make ~dport_range:(61080, 61080) (),
                  p2,
                  Registry.instances Oracle.ns_bindings );
              ]
            engine ~output
        in
        let tr =
          trace ~make:(make compiled) ~gen:(Oracle.traffic ())
            ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:600
        in
        check Alcotest.bool "some packets unmatched" true (tr.unmatched > 0);
        differential ~make ~gen:(Oracle.traffic ())
          ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:600);
  ]

(* ------------------------------------------------------------------ *)
(* Randomized policies: any compilable policy, both paths identical    *)
(* ------------------------------------------------------------------ *)

let kind_pool =
  [| "Monitor"; "Gateway"; "Caching"; "Firewall"; "IDS"; "IPS"; "LoadBalancer";
     "VPN"; "NAT"; "Proxy"; "Compression"; "Forwarder" |]

let random_policy_gen =
  QCheck.Gen.(
    let* n = int_range 2 5 in
    let* kinds = array_size (return n) (int_range 0 (Array.length kind_pool - 1)) in
    let* edge_bits = array_size (return (n * n)) bool in
    return (kinds, edge_bits))

let print_policy (kinds, _) =
  String.concat "," (Array.to_list (Array.map (fun i -> kind_pool.(i)) kinds))

let random_policy_arbitrary = QCheck.make ~print:print_policy random_policy_gen

(* A policy plus a merger count in {1, 2, 3}: at 2 and 3 every merge
   delivery crosses the merger agent. *)
let mergers_policy_arbitrary =
  QCheck.make
    ~print:(fun (mergers, spec) -> Printf.sprintf "mergers=%d %s" mergers (print_policy spec))
    QCheck.Gen.(pair (int_range 1 3) random_policy_gen)

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
      (QCheck.Test.make ~count:25
         ~name:"compiled path matches interpretive path on any policy"
         mergers_policy_arbitrary
         (fun (mergers, spec) ->
           let policy = build_policy spec in
           match Compiler.compile policy with
           | Error _ -> QCheck.assume_fail ()
           | Ok out -> (
               match Tables.of_output out with
               | Error _ -> false
               | Ok plan ->
                   let config = { Nfp_infra.System.default_config with mergers } in
                   let t dataplane =
                     trace
                       ~make:(fun engine ~output ->
                         dataplane ~config
                           ~graphs:[ (Flow_match.any, plan, Registry.instances policy.bindings) ]
                           engine ~output)
                       ~gen:(Oracle.traffic ())
                       ~arrivals:(Nfp_sim.Harness.Uniform 1.5) ~packets:300
                   in
                   t interpretive = t compiled)));
  ]

(* ------------------------------------------------------------------ *)
(* Fault machinery disarmed: a system built with a fault config whose  *)
(* plan is empty must produce a byte-identical packet trace to one     *)
(* built without fault machinery at all. The watchdog's idle ticks and *)
(* the disarmed merge timeouts advance the empty tail of the event     *)
(* heap, so only the final clock reading may differ — every delivery,  *)
(* byte, counter and latency sample must match exactly.                *)
(* ------------------------------------------------------------------ *)

(* Generous timeout: it must never fire at test loads, only sit armed. *)
let disarmed_fault =
  { Nfp_infra.System.default_fault_config with merge_timeout_ns = 10_000_000.0 }

let fault_differential ~plan ~bindings ~arrivals ~packets =
  (* Fresh NF instances per run: stateful NFs (VPN sequence numbers,
     monitor counters) must not leak state from one run to the next. *)
  let make ?fault () engine ~output =
    Nfp_infra.System.make ?fault ~plan ~nfs:(Registry.instances bindings) engine ~output
  in
  let t mk = trace ~make:mk ~gen:(Oracle.traffic ()) ~arrivals ~packets in
  check_traces ~duration:false
    (t (make ()))
    (t (make ~fault:disarmed_fault ()))

let fault_differential_tests =
  [
    Alcotest.test_case "disarmed faults: north-south chain identical" `Quick (fun () ->
        fault_differential ~plan:(Oracle.plan_of Oracle.ns_text) ~bindings:Oracle.ns_bindings
          ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets:800);
    Alcotest.test_case "disarmed faults: parallel graph with merges identical" `Quick
      (fun () ->
        fault_differential ~plan:(Oracle.plan_of Oracle.we_text) ~bindings:Oracle.we_bindings
          ~arrivals:(Nfp_sim.Harness.Burst (1.0, 32))
          ~packets:800);
    Alcotest.test_case "disarmed faults: overload backpressure identical" `Quick
      (fun () ->
        fault_differential ~plan:(Oracle.plan_of Oracle.ns_text) ~bindings:Oracle.ns_bindings
          ~arrivals:(Nfp_sim.Harness.Uniform 20.0) ~packets:2000);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:25
         ~name:"disarmed faults identical on any compilable policy"
         random_policy_arbitrary
         (fun spec ->
           let policy = build_policy spec in
           match Compiler.compile policy with
           | Error _ -> QCheck.assume_fail ()
           | Ok out -> (
               match Tables.of_output out with
               | Error _ -> false
               | Ok plan ->
                   let make ?fault () engine ~output =
                     Nfp_infra.System.make ?fault ~plan
                       ~nfs:(Registry.instances policy.bindings) engine ~output
                   in
                   let t mk =
                     trace ~make:mk ~gen:(Oracle.traffic ())
                       ~arrivals:(Nfp_sim.Harness.Uniform 1.5) ~packets:300
                   in
                   let a = t (make ()) and b = t (make ~fault:disarmed_fault ()) in
                   { a with duration_ns = 0.0 } = { b with duration_ns = 0.0 })));
  ]

(* ------------------------------------------------------------------ *)
(* Domain-parallel harness determinism                                 *)
(* ------------------------------------------------------------------ *)

let bench_make engine ~output =
  Nfp_infra.System.make ~plan:(Oracle.plan_of Oracle.ns_text)
    ~nfs:(Registry.instances Oracle.ns_bindings) engine ~output

let determinism_tests =
  [
    Alcotest.test_case "parallel_runs is order-preserving and deterministic" `Quick
      (fun () ->
        let thunks () =
          List.init 6 (fun i () ->
              let r =
                Nfp_sim.Harness.run ~make:bench_make ~gen:(Oracle.traffic ())
                  ~arrivals:(Nfp_sim.Harness.Uniform (0.3 +. (0.2 *. float_of_int i)))
                  ~packets:400 ()
              in
              (i, r.delivered, r.ring_drops, Nfp_algo.Stats.mean r.latency))
        in
        let seq = Nfp_sim.Harness.parallel_runs ~domains:1 (thunks ()) in
        let par = Nfp_sim.Harness.parallel_runs ~domains:4 (thunks ()) in
        check Alcotest.int "length" (List.length seq) (List.length par);
        List.iter2
          (fun (i1, d1, rd1, m1) (i2, d2, rd2, m2) ->
            check Alcotest.int "order" i1 i2;
            check Alcotest.int "delivered" d1 d2;
            check Alcotest.int "ring drops" rd1 rd2;
            check exact_float "mean" m1 m2)
          seq par);
    Alcotest.test_case "speculative bisection matches sequential search" `Quick
      (fun () ->
        let search domains =
          Nfp_sim.Harness.max_lossless_mpps ~make:bench_make ~gen:(Oracle.traffic ())
            ~packets:2000 ~hi:14.88 ~iterations:6 ~domains ()
        in
        let s1 = search 1 in
        check exact_float "3 domains" s1 (search 3);
        check exact_float "8 domains" s1 (search 8));
    Alcotest.test_case "nested pools degrade to sequential, same results" `Quick
      (fun () ->
        (* A thunk that itself calls parallel_runs must not spawn a
           nested pool; results stay identical either way. *)
        let inner () =
          Nfp_sim.Harness.parallel_runs
            (List.init 3 (fun i () -> i * i))
        in
        let outer =
          Nfp_sim.Harness.parallel_runs ~domains:2
            (List.init 2 (fun _ () -> inner ()))
        in
        List.iter
          (fun squares -> check Alcotest.(list int) "squares" [ 0; 1; 4 ] squares)
          outer);
  ]

let () =
  Alcotest.run "nfp_fastpath"
    [
      ("differential", differential_tests);
      ("property", property_tests);
      ("fault-differential", fault_differential_tests);
      ("determinism", determinism_tests);
    ]
