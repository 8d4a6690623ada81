(* Batched-breath differential suite: the batch "breath" engine is a
   cost/allocation optimization, never a semantic one. For any batch
   size the merged output trace (as a (pid, bytes) multiset), every
   NF's final state digest, and the accounting ledger must be identical
   to the per-packet (batch = 1) run — with and without injected
   faults, where a crash mid-breath must salvage the unexecuted tail of
   the batch exactly as the legacy path salvaged its in-flight list.

   Timing is explicitly NOT part of the claim: followers in a breath
   are cheaper by the burst saving, so latencies and completion times
   legitimately differ across batch sizes. Everything observable about
   *what* the dataplane did — not *when* — is quantified over here. *)

open Nfp_packet
open Nfp_core

let check = Alcotest.check

let sizes = [ 2; 8; 32; 256 ]

let plan_of text =
  match Compiler.compile_text text with
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
  | Ok o -> (
      match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "plan: %s" e)

let instances bindings =
  let table = Hashtbl.create 8 in
  let nfs =
    List.map
      (fun (name, kind) ->
        match Nfp_nf.Registry.instantiate kind ~name with
        | Some nf ->
            Hashtbl.replace table name nf;
            (name, nf)
        | None -> Alcotest.failf "no implementation for %s" kind)
      bindings
  in
  (Hashtbl.find table, nfs)

let traffic () =
  let g =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with sizes = Nfp_traffic.Size_dist.fixed 128; flows = 64 }
  in
  Nfp_traffic.Pktgen.packet g

(* Deep rings: every offered packet is admitted, so the ledger is not
   perturbed by admission refusals that depend on queue timing. *)
let roomy = { Nfp_infra.System.default_config with ring_capacity = 8192 }

(* [roomy] at breath size [batch]. *)
let roomy_at batch = { roomy with cost = { roomy.cost with batch } }

let lossless_fault plan =
  {
    Nfp_infra.System.default_fault_config with
    plan;
    merge_timeout_ns = 0.0;
    checkpoint_interval_ns = 100_000.0;
    log_capacity = 4096;
  }

(* Everything the batch-size equivalence quantifies over: deliveries as
   a sorted multiset, final NF state digests, and the ledger buckets of
   the run's accounting invariant. *)
type observation = {
  outs : (int64 * string) list;
  completed : int;
  nf_drops : int;
  unmatched : int;
  ring_drops : int;
  crashes : int;
  digests : (string * int) list;
}

(* [dataplane] builds the deployment: by default the compiled one, with
   [fault] armed; the interpretive reference takes no fault config. *)
let observe ?fault
    ?(dataplane =
      fun ~config ~graphs engine ~output ->
        Nfp_infra.System.make_multi ?fault ~config ~graphs engine ~output)
    ~batch_size ~plan ~bindings ~arrivals ~packets () =
  let lookup, nfs = instances bindings in
  let outs = ref [] in
  let make engine ~output =
    dataplane ~config:(roomy_at batch_size)
      ~graphs:[ (Flow_match.any, plan, lookup) ]
      engine
      ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r = Nfp_sim.Harness.run ~make ~gen:(traffic ()) ~arrivals ~packets () in
  {
    outs = List.sort compare !outs;
    completed = r.completed;
    nf_drops = r.nf_drops;
    unmatched = r.unmatched;
    ring_drops = r.ring_drops;
    crashes = r.health.crashes;
    digests =
      List.map (fun (name, (nf : Nfp_nf.Nf.t)) -> (name, nf.state_digest ())) nfs;
  }

let check_equivalent ~batch reference batched =
  let ctx fmt = Printf.ksprintf (fun s -> Printf.sprintf "batch %d: %s" batch s) fmt in
  check Alcotest.int (ctx "completed") reference.completed batched.completed;
  check Alcotest.int (ctx "nf drops") reference.nf_drops batched.nf_drops;
  check Alcotest.int (ctx "unmatched") reference.unmatched batched.unmatched;
  check Alcotest.int (ctx "ring drops") reference.ring_drops batched.ring_drops;
  check Alcotest.int (ctx "crashes") reference.crashes batched.crashes;
  check Alcotest.int (ctx "delivery count") (List.length reference.outs)
    (List.length batched.outs);
  List.iter2
    (fun (pid_a, bytes_a) (pid_b, bytes_b) ->
      check Alcotest.int64 (ctx "delivered pid") pid_a pid_b;
      check Alcotest.string (ctx "delivered bytes") bytes_a bytes_b)
    reference.outs batched.outs;
  List.iter2
    (fun (name_a, d_a) (name_b, d_b) ->
      check Alcotest.string (ctx "digest NF") name_a name_b;
      check Alcotest.int (ctx "state digest of %s" name_a) d_a d_b)
    reference.digests batched.digests

(* Run batch = 1 (bitwise-legacy per-packet semantics) as the
   reference, then every swept size against it. *)
let sweep ?fault ?dataplane ~text ~bindings ~arrivals ?(packets = 2000) () =
  let plan = plan_of text in
  let reference =
    observe ?fault ?dataplane ~batch_size:1 ~plan ~bindings ~arrivals ~packets ()
  in
  List.iter
    (fun batch ->
      let batched =
        observe ?fault ?dataplane ~batch_size:batch ~plan ~bindings ~arrivals ~packets ()
      in
      check_equivalent ~batch reference batched)
    sizes;
  reference

let ns_text =
  "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
   Chain(vpn, mon, fw, lb)"

let ns_bindings =
  [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]

let we_text = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)"
let we_bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

let par_text = "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"
let par_bindings = [ ("mon", "Monitor"); ("fw", "Firewall") ]

(* Bursty arrivals queue several jobs per ring, so breaths genuinely
   run multi-job — a uniform trickle would leave every breath at one
   job and prove nothing. *)
let bursty = Nfp_sim.Harness.Burst (1.0, 32)

let fault_free_tests =
  [
    Alcotest.test_case "stateful chain, bursty arrivals" `Quick (fun () ->
        let r = sweep ~text:ns_text ~bindings:ns_bindings ~arrivals:bursty () in
        check Alcotest.int "no losses anywhere" 0 (r.nf_drops + r.ring_drops));
    Alcotest.test_case "stateful chain, uniform overload" `Quick (fun () ->
        ignore
          (sweep ~text:ns_text ~bindings:ns_bindings
             ~arrivals:(Nfp_sim.Harness.Uniform 20.0) ~packets:2000 ()));
    Alcotest.test_case "parallel branches with merges" `Quick (fun () ->
        ignore (sweep ~text:par_text ~bindings:par_bindings ~arrivals:bursty ()));
    Alcotest.test_case "chain into merge (write-effect graph)" `Quick (fun () ->
        ignore (sweep ~text:we_text ~bindings:we_bindings ~arrivals:bursty ()));
    Alcotest.test_case "interpretive path agrees across batch sizes" `Quick
      (fun () ->
        ignore
          (sweep
             ~dataplane:(fun ~config ~graphs -> Nfp_infra.System.interpretive ~config ~graphs)
             ~text:ns_text ~bindings:ns_bindings
             ~arrivals:bursty ~packets:1200 ()));
  ]

let fault_tests =
  [
    Alcotest.test_case "single crash with lossless recovery" `Quick (fun () ->
        let fault =
          lossless_fault
            (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn" ])
        in
        let r =
          sweep ~fault ~text:ns_text ~bindings:ns_bindings ~arrivals:bursty ()
        in
        check Alcotest.int "crash took effect" 1 r.crashes);
    Alcotest.test_case "two crashes on distinct cores" `Quick (fun () ->
        let fault =
          lossless_fault
            (Nfp_sim.Fault.plan
               [
                 Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:vpn";
                 Nfp_sim.Fault.crash ~at_ns:1_800_000.0 "mid1:fw";
               ])
        in
        let r =
          sweep ~fault ~text:ns_text ~bindings:ns_bindings ~arrivals:bursty ()
        in
        check Alcotest.int "both crashes took effect" 2 r.crashes);
    Alcotest.test_case "crash storm, chain" `Quick (fun () ->
        (* Bursty overload keeps every ring deep, so storm crashes land
           mid-breath and the unexecuted tail of the interrupted batch
           must be salvaged — the partial-batch path. *)
        let fault =
          lossless_fault
            (Nfp_sim.Fault.storm ~seed:11L
               ~cores:[ "mid1:vpn"; "mid1:mon"; "mid1:fw"; "mid1:lb" ]
               ~mtbf_ns:2_000_000.0 ~horizon_ns:3_000_000.0 ())
        in
        let r =
          sweep ~fault ~text:ns_text ~bindings:ns_bindings ~arrivals:bursty ()
        in
        check Alcotest.bool "storm produced crashes" true (r.crashes > 0));
    Alcotest.test_case "crash storm, parallel branches" `Quick (fun () ->
        let fault =
          lossless_fault
            (Nfp_sim.Fault.storm ~seed:7L
               ~cores:[ "mid1:mon"; "mid1:fw" ]
               ~mtbf_ns:1_500_000.0 ~horizon_ns:3_000_000.0 ())
        in
        ignore (sweep ~fault ~text:par_text ~bindings:par_bindings ~arrivals:bursty ()));
  ]

(* Property form: any batch size, arrival shape, and load agrees with
   the per-packet reference on the same traffic. *)
let property_tests =
  let gen =
    QCheck.Gen.(
      let* batch = 2 -- 300 in
      let* burst = 1 -- 48 in
      let* rate10 = 3 -- 30 in
      let* packets = 300 -- 900 in
      return (batch, burst, float_of_int rate10 /. 10.0, packets))
  in
  let arb =
    QCheck.make
      ~print:(fun (b, k, r, p) ->
        Printf.sprintf "batch=%d burst=%d rate=%.1f packets=%d" b k r p)
      gen
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:12 ~name:"random batch size matches per-packet run" arb
         (fun (batch, burst, rate, packets) ->
           let plan = plan_of ns_text in
           let arrivals = Nfp_sim.Harness.Burst (rate, burst) in
           let reference =
             observe ~batch_size:1 ~plan ~bindings:ns_bindings ~arrivals ~packets ()
           in
           let batched =
             observe ~batch_size:batch ~plan ~bindings:ns_bindings ~arrivals ~packets
               ()
           in
           check_equivalent ~batch reference batched;
           true));
  ]

(* ------------------------------------------------------------------ *)
(* Allocation regression: the breath hot path has a pinned GC budget   *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words per packet over a compiled fig7-style run: the
   probe the breath engine's zero-alloc claim is verified with. Two
   budgets, both measured and pinned with ~25% headroom for toolchain
   variation — never for new per-packet allocations:

   - the pure forwarder chain isolates the engine itself (pktgen
     buffer, context, breath dispatch, classifier hit, merger
     presentation, delivery, harness accounting); the compiler runs
     its five Forwarders in parallel on one shared buffer, so each
     packet also completes one merge with no ops. Measured ~101
     words/packet at batch 32, pinned at 127.
   - the stateful NS chain adds the NF internals (VPN encapsulation
     copies, Monitor flow state); measured ~1034, pinned at 1293.

   The copy/merge path has its own budget: a Monitor and a
   LoadBalancer in parallel on one header copy (the west-east chain's
   tail) measured ~106 words/packet, pinned at 133; a header-field
   merge op is budgeted at 0.

   Two tests fit a line to words/packet over the length of a
   sequential chain of no-op NFs. Its intercept prices what every
   packet pays once (frame, context, classification, delivery, harness
   accounting): measured ~72, pinned at 90. Its slope prices one hop:
   ring enqueue, breath, completion event and emission, and nothing
   per packet. The same slope prices the reliable link in front of
   each hop (sequence, unacked and reorder rings, cumulative ack) and
   the lossless-recovery input log (a slot refilled in place): each is
   budgeted at 4 words a hop. A fabric transit that passes or drops is
   budgeted at 0.

   The figures hold for the release build the repository selects in
   dune-workspace. A regression that reintroduces boxing to the hot
   path — a float field in a mixed record, an option on a dequeue, an
   Int64 hash, a closure per emission — costs several words on every
   packet-hop and blows the pinned budgets. *)
let fwd_text =
  "NF(f0, Forwarder)\nNF(f1, Forwarder)\nNF(f2, Forwarder)\nNF(f3, Forwarder)\n\
   NF(f4, Forwarder)\nChain(f0, f1, f2, f3, f4)"

let fwd_bindings = List.init 5 (fun i -> (Printf.sprintf "f%d" i, "Forwarder"))

(* Minor words per packet of the second of two identical runs of a
   deployment; the first warms module state, memo tables and
   first-breath scratch. *)
let words_of_plan ?fault ?links ~plan ~nfs ~batch_size ~packets () =
  let gen = traffic () in
  let make engine ~output =
    Nfp_infra.System.make ?fault ?links ~config:(roomy_at batch_size) ~plan ~nfs engine
      ~output
  in
  let run () =
    ignore
      (Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Burst (1.0, 32))
         ~packets ())
  in
  run ();
  let before = Gc.minor_words () in
  run ();
  (Gc.minor_words () -. before) /. float_of_int packets

let words_per_packet ~text ~bindings ~batch_size ~packets =
  words_of_plan ~plan:(plan_of text) ~nfs:(fst (instances bindings)) ~batch_size ~packets ()

type Nfp_nf.Nf.state += Nop_state

(* Words/packet through a sequential chain of [n] no-op NFs (a
   [Graph.seq], so no copies and no merger). The NFs checkpoint a
   constant state, so an armed fault config logs every hop without
   the snapshots themselves allocating. *)
let chain_words ?fault ?links n ~packets =
  let names = List.init n (Printf.sprintf "nop%d") in
  let profile = [ Nfp_nf.Action.Read Field.Dip ] in
  let plan =
    match Tables.plan ~profile_of:(fun _ -> profile) (Graph.seq (List.map Graph.nf names)) with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let nop name =
    Nfp_nf.Nf.make ~name ~kind:"Nop" ~profile ~cost_cycles:(fun _ -> 100)
      ~snapshot:(fun () -> Nop_state)
      ~restore:(fun _ -> ())
      (fun _ -> Nfp_nf.Nf.Forward)
  in
  let nfs = List.map (fun name -> (name, nop name)) names in
  words_of_plan ?fault ?links ~plan ~nfs:(fun n -> List.assoc n nfs)
    ~batch_size:roomy.cost.batch ~packets ()

let per_hop ?fault ?links () =
  let one = chain_words ?fault ?links 1 ~packets:4000
  and five = chain_words ?fault ?links 5 ~packets:4000 in
  (five -. one) /. 4.0

(* Every port behind a link that never loses a transit, so each hop
   pays the transit draw. *)
let lossless_links ~reliable =
  {
    Nfp_infra.System.default_links_config with
    link_plan = Nfp_sim.Fault.link_plan [ Nfp_sim.Fault.loss ~probability:0.0 "*" ];
    reliable;
  }

(* Armed recovery with a crash plan that names no core: every NF hop is
   logged and checkpointed, nothing ever crashes. The short log wraps
   many times over a run, so nearly every append refills a slot. *)
let logged_fault =
  {
    (lossless_fault (Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:1.0 "no-such-core" ]))
    with
    log_capacity = 64;
  }

(* Minor words allocated by [f 0] .. [f (n - 1)]. *)
let words_of_calls n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  Gc.minor_words () -. before

let no_words what words =
  if words > 0.0 then Alcotest.failf "allocation regression: %s allocated %.0f words" what words

(* 64 IMC-sized frames over 64 flows: the west-east chain's traffic. *)
let imc_frames () =
  let g =
    Nfp_traffic.Pktgen.create
      {
        Nfp_traffic.Pktgen.default with
        sizes = Nfp_traffic.Size_dist.datacenter;
        flows = 64;
      }
  in
  Array.init 64 (Nfp_traffic.Pktgen.packet g)

(* The NF budgets run each packet once first: a Monitor's first packet
   of a flow inserts its cell, and every later one updates it in
   place. *)
let nf_words (nf : Nfp_nf.Nf.t) frames =
  Array.iter (fun p -> ignore (nf.process p)) frames;
  let n = Array.length frames in
  words_of_calls 10_000 (fun i ->
      let p = frames.(i mod n) in
      ignore (nf.cost_cycles p);
      ignore (nf.process p))

let nf_tests =
  [
    Alcotest.test_case "IPS process and cost_cycles allocate nothing" `Quick (fun () ->
        let ips, stats = Nfp_nf.Ids.create ~mode:`Prevent () in
        no_words "10000 IPS packets" (nf_words ips (imc_frames ()));
        check Alcotest.int "every packet scanned" 10_064 (stats.scanned ()));
    Alcotest.test_case "a warm Monitor allocates nothing" `Quick (fun () ->
        let mon, stats = Nfp_nf.Monitor.create () in
        no_words "10000 Monitor packets" (nf_words mon (imc_frames ()));
        check Alcotest.int "flows" 64 (stats.flows ()));
    Alcotest.test_case "LoadBalancer allocates nothing" `Quick (fun () ->
        let lb, _ = Nfp_nf.Load_balancer.create () in
        no_words "10000 LoadBalancer packets" (nf_words lb (imc_frames ())));
    Alcotest.test_case "Forwarder allocates nothing" `Quick (fun () ->
        let fwd, stats = Nfp_nf.L3_forwarder.create () in
        no_words "10000 Forwarder packets" (nf_words fwd (imc_frames ()));
        check Alcotest.int "every packet forwarded" 10_064 (stats.forwarded ()));
    Alcotest.test_case "Firewall allocates nothing" `Quick (fun () ->
        let fw, stats = Nfp_nf.Firewall.create () in
        no_words "10000 Firewall packets" (nf_words fw (imc_frames ()));
        check Alcotest.int "every packet judged" 10_064 (stats.passed () + stats.dropped ()));
    Alcotest.test_case "address and port rewrites allocate nothing" `Quick (fun () ->
        let udp =
          Packet.create
            ~flow:(Flow.make ~sip:1l ~dip:2l ~sport:3 ~dport:4 ~proto:17)
            ~payload:"udp payload" ()
        in
        let frames = Array.append (imc_frames ()) [| udp |] in
        let addrs = [| 0x0a000001l; 0xc0a80001l; 0xac100005l |] in
        let n = Array.length frames in
        no_words "10000 rewrites"
          (words_of_calls 10_000 (fun i ->
               let p = frames.(i mod n) in
               Packet.set_sip p addrs.(i mod 3);
               Packet.set_dip p addrs.((i + 1) mod 3);
               Packet.set_sport p (i land 0xffff);
               Packet.set_dport p ((i * 7) land 0xffff)));
        Array.iter
          (fun p -> check Alcotest.bool "L4 checksum still valid" true (Packet.l4_checksum_valid p))
          frames);
    Alcotest.test_case "warm microflow-cache hits and overwrites allocate nothing" `Quick
      (fun () ->
        let t = Nfp_algo.Flow_table.create () in
        let key i = (0x0a000000 + (i land 1023)) lsl 24 lor 0x2f1806 in
        for i = 0 to 1023 do
          Nfp_algo.Flow_table.put_packed t ~a:(key i) ~b:i i
        done;
        let misses = Nfp_algo.Flow_table.misses t in
        no_words "10000 hits and overwrites"
          (words_of_calls 10_000 (fun i ->
               let a = key i and b = i land 1023 in
               let v = Nfp_algo.Flow_table.find_packed t ~a ~b in
               Nfp_algo.Flow_table.put_packed t ~a ~b (v + 1)));
        check Alcotest.int "every probe hit" misses (Nfp_algo.Flow_table.misses t));
  ]

(* The west-east tail: the compiler runs the Monitor and the
   LoadBalancer in parallel on one header copy, joined by one merger. *)
let par_text = "NF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(mon, lb)"

let par_bindings = [ ("mon", "Monitor"); ("lb", "LoadBalancer") ]

(* tenants_miss's shape, smaller: [tenants] single-Forwarder graphs
   behind one classifier, each owning 10.t.0.0/24. Runs [packets] fresh
   packets spread over the tenants and returns how many of them are
   still reachable after a full major GC, with the deployment still
   reachable, and the deployment's core count. *)
let retained_packets ~tenants ~packets =
  let profile_of _ = Nfp_nf.Registry.profile_of "Forwarder" in
  let graphs =
    List.init tenants (fun t ->
        let name = Printf.sprintf "fwd%d" t in
        let nf = fst (Nfp_nf.L3_forwarder.create ~name ~routes:64 ()) in
        let plan =
          match Tables.plan ~profile_of (Nfp_core.Graph.nf name) with
          | Ok p -> p
          | Error e -> Alcotest.failf "plan: %s" e
        in
        ( Flow_match.make ~dip_prefix:(Int32.of_int ((10 lsl 24) lor (t lsl 8)), 24) (),
          plan,
          fun _ -> nf ))
  in
  let stats = ref (fun () -> []) and deployment = ref None in
  let make engine ~output =
    let system =
      Nfp_infra.System.make_multi ~stats
        ~config:{ Nfp_infra.System.default_config with cost = Nfp_sim.Cost.classified }
        ~graphs engine ~output
    in
    deployment := Some system;
    system
  in
  let sent = Weak.create packets and payload = String.make 46 'x' in
  let gen i =
    let t = i mod tenants in
    let flow =
      Flow.make
        ~sip:(Int32.of_int ((10 lsl 24) lor (200 lsl 16) lor i))
        ~dip:(Int32.of_int ((10 lsl 24) lor (t lsl 8) lor 1))
        ~sport:(1024 + (i / tenants)) ~dport:80 ~proto:6
    in
    let pkt = Packet.create ~flow ~payload () in
    Weak.set sent i (Some pkt);
    pkt
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Uniform 4.0) ~packets ()
  in
  check Alcotest.int "every packet delivered" packets r.completed;
  Gc.full_major ();
  let alive = ref 0 in
  for i = 0 to packets - 1 do
    if Weak.check sent i then incr alive
  done;
  ignore (Sys.opaque_identity !deployment);
  (!alive, List.length (!stats ()))

let allocation_tests =
  [
    Alcotest.test_case "engine hot path stays under budget (forwarder chain)"
      `Quick (fun () ->
        let w =
          words_per_packet ~text:fwd_text ~bindings:fwd_bindings ~batch_size:32
            ~packets:4000
        in
        if w > 127.0 then
          Alcotest.failf
            "allocation regression: %.1f minor words/packet (budget 127)" w);
    Alcotest.test_case "a parallel graph with one header copy stays under budget" `Quick
      (fun () ->
        let plan = plan_of par_text in
        check Alcotest.int "one header copy" 1 plan.header_copies;
        check Alcotest.int "one merger" 1 (List.length plan.merges);
        let w =
          words_per_packet ~text:par_text ~bindings:par_bindings ~batch_size:32 ~packets:4000
        in
        if w > 133.0 then
          Alcotest.failf "allocation regression: %.1f minor words/packet (budget 133)" w);
    Alcotest.test_case "a header-field merge op allocates nothing" `Quick (fun () ->
        let frames = imc_frames () in
        let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:2 frames.(0) in
        ignore (Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:false);
        let v2 = Option.get (Nfp_infra.Context.get ctx 2) in
        Packet.transfer_field ~dst:v2 ~src:frames.(1) Field.Sip;
        Packet.transfer_field ~dst:v2 ~src:frames.(1) Field.Dport;
        let ops =
          Array.of_list
            (List.map
               (fun field -> Merge_op.Modify { dst = 1; src = 2; field })
               Field.[ Sip; Dip; Sport; Dport; Proto; Ttl; Tos ])
        in
        no_words "10000 merge ops"
          (words_of_calls 10_000 (fun i ->
               Merge_op.apply ops.(i mod Array.length ops) ~get:Nfp_infra.Context.slot ctx));
        check Alcotest.bool "checksums still valid" true
          (Packet.ip_checksum_valid frames.(0) && Packet.l4_checksum_valid frames.(0)));
    Alcotest.test_case "stateful chain stays under budget" `Quick (fun () ->
        let w =
          words_per_packet ~text:ns_text ~bindings:ns_bindings ~batch_size:32
            ~packets:4000
        in
        if w > 1293.0 then
          Alcotest.failf
            "allocation regression: %.1f minor words/packet (budget 1293)" w);
    Alcotest.test_case "batching does not allocate more than per-packet" `Quick
      (fun () ->
        let batched =
          words_per_packet ~text:ns_text ~bindings:ns_bindings ~batch_size:32
            ~packets:4000
        in
        let legacy =
          words_per_packet ~text:ns_text ~bindings:ns_bindings ~batch_size:1
            ~packets:4000
        in
        if batched > legacy +. 16.0 then
          Alcotest.failf "batched path allocates more: %.1f vs %.1f words/packet"
            batched legacy);
    Alcotest.test_case "a sequential chain's per-packet intercept stays under budget" `Quick
      (fun () ->
        let one = chain_words 1 ~packets:4000 in
        let w = one -. per_hop () in
        if w > 90.0 then
          Alcotest.failf "allocation regression: %.1f minor words/packet (budget 90)" w);
    Alcotest.test_case "a chain hop allocates at most 4 words" `Quick (fun () ->
        let per_hop = per_hop () in
        if per_hop > 4.0 then
          Alcotest.failf "allocation regression: %.2f minor words per hop (budget 4)"
            per_hop);
    Alcotest.test_case "a reliable link adds at most 4 words to a raw one" `Quick
      (fun () ->
        let raw = per_hop ~links:(lossless_links ~reliable:false) ()
        and reliable = per_hop ~links:(lossless_links ~reliable:true) () in
        if reliable -. raw > 4.0 then
          Alcotest.failf
            "allocation regression: a reliable hop costs %.2f minor words, a raw one \
             %.2f (budget +4)"
            reliable raw);
    Alcotest.test_case "a logged hop allocates at most 4 words" `Quick (fun () ->
        let per_hop = per_hop ~fault:logged_fault () in
        if per_hop > 4.0 then
          Alcotest.failf
            "allocation regression: %.2f minor words per logged hop (budget 4)" per_hop);
    Alcotest.test_case "passing and dropping transits allocate nothing" `Quick
      (fun () ->
        let plan =
          Nfp_sim.Fault.link_plan
            [
              Nfp_sim.Fault.burst ~p_enter:0.05 ~p_exit:0.3 ~drop:0.5 "a";
              Nfp_sim.Fault.loss ~probability:0.05 "a";
              Nfp_sim.Fault.partition ~at_ns:1e9 ~duration_ns:1e3 "a";
            ]
        in
        let st = Option.get (Nfp_sim.Fault.link_for plan "a") in
        let passed = ref 0 and dropped = ref 0 in
        let before = Gc.minor_words () in
        for _ = 1 to 10_000 do
          match Nfp_sim.Fault.transit st ~now_ns:1000.0 with
          | Nfp_sim.Fault.T_pass -> incr passed
          | Nfp_sim.Fault.T_drop -> incr dropped
          | Nfp_sim.Fault.T_pass_dup _ | Nfp_sim.Fault.T_delay _ -> ()
        done;
        let words = Gc.minor_words () -. before in
        check Alcotest.int "every verdict passes or drops" 10_000 (!passed + !dropped);
        check Alcotest.bool "both verdicts drawn" true (!passed > 0 && !dropped > 0);
        if words > 0.0 then
          Alcotest.failf "allocation regression: 10000 transits allocated %.0f words" words);
    Alcotest.test_case "a deployment keeps no packet it has delivered" `Quick (fun () ->
        (* Each core's ring, lines and breath scratch may keep their
           occupancy high-water mark plus a fill element; every other
           delivered packet must be garbage. *)
        let alive, cores = retained_packets ~tenants:64 ~packets:4_000 in
        if alive > 4 * cores then
          Alcotest.failf
            "%d of 4000 packets still reachable over %d cores (budget 4 per core)" alive cores);
  ]

let () =
  Alcotest.run "batch"
    [
      ("fault-free equivalence", fault_free_tests);
      ("fault equivalence", fault_tests);
      ("properties", property_tests);
      ("allocation budget", allocation_tests);
      ("NF allocation budget", nf_tests);
    ]
