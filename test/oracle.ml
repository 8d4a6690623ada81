(* The equivalence oracle of the differential suites. The paper checks
   NFP's result correctness (§6.4) by running the same traffic through
   the parallel graph and through the sequential chain and comparing
   the outputs; test_recovery, test_parallel_nf, test_links,
   test_elastic and test_batch hold each of their features to that
   check here. A run under test must agree with its baseline on
   everything observable about *what* the dataplane did, not *when*:
   the delivered (pid, bytes) multiset, the completion and drop ledger
   and every NF's final state digest, merged across replicas.

   dune's [tests] stanza links this module into every test executable,
   so the suites that only build plans and instances take [plan_of],
   the shared policies and [Nfp_nf.Registry.instances] from here too. *)

open Nfp_packet
open Nfp_core
module System = Nfp_infra.System

let plan_of text =
  match Compiler.compile_text text with
  | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es)
  | Ok o -> (
      match Tables.of_output o with Ok p -> p | Error e -> Alcotest.failf "plan: %s" e)

(* The north-south chain; the west-east chain, compiled to
   ids -> (mon | lb) on one header copy; and two NFs in parallel
   branches that meet at a merger. *)
let ns_text =
  "NF(vpn, VPN)\nNF(mon, Monitor)\nNF(fw, Firewall)\nNF(lb, LoadBalancer)\n\
   Chain(vpn, mon, fw, lb)"

let ns_bindings =
  [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]

let we_text = "NF(ids, IPS)\nNF(mon, Monitor)\nNF(lb, LoadBalancer)\nChain(ids, mon, lb)"
let we_bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]
let par_text = "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"
let par_bindings = [ ("mon", "Monitor"); ("fw", "Firewall") ]

(* Frames of [sizes], 128 B by default, over 64 flows. *)
let traffic ?(sizes = Nfp_traffic.Size_dist.fixed 128) () =
  Nfp_traffic.Pktgen.packet
    (Nfp_traffic.Pktgen.create { Nfp_traffic.Pktgen.default with sizes; flows = 64 })

(* Rings deep enough that an outage backlog is buffered, never refused:
   with this depth every offered packet is admitted, so the equivalence
   claims cover every offered packet. *)
let roomy = { System.default_config with ring_capacity = 8192 }

(* Lossless Restart with merge timeouts off: nothing is force-completed,
   so any divergence is a recovery bug, not an artifact of a timeout. *)
let lossless_fault ?(checkpoint_interval_ns = 100_000.0) ?(log_capacity = 4096) plan =
  {
    System.default_fault_config with
    plan;
    merge_timeout_ns = 0.0;
    checkpoint_interval_ns;
    log_capacity;
  }

(* [Registry.instances bindings], with [name] bound to [build ()]. *)
let instances_with name build bindings =
  let lookup = Nfp_nf.Registry.instances bindings and nf = build () in
  fun n -> if n = name then nf else lookup n

(* ------------------------------------------------------------------ *)
(* FlowTag: an NF whose per-flow state is output-critical              *)
(* ------------------------------------------------------------------ *)

(* Stamps each packet's ToS with its flow's 1-based sequence number, so
   a fault the system failed to mask shows in the delivered bytes
   themselves: a lost packet or migration leaves a hole in the
   sequence, a duplicate or a shard applied twice repeats or skips one,
   a reordered pair swaps two stamps. Its one table is per-flow
   General, the class that migration exists for, so [Nf.make ~tables]
   derives its checkpoint, merge, shard and profile. *)
let rec flow_tag ?(name = "tag") () =
  let seqs = Nfp_nf.Nf.table ~label:"flow-seq" ~scope:Per_flow ~mode:General ~width:1 in
  Nfp_nf.Nf.make ~name ~kind:"NAT"
    ~profile:
      Nfp_nf.Action.
        [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Write Field.Tos ]
    ~cost_cycles:(fun _ -> 260)
    ~tables:[ seqs ]
    ~fresh:(fun () -> flow_tag ~name ())
    (fun pkt ->
      let seq = Nfp_nf.Nf.row seqs ~a:(Packet.key_a pkt) ~b:(Packet.key_b pkt) in
      seq.(0) <- seq.(0) + 1;
      Packet.set_tos pkt (seq.(0) land 0xff);
      Nfp_nf.Nf.Forward)

(* Bound as kind NAT: the compiler's conflict analysis then orders the
   tag strictly before the Monitor (NAT writes fields Monitor reads),
   so the chain stays sequential and the ToS write needs no merge rule.
   Replication and migration read the instance's own state-access
   profile, not the policy kind. *)
let tag_text = "NF(tag, NAT)\nNF(mon, Monitor)\nChain(tag, mon)"
let tag_bindings = [ ("tag", "NAT"); ("mon", "Monitor") ]
let tag_nfs = instances_with "tag" flow_tag

(* ------------------------------------------------------------------ *)
(* Random policies                                                     *)
(* ------------------------------------------------------------------ *)

let kind_pool =
  [| "Monitor"; "Gateway"; "Caching"; "Firewall"; "IDS"; "IPS"; "LoadBalancer";
     "VPN"; "NAT"; "Proxy"; "Compression"; "Forwarder" |]

let node i = Printf.sprintf "n%d" i

(* A policy case: the kinds of n0, n1, ... and its Order edges (i, j),
   i < j; with no edge the NFs form a chain. [policy_gen] draws 2 to
   [max_nfs] kinds and one bit per pair (i, j). *)
let policy_gen ~max_nfs =
  QCheck.Gen.(
    let* n = int_range 2 max_nfs in
    let* kinds = array_size (return n) (int_range 0 (Array.length kind_pool - 1)) in
    let* edge_bits = array_size (return (n * n)) bool in
    let order =
      List.concat
        (List.init n (fun i ->
             List.filter_map
               (fun j -> if j > i && edge_bits.((i * n) + j) then Some (i, j) else None)
               (List.init n Fun.id)))
    in
    return (Array.to_list (Array.map (fun k -> kind_pool.(k)) kinds), order))

let bindings_of (kinds, _) = List.mapi (fun i kind -> (node i, kind)) kinds

(* The plan of a policy case, or [None] when the compiler refuses it. *)
let plan_of_case ((kinds, order) as case) =
  let rules =
    match order with
    | [] -> Nfp_policy.Rule.of_chain (List.mapi (fun i _ -> node i) kinds)
    | es -> List.map (fun (i, j) -> Nfp_policy.Rule.Order (node i, node j)) es
  in
  match Compiler.compile { Nfp_policy.Rule.bindings = bindings_of case; rules } with
  | Error _ -> None
  | Ok out -> (
      match Tables.of_output out with Ok plan -> Some plan | Error e -> failwith ("plan: " ^ e))

(* "Monitor,Gateway,Gateway; order n0<n2", or "...; chain". *)
let print_policy (kinds, order) =
  Printf.sprintf "%s; %s" (String.concat "," kinds)
    (match order with
    | [] -> "chain"
    | es ->
        "order "
        ^ String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%s<%s" (node i) (node j)) es))

(* ------------------------------------------------------------------ *)
(* Observation                                                         *)
(* ------------------------------------------------------------------ *)

(* Deliveries are a sorted multiset: an outage, a migration or a
   retransmission delays and may locally reorder deliveries, but each
   packet's bytes and the set of packets must match. The ledger fields
   are what the convergence check requires to be zero; detections,
   crashes and the graph only explain a report. *)
type observation = {
  outs : (int64 * string) list;
  completed : int;
  nf_drops : int;
  digests : (string * int) list;  (** by NF name, merged across replicas *)
  ring_drops : int;
  flush_lost : int;
  in_flight : int;
  detections : int;
  crashes : int;
  graph : string;
}

type dataplane =
  config:System.config ->
  plan:Tables.plan ->
  nfs:(string -> Nfp_nf.Nf.t) ->
  Nfp_sim.Engine.t ->
  output:(pid:int64 -> Packet.t -> unit) ->
  Nfp_sim.Harness.system

(* The executable reference of the compiled dataplane; it takes no
   fault, overload, elastic or links config. *)
let interpretive ~config ~plan ~nfs =
  System.interpretive ~config ~graphs:[ (Flow_match.any, plan, nfs) ]

(* One run of [plan] on fresh instances from [nfs bindings], built by
   [dataplane] ([System.make] with the given configs by default).
   Digests come from the [replication] report, which [System.make]
   fills, and from the instances when the dataplane leaves it empty. *)
let observe ?fault ?overload ?elastic ?links ?replicas ?(config = roomy)
    ?(nfs = Nfp_nf.Registry.instances) ?(gen = traffic ()) ?stop
    ?(replication = ref (fun () -> [])) ?dataplane ~plan ~bindings ~arrivals ~packets () =
  let lookup = nfs bindings in
  let config = Option.fold ~none:config ~some:(fun replicas -> { config with replicas }) replicas in
  let dataplane : dataplane =
    match dataplane with
    | Some d -> d
    | None ->
        fun ~config ~plan ~nfs engine ->
          System.make ?fault ?overload ?elastic ?links ~replication ~config ~plan ~nfs engine
  in
  let outs = ref [] in
  let make engine ~output =
    dataplane ~config ~plan ~nfs:lookup engine ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r = Nfp_sim.Harness.run ~make ~gen ~arrivals ~packets ?stop () in
  let digests =
    match !replication () with
    | [] -> List.map (fun (name, _) -> (name, (lookup name).state_digest ())) bindings
    | report ->
        List.map (fun (rr : System.replica_report) -> (rr.rr_nf, rr.rr_merged_digest)) report
  in
  ( {
      outs = List.sort compare !outs;
      completed = r.completed;
      nf_drops = r.nf_drops;
      digests = List.sort compare digests;
      ring_drops = r.ring_drops;
      flush_lost = r.health.drops.flush_lost;
      in_flight = r.in_flight;
      detections = r.health.detections;
      crashes = r.health.crashes;
      graph = Graph.to_string plan.graph;
    },
    r )

(* ------------------------------------------------------------------ *)
(* The convergence check and its report                                *)
(* ------------------------------------------------------------------ *)

let rec first_delivery i a b =
  let only side pid = Some (Printf.sprintf "delivery %d: pid %Ld only in the %s" i pid side) in
  match (a, b) with
  | [], [] -> None
  | (pid, _) :: _, [] -> only "baseline" pid
  | [], (pid, _) :: _ -> only "run under test" pid
  | (pa, ba) :: a', (pb, bb) :: b' ->
      if pa < pb then only "baseline" pa
      else if pb < pa then only "run under test" pb
      else if ba <> bb then Some (Printf.sprintf "delivery %d: pid %Ld has other bytes" i pa)
      else first_delivery (i + 1) a' b'

let first_digest a b =
  if List.map fst a <> List.map fst b then
    Some
      (Printf.sprintf "digested NFs [%s] vs [%s]"
         (String.concat ";" (List.map fst a))
         (String.concat ";" (List.map fst b)))
  else
    List.find_map
      (fun ((nf, da), (_, db)) ->
        if da <> db then Some (Printf.sprintf "digest of %s %d vs %d" nf da db) else None)
      (List.combine a b)

(* [None] when [run] converged with [baseline]: both admitted
   everything, flushed nothing and left nothing in flight, and they
   agree on completed, nf_drops, the delivery multiset and every
   digest. Otherwise a report naming the first of those that differs,
   in that order, with both sides' detections and crashes and the
   compiled graph; every line starts with "oracle:". *)
let first_difference baseline run =
  let sides what f = Printf.sprintf "%s %d vs %d" what (f baseline) (f run) in
  let zero what f = lazy (if f baseline = 0 && f run = 0 then None else Some (sides what f))
  and equal what f = lazy (if f baseline = f run then None else Some (sides what f)) in
  List.find_map Lazy.force
    [
      zero "ring drops" (fun o -> o.ring_drops);
      zero "flush_lost" (fun o -> o.flush_lost);
      zero "in_flight" (fun o -> o.in_flight);
      equal "completed" (fun o -> o.completed);
      equal "nf_drops" (fun o -> o.nf_drops);
      equal "deliveries" (fun o -> List.length o.outs);
      lazy (first_delivery 0 baseline.outs run.outs);
      lazy (first_digest baseline.digests run.digests);
    ]
  |> Option.map (fun first ->
         String.concat "\n"
           [
             "oracle: first difference: " ^ first;
             Printf.sprintf "oracle: completed %d vs %d; detections %d vs %d; crashes %d vs %d"
               baseline.completed run.completed baseline.detections run.detections
               baseline.crashes run.crashes;
             "oracle: graph " ^ baseline.graph;
           ])

(* The convergence check as an Alcotest check... *)
let check_equivalent label baseline run =
  Option.iter (Alcotest.failf "%s:\n%s" label) (first_difference baseline run)

(* ...and as a QCheck verdict, which fails with the report. *)
let converges baseline run =
  Option.fold ~none:true ~some:QCheck.Test.fail_report (first_difference baseline run)
