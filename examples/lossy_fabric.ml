(* Lossy fabric + reliable channels: a chain that survives 2% link
   loss and a hard 5 ms partition with zero delivered-packet loss.

   Every inter-core edge of the deployment is promoted to a modeled
   link: the seeded plan below drops 2% of all transits everywhere,
   duplicates a further 1%, and cuts the firewall's ingress link
   outright for 5 ms in the middle of the run. The example runs the
   same traffic three ways:

   - lossless: no link plan — the reference delivery count;
   - raw fabric: the faults applied with no protocol on top — every
     fabric drop is a delivered-packet loss, visible in the ledger's
     in_flight residual;
   - reliable (default links config): per-link seq/ack channels
     retransmit the losses, suppress the duplicates, release arrivals
     in order, and when health probes declare the partitioned link
     Down they detour traffic around it until the window closes —
     completed = offered, nothing lost.

   Run with: dune exec examples/lossy_fabric.exe *)

module F = Nfp_sim.Fault

let kinds = [ ("gw", "Gateway"); ("fw", "Firewall"); ("mon", "Monitor") ]

let plan () =
  let profile_of n = Nfp_nf.Registry.profile_of (List.assoc n kinds) in
  match
    Nfp_core.Tables.plan ~profile_of
      (Nfp_core.Graph.seq (List.map (fun (n, _) -> Nfp_core.Graph.nf n) kinds))
  with
  | Ok p -> p
  | Error e -> failwith e

let gen =
  let g =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with
        sizes = Nfp_traffic.Size_dist.fixed 128;
        flows = 128 }
  in
  Nfp_traffic.Pktgen.packet g

(* 2% i.i.d. loss + 1% duplication on every edge, and a hard 5 ms
   outage of the firewall's ingress link mid-run. Link plans are
   seeded and deterministic — rerunning replays the same drops. *)
let specs =
  [
    F.loss ~probability:0.02 "*";
    F.duplicate ~probability:0.01 "*";
    F.partition ~at_ns:2_000_000.0 ~duration_ns:5_000_000.0 "mid1:fw";
  ]

let run ?links label =
  let nfs = Nfp_nf.Registry.instances kinds in
  let config =
    { Nfp_infra.System.default_config with ring_capacity = 8192 }
  in
  let make engine ~output =
    Nfp_infra.System.make ?links ~config ~plan:(plan ()) ~nfs engine ~output
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Uniform 0.5)
      ~packets:10_000 ()
  in
  let l = r.health.Nfp_sim.Harness.links in
  Format.printf "@.%s@." label;
  Format.printf "  offered %d  completed %d  lost %d@." r.offered r.completed
    (r.offered - r.completed - r.ring_drops - r.nf_drops);
  Format.printf
    "  link taxonomy: drops %d  retransmits %d  dups suppressed %d  reordered %d@."
    l.Nfp_sim.Harness.link_drops l.Nfp_sim.Harness.retransmits
    l.Nfp_sim.Harness.duplicates_suppressed l.Nfp_sim.Harness.reordered;
  Format.printf "                 partitions declared %d  packets rerouted %d@."
    l.Nfp_sim.Harness.partitions l.Nfp_sim.Harness.reroutes;
  r

let () =
  Format.printf
    "link plan: 2%% loss + 1%% duplication on *, 5 ms partition of mid1:fw@.";
  let lossless = run "lossless fabric (no links config): the reference" in
  let raw =
    run
      ~links:
        {
          Nfp_infra.System.default_links_config with
          link_plan = F.link_plan specs;
          reliable = false;
        }
      "raw fabric: every drop is a delivered-packet loss"
  in
  let reliable =
    run
      ~links:
        {
          Nfp_infra.System.default_links_config with
          link_plan = F.link_plan specs;
        }
      "reliable channels: seq/ack + retransmit + reorder + reroute"
  in
  Format.printf "@.raw fabric lost %d of %d packets; reliable lost %d@."
    (raw.offered - raw.completed)
    raw.offered
    (reliable.offered - reliable.completed);
  assert (reliable.completed = reliable.offered);
  assert (lossless.completed = lossless.offered);
  Format.printf "zero delivered-packet loss over the same lossy fabric.@."
