(* Elastic scale-out: a surge absorbed by live NF replication.

   Two cheap forwarders feed an expensive IDS. A seeded surge plan
   multiplies the offered load mid-run far past what a single IDS core
   can serve; the example runs it twice:

   - static: the graph→core mapping is frozen at deployment — the IDS
     ring overflows and the excess is dropped at the NIC;
   - elastic (~elastic): the scale controller watches per-replica ring
     occupancy, activates standby IDS replicas as the surge hits,
     live-migrates per-flow state between RSS shards (freeze →
     snapshot → transfer → atomic steering flip), and retires the
     extra replicas on the quiet tail.

   The migration protocol is crash-safe and trace-preserving: the same
   controller is driven through seeded mid-migration crashes in
   test/test_elastic.ml and must stay bit-identical to a static run.

   Run with: dune exec examples/elastic.exe *)

open Nfp_core

let kinds = [ ("fwd0", "Forwarder"); ("fwd1", "Forwarder"); ("ids", "IDS") ]

let plan () =
  let profile_of n = Nfp_nf.Registry.profile_of (List.assoc n kinds) in
  match Tables.plan ~profile_of (Graph.seq (List.map (fun (n, _) -> Graph.nf n) kinds)) with
  | Ok p -> p
  | Error e -> failwith e

let gen =
  let g =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with
        sizes = Nfp_traffic.Size_dist.fixed 64;
        flows = 256 }
  in
  Nfp_traffic.Pktgen.packet g

(* A 4x spike across the middle of the run, on top of a base load one
   IDS replica handles comfortably. Surge plans are seeded and
   deterministic — as replayable as the fault plans in
   examples/fault_tolerance.exe. *)
let surge =
  Nfp_sim.Fault.surge ~base_mpps:0.8
    [ Nfp_sim.Fault.Spike { at_ns = 200_000.0; duration_ns = 800_000.0; factor = 4.0 } ]

let run ?elastic label =
  let nfs = Nfp_nf.Registry.instances kinds in
  let make engine ~output =
    Nfp_infra.System.make ?elastic ~plan:(plan ()) ~nfs engine ~output
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Surge surge)
      ~packets:8000 ()
  in
  let h = r.health in
  Format.printf "@.%s@." label;
  Format.printf "  offered %d  completed %d  NIC drops %d@." r.offered
    r.completed r.ring_drops;
  Format.printf "  scale-outs %d  scale-ins %d  migrations %d (aborted %d)@."
    h.Nfp_sim.Harness.scale_outs h.Nfp_sim.Harness.scale_ins
    h.Nfp_sim.Harness.migrations h.Nfp_sim.Harness.migration_aborts;
  Format.printf "  packets re-homed mid-flight %d@."
    h.Nfp_sim.Harness.migrated_packets

let () =
  Format.printf
    "surge plan: base 0.8 Mpps, 4x spike from 0.2 ms to 1.0 ms@.";
  run "static (no elastic config): the IDS core saturates and drops";
  run
    ~elastic:
      {
        Nfp_infra.System.default_elastic_config with
        max_replicas = 4;
        control_interval_ns = 10_000.0;
        cooldown_ns = 30_000.0;
      }
    "elastic (~elastic): standby replicas absorb the spike live"
