(* Fault injection and graceful degradation on the NFP dataplane.

   The paper assumes NFs never fail; a production NFV operator cannot.
   This example deploys the paper's parallel Monitor | Firewall graph,
   crashes the monitor core mid-run, and shows the recovery policies
   side by side:

   - Restart:  respawn the core. With checkpointing disarmed
     (interval 0) its backlog is flushed; mergers time out
     accumulations the dead branch would wedge.
   - Lossless: Restart with checkpointing armed — the core restores
     its last snapshot, replays its input log, and re-admits the work
     the crash reclaimed, so nothing admitted is lost.
   - Bypass:   remove the optional monitor from the graph entirely,
   - Degrade:  fall back to the sequential order of the same plan
     until the core returns.

   Run with: dune exec examples/fault_tolerance.exe *)

open Nfp_core

let policy_text = "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)"

let bindings = [ ("mon", "Monitor"); ("fw", "Firewall") ]

let plan =
  match Compiler.compile_text policy_text with
  | Error es -> failwith (String.concat "; " es)
  | Ok out -> (
      match Tables.of_output out with Ok p -> p | Error e -> failwith e)

let gen i =
  Nfp_packet.Packet.create
    ~flow:
      (Nfp_packet.Flow.make
         ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.1"))
         ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.8.0.2"))
         ~sport:(10000 + (i mod 500))
         ~dport:80 ~proto:6)
    ~payload:"hello" ()

(* Crash the monitor core 0.5 ms in; at 0.5 Mpps over 2000 packets the
   run lasts 4 ms, so the watchdog detects, recovers, and the tail of
   the traffic flows through the repaired (or reshaped) dataplane. *)
let run ?(checkpoint_interval_ns = 0.0) label recovery =
  let fault =
    {
      Nfp_infra.System.default_fault_config with
      plan = Nfp_sim.Fault.plan [ Nfp_sim.Fault.crash ~at_ns:500_000.0 "mid1:mon" ];
      recovery_of = (fun _ -> recovery);
      checkpoint_interval_ns;
    }
  in
  let make engine ~output =
    Nfp_infra.System.make ~fault ~plan ~nfs:(Nfp_nf.Registry.instances bindings) engine
      ~output
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen ~arrivals:(Nfp_sim.Harness.Uniform 0.5)
      ~packets:2000 ()
  in
  let h = r.health in
  Format.printf
    "%-8s: %4d/%d delivered (%.1f%%), p99 %.0f us | detections %d, restarts %d, \
     bypasses %d, degrades %d, merge timeouts %d, flushed %d@."
    label r.completed r.offered
    (100.0 *. float_of_int r.completed /. float_of_int r.offered)
    (Nfp_algo.Stats.percentile r.latency 99.0 /. 1000.0)
    h.detections h.restarts h.bypasses h.degrades h.drops.merge_timed_out
    h.drops.flush_lost;
  if checkpoint_interval_ns > 0.0 then
    Format.printf
      "          checkpoints %d, replayed %d, salvaged %d, deduped %d@."
      h.checkpoints h.replayed h.salvaged h.deduped;
  List.iter
    (fun (c : Nfp_sim.Harness.core_health) ->
      if c.state <> "up" then
        Format.printf "          core %s ended the run %s@." c.core c.state)
    h.cores

let () =
  Format.printf "crashing mid1:mon at t=0.5ms under each recovery policy:@.@.";
  run "Restart" Nfp_infra.Watchdog.Restart;
  run "Lossless" Nfp_infra.Watchdog.Restart ~checkpoint_interval_ns:100_000.0;
  run "Bypass" Nfp_infra.Watchdog.Bypass;
  run "Degrade" Nfp_infra.Watchdog.Degrade;
  Format.printf
    "@.Plain Restart flushes the outage window's backlog; Lossless restores the@.";
  Format.printf
    "monitor's last checkpoint, replays its input log to rebuild state, and@.";
  Format.printf
    "re-admits the reclaimed work (flushed stays 0). Bypass reroutes around@.";
  Format.printf
    "the optional monitor almost losslessly; Degrade runs the sequential@.";
  Format.printf "fallback chain until the core returns, trading latency for delivery.@."
