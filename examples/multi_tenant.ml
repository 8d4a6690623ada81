(* Multi-tenant deployment: one NFP server hosting several service
   graphs behind a single classifier — the paper's Classification Table
   (Fig. 4). Each tenant's flows match a CT entry and are steered into
   that tenant's graph; merger instances are shared across graphs
   (paper §5.3).

   Tenant A (web traffic to 10.8.0.0/16:443): monitor ∥ firewall.
   Tenant B (UDP media):                      gateway -> shaper.
   Everything else:                           a default deny firewall.

   Run with: dune exec examples/multi_tenant.exe *)

open Nfp_core
open Nfp_packet

let compile text =
  match Compiler.compile_text text with
  | Ok o -> o
  | Error es -> failwith (String.concat "; " es)

let plan_of out =
  match Tables.of_output out with Ok p -> p | Error e -> failwith e

let () =
  (* Tenant A: the paper's flagship monitor ∥ firewall parallelism. *)
  let tenant_a = compile "NF(mon, Monitor)\nNF(fw, Firewall)\nOrder(mon, before, fw)" in
  let a_mon, a_stats = Nfp_nf.Monitor.create ~name:"mon" () in
  let a_fw, _ = Nfp_nf.Firewall.create ~name:"fw" () in
  let a_lookup = function "mon" -> a_mon | _ -> a_fw in

  (* Tenant B: sequential media pipeline. *)
  let tenant_b = compile "NF(gw, Gateway)\nNF(shp, TrafficShaper)\nOrder(gw, before, shp)" in
  let b_gw, b_stats = Nfp_nf.Gateway.create ~name:"gw" () in
  let b_shp, _, b_clock = Nfp_nf.Traffic_shaper.create ~name:"shp" ~rate_bps:5e9 () in
  ignore b_clock;
  let b_lookup = function "gw" -> b_gw | _ -> b_shp in

  (* Default: deny. *)
  let deny = compile "NF(deny, Firewall)\nPosition(deny, first)" in
  let deny_fw, deny_stats =
    Nfp_nf.Firewall.create ~name:"deny" ~acl:[ Nfp_nf.Firewall.any_rule ~permit:false ] ()
  in

  Format.printf "tenant A graph: %a@." Graph.pp tenant_a.graph;
  (* NFP parallelizes tenant B too: the gateway only reads addresses and
     the policer only reads the length before its drop verdict. *)
  Format.printf "tenant B graph: %a@." Graph.pp tenant_b.graph;

  let graphs =
    [
      ( Flow_match.make
          ~dip_prefix:(Option.get (Flow.ip_of_string "10.8.0.0"), 16)
          ~dport_range:(443, 443) ~proto:6 (),
        plan_of tenant_a,
        a_lookup );
      (Flow_match.make ~proto:17 (), plan_of tenant_b, b_lookup);
      (Flow_match.any, plan_of deny, fun _ -> deny_fw);
    ]
  in
  let engine = Nfp_sim.Engine.create () in
  let delivered = ref 0 in
  let system =
    Nfp_infra.System.make_multi ~graphs engine ~output:(fun ~pid:_ _ -> incr delivered)
  in

  (* 300 web flows, 200 media packets, 100 strays. *)
  let ip s = Option.get (Flow.ip_of_string s) in
  (* Pace arrivals at 2 Mpps so the classifier ring never overflows. *)
  let inject i flow =
    Nfp_sim.Engine.schedule engine
      ~delay:(float_of_int i *. 500.0)
      (fun () ->
        system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i)
          (Packet.create ~flow ~payload:"DATA-0123456789" ()))
  in
  for i = 0 to 299 do
    inject i
      (Flow.make ~sip:(ip "10.0.1.2") ~dip:(ip "10.8.3.4") ~sport:(20000 + i) ~dport:443
         ~proto:6)
  done;
  for i = 300 to 499 do
    inject i
      (Flow.make ~sip:(ip "10.0.2.9") ~dip:(ip "10.9.1.1") ~sport:5004 ~dport:5004 ~proto:17)
  done;
  for i = 500 to 599 do
    inject i
      (Flow.make ~sip:(ip "10.0.3.3") ~dip:(ip "10.9.9.9") ~sport:1234 ~dport:8080 ~proto:6)
  done;
  Nfp_sim.Engine.run engine;

  Format.printf "delivered      : %d packets@." !delivered;
  Format.printf "tenant A saw   : %d packets over %d flows@." (a_stats.total_packets ())
    (a_stats.flows ());
  Format.printf "tenant B saw   : %d media sessions@." (b_stats.sessions ());
  Format.printf "default denied : %d packets@." (deny_stats.dropped ());
  (* The classifier resolves each 5-tuple through its microflow cache:
     every flow pays one tuple-space miss on its first packet, then
     hits. 300 web packets on 300 distinct flows miss 300 times; the
     media and stray packets reuse one flow each. *)
  let c = system.Nfp_sim.Harness.classifier () in
  Format.printf "classifier     : %d cache hits, %d misses, %d evictions@."
    c.Nfp_sim.Harness.hits c.misses c.evictions;
  Format.printf "unmatched      : %d packets@."
    (system.Nfp_sim.Harness.health ()).drops.no_match
