(* The paper's real-world data-center service chains (Fig. 13):

   - north-south: VPN -> Monitor -> Firewall -> Load Balancer
     (NFP parallelizes Monitor and Firewall; no packet copies)
   - west-east:   IDS -> Monitor -> Load Balancer
     (NFP parallelizes Monitor and the Load Balancer with one
      header-only copy; the dropping NIDS-cluster IDS stays first)

   Traffic follows the IMC'10 data-center packet-size distribution.

   Run with: dune exec examples/datacenter_chains.exe *)

open Nfp_core

type chain_spec = {
  label : string;
  bindings : (string * string) list;
  order : string list;
}

let north_south =
  {
    label = "north-south";
    bindings =
      [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ];
    order = [ "vpn"; "mon"; "fw"; "lb" ];
  }

let west_east =
  {
    label = "west-east";
    bindings = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ];
    order = [ "ids"; "mon"; "lb" ];
  }

let run spec =
  let policy =
    { Nfp_policy.Rule.bindings = spec.bindings; rules = Nfp_policy.Rule.of_chain spec.order }
  in
  let out =
    match Compiler.compile policy with
    | Ok o -> o
    | Error es -> failwith (String.concat "; " es)
  in
  let plan = match Tables.of_output out with Ok p -> p | Error e -> failwith e in
  Format.printf "== %s ==@." spec.label;
  Format.printf "chain : %s@." (String.concat " -> " spec.order);
  Format.printf "graph : %a@." Graph.pp out.graph;
  let gen =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with sizes = Nfp_traffic.Size_dist.datacenter; flows = 256 }
  in
  let pkt i = Nfp_traffic.Pktgen.packet gen i in
  let measure make =
    let mx = Nfp_sim.Harness.max_lossless_mpps ~make ~gen:pkt ~packets:15000 ~hi:10.0 () in
    let r =
      Nfp_sim.Harness.run ~make ~gen:pkt
        ~arrivals:(Nfp_sim.Harness.Burst (0.9 *. mx, 32))
        ~packets:30000 ()
    in
    Nfp_algo.Stats.mean r.latency
  in
  (* Cost-faithful NFs: the heavyweight VPN/IDS stage dominates, so
     parallelizing the light NFs moves the total little (EXPERIMENTS.md
     discusses how this interacts with the paper's own numbers). A
     cost-uniform variant shows the mechanism's effect directly. *)
  let uniform nf = { nf with Nfp_nf.Nf.cost_cycles = (fun _ -> 1200) } in
  let l_seq =
    measure (fun engine ~output ->
        let lookup = Nfp_nf.Registry.instances spec.bindings in
        Nfp_baseline.Opennetvm.make ~nfs:(List.map lookup spec.order) engine ~output)
  in
  let l_nfp =
    measure (fun engine ~output ->
        Nfp_infra.System.make ~plan ~nfs:(Nfp_nf.Registry.instances spec.bindings) engine
          ~output)
  in
  let lu_seq =
    measure (fun engine ~output ->
        let lookup = Nfp_nf.Registry.instances spec.bindings in
        Nfp_baseline.Opennetvm.make
          ~nfs:(List.map (fun n -> uniform (lookup n)) spec.order)
          engine ~output)
  in
  let lu_nfp =
    measure (fun engine ~output ->
        let lookup = Nfp_nf.Registry.instances spec.bindings in
        Nfp_infra.System.make ~plan ~nfs:(fun n -> uniform (lookup n)) engine ~output)
  in
  let mean_size = Nfp_traffic.Size_dist.mean Nfp_traffic.Size_dist.datacenter in
  let overhead = Overhead.plan_overhead plan ~packet_bytes:(int_of_float mean_size) in
  Format.printf "latency (cost-faithful): OpenNetVM %.0f us -> NFP %.0f us  (%.1f%% reduction)@."
    (l_seq /. 1000.) (l_nfp /. 1000.)
    (100. *. (l_seq -. l_nfp) /. l_seq);
  Format.printf "latency (cost-uniform) : OpenNetVM %.0f us -> NFP %.0f us  (%.1f%% reduction)@."
    (lu_seq /. 1000.) (lu_nfp /. 1000.)
    (100. *. (lu_seq -. lu_nfp) /. lu_seq);
  Format.printf "resource overhead: %.1f%% of packet memory@.@." (100. *. overhead)

let () =
  run north_south;
  run west_east
