(* What the cores of a deployment share: the one core constructor and
   crash guard, used by both dataplanes, and the compiled dataplane's
   runtime record with the helpers that register its cores and build
   their ports. Every role module of the compiled dataplane is a set of
   functions over the record; [System.deploy] builds it and ties its
   three late-bound cells. *)

open Nfp_packet

let log_src = Logs.Src.create "nfp.system" ~doc:"NFP dataplane"

module Log = (val Logs.src_log log_src)

type config = {
  cost : Nfp_sim.Cost.t;
  ring_capacity : int;
  mergers : int;
  jitter : float;
  seed : int64;
  replicas : int;
}

let default =
  {
    cost = Nfp_sim.Cost.default;
    ring_capacity = 128;
    mergers = 1;
    jitter = 0.05;
    seed = 7L;
    replicas = 1;
  }

(* The one core constructor. Every core splits its jitter stream off
   [prng] and gets the same ring, breath size and per-breath
   amortization ([cost.batch = 1] restores per-packet execution exactly,
   so the interpretive/compiled differential is undisturbed at any
   size), the overload watermarks, and the fault stream the plan names
   for it. Without an overload or fault config those are [None], and
   [Server.create ?watermarks:None ?fault:None] is exactly the server
   without them. *)
let new_core ~engine ~config ~watermarks ~fault ~name ~prng ~service_ns ~execute ~emit () =
  let cost = config.cost in
  Nfp_sim.Server.create ~engine ~name ~ring_capacity:config.ring_capacity
    ~batch:cost.batch
    ~burst_saving_ns:(Nfp_sim.Cost.ns_of_cycles cost cost.burst_saving)
    ~jitter:(config.jitter, Nfp_algo.Prng.split prng)
    ?watermarks
    ?fault:(Option.bind fault (fun (fc : Watchdog.config) -> Nfp_sim.Fault.for_core fc.plan name))
    ~service_ns ~execute ~emit ()

(* An NF that raises must not take the dataplane down: the packet counts
   as dropped and the fault is logged. *)
let run_nf ~who process ~pid pkt =
  try process pkt
  with exn ->
    Log.warn (fun m ->
        m "NF %s crashed on packet %Ld: %s" who pid (Printexc.to_string exn));
    Nfp_nf.Nf.Dropped

type slot = {
  s_mid : int;
  s_entry : Nfp_core.Tables.nf_entry;
  s_prog : Program.cprog;
  s_servers : (Context.t, Program.csend) Nfp_sim.Server.t array;
  s_nfs : Nfp_nf.Nf.t array;
  s_cells : Watchdog.cell array;
  s_links : Context.t Channel.t option array;
  s_ports : (Context.t -> bool) array;
  s_bypassed : bool array;
  s_steer : Elastic.steer option;
}

type t = {
  engine : Nfp_sim.Engine.t;
  config : config;
  fault : Watchdog.config option;
  elastic : Elastic.config option;
  egress : (int64, Packet.t) Nfp_sim.Engine.line;
  dedup : Dedup.filters;
  delivered : Dedup.t option;
  merge_timeout_ns : float;
  watchdog : Watchdog.t;
  overload : Overload.t;
  prng : Nfp_algo.Prng.t;
  elastic_prng : Nfp_algo.Prng.t;
  link_plan : Nfp_sim.Fault.link_plan option;
  reliability : Channel.reliability option;
  health : Nfp_sim.Harness.health;
  mutable probes : Watchdog.probe list;
  emit : Context.t -> Program.csend -> bool;
  mutable slots : slot array;
  mutable merge_port : Program.cdelivery -> bool;
  mutable deliver_port : Packet.t -> bool;
}

let core rt ?nf ?(drain = fun _ -> 0) ?(cell = Watchdog.no_cell) ~name ~prng ~service_ns
    ~execute ~emit () =
  let server =
    new_core ~engine:rt.engine ~config:rt.config
      ~watermarks:(Overload.watermarks rt.overload) ~fault:rt.fault ~name ~prng ~service_ns
      ~execute ~emit ()
  in
  rt.probes <- Watchdog.Probe { server; nf; drain; cell } :: rt.probes;
  server

(* Link channels: one per destination port, shared by every edge into
   that core; each draws its fault state from the link plan by name.
   Only ports the plan actually perturbs get a channel: an unmatched
   port keeps the direct call path, so arming links with a plan that
   names nothing behaves like no links at all, and the ARQ machinery
   never taxes healthy ports. *)
let channel_for rt ~name ~deliver ~reroute =
  match rt.link_plan with
  | None -> None
  | Some plan -> (
      match Nfp_sim.Fault.link_for plan name with
      | None -> None
      | Some state ->
          Some
            (Channel.create ~engine:rt.engine ~name:("link:" ^ name) ~state
               ?reliability:rt.reliability ~deliver ~reroute ~stats:rt.health.links ()))

(* Build-time ports: every destination gets one offer closure, chosen
   once — [Channel.send] when the link plan names the port, otherwise
   [direct]. A core's own port detours a Down link straight into its
   ring off-core: the fabric can be skipped, the core cannot. *)
let offer_via chan direct = match chan with Some ch -> Channel.send ch | None -> direct

let server_port ?(prefix = "") rt srv =
  let offer = Nfp_sim.Server.offer srv in
  offer_via
    (channel_for rt ~name:(prefix ^ Nfp_sim.Server.name srv) ~deliver:offer
       ~reroute:(fun x -> Nfp_sim.Server.drive rt.engine (fun () -> offer x)))
    offer

let off_emit rt ctx sends =
  Nfp_sim.Server.drive rt.engine (Nfp_sim.Server.emission rt.emit ctx sends)
