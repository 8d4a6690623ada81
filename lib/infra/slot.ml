(* The per-NF runtime: one slot per NF of the deployment, its replicas'
   cores, and the one routing rule into it. *)

open Nfp_packet
open Nfp_core
open Runtime

type report = {
  rr_mid : int;
  rr_nf : string;
  rr_kind : string;
  rr_strategy : Replication.strategy;
  rr_replicas : int;
  rr_processed : int list;
  rr_merged_digest : int;
}

(* RSS shard steering: hash the 5-tuple of the packet version the slot's
   NF reads, i.e. the one that replica will observe. The hash runs on
   its own seeded stream ([Hashing.rss2_int]) — never correlated with
   the microflow cache's bucket hash — and is skipped entirely for
   single-replica slots, keeping the replicas=1 hot path (and trace)
   bit-identical to the pre-replication system. Upstream 5-tuple
   rewrites (NAT, LB) are flow-deterministic, so every packet of a flow
   hashes alike and lands on the same replica. *)
let rss_hash s ctx =
  let pkt = Context.slot ctx s.s_entry.Tables.version in
  if pkt == Packet.absent then 0
  else Nfp_algo.Hashing.rss2_int (Packet.key_a pkt) (Packet.key_b pkt)

(* Run an action program off-core: bypass reroutes, Down-link detours. *)
let off_core rt prog ctx = off_emit rt ctx (Program.exec_prog prog ctx)

let bypass rt prog ctx =
  rt.health.bypassed_packets <- rt.health.bypassed_packets + 1;
  off_core rt prog ctx

(* The one routing rule into NF slot [slot]: the send site offers to the
   replicas' ports, a channel releasing a buffered packet ([release]) to
   their rings — so a packet parked on a link while a migration flips
   its bucket, or while the watchdog bypasses the replica, lands where
   it would be routed now and can never resurrect a retired owner's
   state. Steered slots look the bucket up in the live map per attempt,
   so a committed flip takes effect for every not-yet-offered packet. A
   bypassed replica is out of the graph: its action program runs
   immediately instead. *)
let route_nf rt ~release slot ctx =
  let s = rt.slots.(slot) in
  let n = Array.length s.s_servers in
  let r =
    if n < 2 then 0
    else
      match s.s_steer with
      | Some st -> Elastic.owner st (rss_hash s ctx)
      | None -> rss_hash s ctx mod n
  in
  if s.s_bypassed.(r) then begin
    bypass rt s.s_prog ctx;
    true
  end
  else if release then Nfp_sim.Server.offer s.s_servers.(r) ctx
  else s.s_ports.(r) ctx

(* One NF slot, in [nf_impls] order (replica 0 first — at replicas=1 the
   same PRNG split order as the interpretive reference). Replica 0 is
   the caller's NF instance; further replicas are fresh instances from
   [Nf.fresh], each with its own state, recovery cell, fault stream and
   probe. *)
let build_slot rt ~shardable nf_progs slot
    (mid, (entry : Tables.nf_entry), (nf0 : Nfp_nf.Nf.t)) =
  let config = rt.config and cost = rt.config.cost in
  let prog, nil_sends = nf_progs.(slot) in
  (* [config.replicas] targets strategy-eligible NFs; 1 (the default)
     keeps the deployment bit-identical to the pre-replication
     system. *)
  let base_replicas =
    if config.replicas > 1 && shardable mid entry.nf then config.replicas else 1
  in
  (* Scalable = the elastic controller may add/remove replicas at
     runtime: the plan clears the NF for sharding AND its state supports
     live extraction ([Replication.migratable]). Standby replicas up to
     the ceiling are built now — activation is then a pure steering-map
     change. *)
  let steer =
    match rt.elastic with
    | Some (ec : Elastic.config)
      when ec.max_replicas > 1 && Replication.migratable nf0 && shardable mid entry.nf ->
        let n = max base_replicas ec.max_replicas in
        Some (n, Elastic.steer ec ~replicas:n ~base:base_replicas)
    | _ -> None
  in
  let n_replicas = match steer with Some (n, _) -> n | None -> base_replicas in
  let nfs =
    Array.init n_replicas (fun r ->
        if r = 0 then nf0
        else
          match nf0.Nfp_nf.Nf.fresh with
          | Some fresh -> fresh ()
          | None -> assert false (* [shardable] guarantees fresh *))
  in
  let bypassed = Array.make n_replicas false in
  let make_replica r prng =
    let nf = nfs.(r) in
    let cell = Watchdog.cell rt.watchdog nf in
    let static =
      cost.ring_dequeue + cost.nf_runtime + prog.Program.p_static
      + if Watchdog.logging cell then cost.log_append else 0
    in
    (* Pressure-degrade switch: while this replica's own ring sits above
       the watermark, an NF that declares a degrade mode runs its
       coarsened semantics at its coarsened cost. It reads the server
       created below, once bound. *)
    let sw = Overload.switch rt.overload nf in
    let process = Overload.process sw in
    let service_ns ctx (c : Nfp_sim.Server.cell) =
      let pkt = Context.slot ctx entry.version in
      let nf_cycles = if pkt == Packet.absent then 0 else Overload.cost_cycles sw pkt in
      c.ns <-
        Nfp_sim.Cost.ns_of_cycles cost (static + nf_cycles + Program.dyn_cycles ~cost prog ctx)
    in
    let execute ctx =
      let pkt = Context.slot ctx entry.version in
      if pkt == Packet.absent then [||]
      else begin
        Watchdog.log cell pkt;
        match run_nf ~who:entry.nf process ~pid:(Context.pid ctx) pkt with
        | Nfp_nf.Nf.Forward -> Program.exec_prog prog ctx
        | Nfp_nf.Nf.Dropped ->
            if Array.length nil_sends = 0 then
              rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
            nil_sends
      end
    in
    (* Replica 0 keeps the historical core name; shards get an @r
       suffix, so fault plans can target (and crash) each replica
       independently. *)
    let name =
      if r = 0 then Printf.sprintf "mid%d:%s" mid entry.nf
      else Printf.sprintf "mid%d:%s@%d" mid entry.nf r
    in
    (* Bypass recovery: mark the replica, reroute this core's casualties
       (the in-flight batch its kill reclaimed, and any pending
       emissions) plus the queued backlog through its action program,
       so every packet lands in exactly one ledger bucket and no merger
       waits on this branch. Other replicas of the slot keep
       processing. *)
    let drain server =
      bypassed.(r) <- true;
      Nfp_sim.Server.set_casualty_sink server (fun jobs emits ->
          List.iter (bypass rt prog) jobs;
          List.iter (Nfp_sim.Server.drive rt.engine) emits);
      let backlog = Nfp_sim.Server.drain server in
      List.iter (bypass rt prog) backlog;
      List.length backlog
    in
    let server =
      core rt ~nf:(mid, entry.nf) ~drain ~cell ~name ~prng ~service_ns ~execute ~emit:rt.emit
        ()
    in
    Overload.bind sw ~pressured:(fun () -> Nfp_sim.Server.pressured server);
    (server, cell)
  in
  (* Build replicas in index order: each creation splits the jitter
     PRNG, and the replicas=1 trace must keep the historical split
     sequence. Standby replicas (index >= the static count) split the
     independent elastic stream instead, leaving the main sequence
     untouched. *)
  let replicas =
    Array.init n_replicas (fun r ->
        make_replica r (if r < base_replicas then rt.prng else rt.elastic_prng))
  in
  let servers = Array.map fst replicas in
  (* A channel releases through [route_nf] over the replicas' rings, so
     steering and bypass are re-resolved at release time. The reroute of
     a Down link runs the slot's action program off-core, bypass-style:
     downstream sees every expected branch. *)
  let links =
    Array.map
      (fun srv ->
        channel_for rt ~name:(Nfp_sim.Server.name srv) ~deliver:(route_nf rt ~release:true slot)
          ~reroute:(off_core rt prog))
      servers
  in
  {
    s_mid = mid;
    s_entry = entry;
    s_prog = prog;
    s_servers = servers;
    s_nfs = nfs;
    s_cells = Array.map snd replicas;
    s_links = links;
    s_ports = Array.map2 (fun ch srv -> offer_via ch (Nfp_sim.Server.offer srv)) links servers;
    s_bypassed = bypassed;
    s_steer = Option.map snd steer;
  }

(* What the elastic controller sees of a scalable slot. Migration
   transfers get their own link family ("migrate:<replica>"): moved
   in-flight packets cross the fabric like any other edge, so a plan can
   perturb the re-home path independently of the data path. *)
let elastic_slot rt s =
  match s.s_steer with
  | None -> []
  | Some steer ->
      [
        {
          Elastic.servers = s.s_servers;
          nfs = s.s_nfs;
          cells = s.s_cells;
          steer;
          hash = rss_hash s;
          reachable =
            (fun r ->
              match s.s_links.(r) with Some ch -> not (Channel.is_down ch) | None -> true);
          rehome =
            Array.map
              (fun srv ->
                let port = server_port ~prefix:"migrate:" rt srv in
                fun ctx -> Nfp_sim.Server.drive rt.engine (fun () -> port ctx))
              s.s_servers;
        };
      ]

let replica_report s =
  let nfs = s.s_nfs in
  let nf0 = nfs.(0) in
  let merged_digest =
    if Array.length nfs = 1 then nf0.state_digest ()
    else
      match (nf0.merge, nf0.fresh) with
      | Some merge, Some fresh ->
          let snaps =
            Array.to_list
              (Array.map
                 (fun (nf : Nfp_nf.Nf.t) ->
                   match nf.snapshot with
                   | Some snap -> snap ()
                   | None -> assert false (* eligibility requires it *))
                 nfs)
          in
          let scratch = fresh () in
          (match scratch.restore with
          | Some restore -> restore (merge snaps)
          | None -> assert false);
          scratch.state_digest ()
      | _ ->
          (* Replicated_readonly: replicas never diverge. *)
          nf0.state_digest ()
  in
  {
    rr_mid = s.s_mid;
    rr_nf = s.s_entry.nf;
    rr_kind = nf0.kind;
    rr_strategy = Replication.derive nf0;
    rr_replicas = Array.length nfs;
    rr_processed = Array.to_list (Array.map Nfp_sim.Server.processed s.s_servers);
    rr_merged_digest = merged_digest;
  }

(* One attempt at one compiled send: the send path every compiled core
   shares as [rt.emit]. A core walks a program's send array with its
   own cursor, which survives backpressure retries, so each target is
   offered in order exactly once. *)
let emit_send rt ctx (send : Program.csend) =
  match send with
  | S_nf slot -> route_nf rt ~release:false slot ctx
  | S_merge { merge; branch; nil } ->
      rt.merge_port { d_ctx = ctx; d_merge = merge; d_branch = branch; d_nil = nil }
  | S_deliver v ->
      let pkt = Context.slot ctx v in
      pkt == Packet.absent || rt.deliver_port pkt
